"""Closed-form reduced-density-matrix evolution and the decay rate chi.

With chi = J(w21)(1+2n(w21))/2 (hbar = 1) the populations relax at 2*chi
toward (1+n)/(1+2n), n/(1+2n), and the coherences obey the coupled pair

    rho12(t) = [(chi+s) e^{(-chi+s)t} - (chi-s) e^{(-chi-s)t}] / (4s)
               + i w21 [e^{(-chi+s)t} - e^{(-chi-s)t}] / (4s),
    rho21(t) = conj(rho12(t)),            s = sqrt(chi^2 - w21^2)

valid in one formula for the underdamped (s imaginary), overdamped (s real)
and critically damped (s -> 0) regimes; a series branch protects the s -> 0
limit.  Underdamped, the exponentials are conjugates: one complex exp per
sample.  The implied initial state is every element equal to 1/2.  On its
times the closed form is a replayed trajectory: blocks() evaluates its
samples when they are read, the kept samples of one window (redfield's
read_window) at a time, and they are not stored unless data materializes
them, once.  On a TimeGrid, taken as it is, each window's times are computed
with them, so the grid is not built.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .bath import BathModel, bose_occupation, spectral_density
from .redfield import TimeGrid, Trajectory, read_window, sample_windows
from .system import DensityMatrix, EigenSystem

# |s*t| below which the sinh/cosh series replaces the exponential pair.
_SERIES_THRESHOLD = 1e-4


@dataclass(frozen=True)
class ChiRate:
    """Coherence decay rate with the occupation and splitting that formed it."""

    chi: float  # ps^-1
    n_occ: float
    omega_21: float  # ps^-1

    def __post_init__(self) -> None:
        if not self.chi >= 0:
            raise ValueError(f"chi must be >= 0, got {self.chi}")
        if not self.n_occ >= 0:
            raise ValueError(f"n_occ must be >= 0, got {self.n_occ}")
        if not self.omega_21 > 0:
            raise ValueError(f"omega_21 must be positive, got {self.omega_21}")


def chi_rate(eig: EigenSystem, bath: BathModel, temperature: float) -> ChiRate:
    """chi = J(w21) * (1 + 2 n(w21, T)) / 2, with hbar = 1."""
    j = spectral_density(bath, eig.omega_21)
    n = bose_occupation(eig.omega_21, temperature)
    return ChiRate(chi=j * (1.0 + 2.0 * n) / 2.0, n_occ=n, omega_21=eig.omega_21)


def closed_form_trajectory(rate: ChiRate, times) -> Trajectory:
    """The closed form at times, evaluated when read.

    times is a TimeGrid, taken as it is: checked already, and not built.
    Any other times must be strictly increasing and >= 0; they are copied
    and frozen.  Every expression acts sample by sample, so a block's values
    are bit-identical to a whole-grid evaluation's, whatever the thinning.
    A block's times are read from times a window at a time, as the samples.
    """
    if not isinstance(times, TimeGrid):
        times = np.array(times, dtype=float)
        times.setflags(write=False)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("times must be a non-empty 1-d array")
        if not np.all(times >= 0):
            raise ValueError("times must be >= 0")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("times must be strictly increasing")
    return Trajectory.replay(times, functools.partial(_closed_form_blocks, rate, times))


def _closed_form_blocks(rate: ChiRate, times, every: int):
    """The every-th samples of each window, evaluated together into one buffer."""
    size = min(len(times), read_window(len(times)))  # the first window keeps the most
    out = np.empty((len(range(0, size, every)), 4), dtype=complex)
    for kept in sample_windows(len(times), every):
        t = times[kept]
        _fill_block(rate, t, out[: len(t)])
        yield out[: len(t)]


def _fill_block(rate: ChiRate, t: np.ndarray, out: np.ndarray) -> None:
    """The closed form at the times t, written into out (len(t), 4).

    Each expression runs as the same ufuncs on the same operands as the
    plain formula, into three contiguous len(t) complex buffers that are
    reused in place, so at most about three window-sized arrays are live
    beside out and the values are bit for bit the plain formula's.  The
    strided columns of out are only copied into: a ufunc writing a column
    may take another loop and give another NaN sign.
    """
    chi, w, n = rate.chi, rate.omega_21, rate.n_occ
    one_plus_2n = 1.0 + 2.0 * n

    s2 = chi * chi - w * w  # real; s is purely real or purely imaginary
    s = cmath.sqrt(complex(s2, 0.0))

    # non-finite inputs propagate as NaN/inf to the caller's finiteness guard
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # (1+n)/(1+2n) - e^{-2 chi t}/(2(1+2n)), restructured so t = 0 is exactly 1/2
        rho11 = np.multiply(-2.0 * chi, t)
        np.expm1(rho11, out=rho11)
        np.divide(rho11, 2.0 * one_plus_2n, out=rho11)
        np.subtract(0.5, rho11, out=rho11)
        out[:, 0] = rho11
        out[:, 3] = np.subtract(1.0, rho11, out=rho11)
        del rho11

        # |s*t| small at every sample, as under critical damping (s = 0) at finite times:
        # the series gives all of rho12, and the exponential pair would be overwritten.  With
        # t >= 0 the largest |s2*t*t| is the largest t's; at t = inf it is never small
        far = t.max() if len(t) else 0.0
        everywhere = abs(s2 * far * far) < _SERIES_THRESHOLD**2
        if not everywhere:
            a = np.multiply(-chi + s, t)
            np.exp(a, out=a)
            # underdamped, s is purely imaginary: the second exponent is the conjugate of the first
            if s2 < 0:
                b = np.conj(a)
            else:
                b = np.multiply(-chi - s, t)
                np.exp(b, out=b)
            # rho12 = (a + b) / 4 + (chi + i w) (a - b) / (4 s), accumulated in a
            diff = np.subtract(a, b)
            np.add(a, b, out=a)
            del b
            np.divide(a, 4.0, out=a)
            np.multiply(chi + 1j * w, diff, out=diff)
            np.divide(diff, 4.0 * s, out=diff)
            rho12 = np.add(a, diff, out=a)
            del a, diff

        # small |s*t|: cosh(z) and sinh(z)/z expanded, exact through z^4
        z2 = np.multiply(s2, t)
        np.multiply(z2, t, out=z2)
        small = None if everywhere else np.abs(z2) < _SERIES_THRESHOLD**2
        # only samples near t = 0 are small: a long grid's later windows skip the series
        if everywhere or small.any():
            ts, z2 = (t.copy(), z2) if everywhere else (t[small], z2[small])
            # in place: under critical damping every sample takes the series
            cosh_ser = np.divide(z2, 2.0)  # 1 + z2/2 + z2^2/24
            np.add(1.0, cosh_ser, out=cosh_ser)
            scratch = np.multiply(z2, z2)
            np.add(cosh_ser, np.divide(scratch, 24.0, out=scratch), out=cosh_ser)
            sinhc_ser = np.divide(z2, 6.0, out=scratch)  # 1 + z2/6 + z2^2/120
            np.add(1.0, sinhc_ser, out=sinhc_ser)
            np.multiply(z2, z2, out=z2)
            np.add(sinhc_ser, np.divide(z2, 120.0, out=z2), out=sinhc_ser)
            del z2
            # exp(-chi ts) (cosh + (chi + i w) ts sinhc) / 2
            series = np.multiply(chi + 1j * w, ts)
            np.multiply(series, sinhc_ser, out=series)
            del sinhc_ser, scratch
            np.add(cosh_ser, series, out=series)
            del cosh_ser
            np.multiply(-chi, ts, out=ts)
            np.multiply(np.exp(ts, out=ts), series, out=series)
            if everywhere:
                rho12 = np.divide(series, 2.0, out=series)
            else:
                rho12[small] = np.divide(series, 2.0, out=series)
        # critically damped at t = inf, the last time if any: z2 = 0 * inf is NaN, not small,
        # and the series would be 0 * inf too; the state is the equilibrium, rho12 = 0
        if not everywhere and s2 == 0 and t[-1] == np.inf:
            rho12[-1] = 0.0

    out[:, 1] = rho12
    out[:, 2] = np.conj(rho12, out=rho12)


def closed_form_rdm(rate: ChiRate, t: float) -> DensityMatrix:
    """Closed-form density matrix at a single time t >= 0."""
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return closed_form_trajectory(rate, np.array([float(t)])).state(0)


def closed_form_derivative(rate: ChiRate, t: float) -> np.ndarray:
    """Time derivative of the closed form, vector order (rho11,12,21,22).

    Used to check that the closed form satisfies the master equation built
    from the Redfield tensor.
    """
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    chi, w, n = rate.chi, rate.omega_21, rate.n_occ
    d11 = chi * cmath.exp(-2.0 * chi * t) / (1.0 + 2.0 * n)

    s2 = chi * chi - w * w
    s = cmath.sqrt(complex(s2, 0.0))
    z2 = s2 * t * t
    if s2 == 0 and t == math.inf:  # critically damped at equilibrium, where z2 = 0 * inf is NaN
        d12 = 0j
    elif abs(z2) < _SERIES_THRESHOLD**2:
        cosh_ser = 1.0 + z2 / 2.0 + z2 * z2 / 24.0
        sinhc_ser = 1.0 + z2 / 6.0 + z2 * z2 / 120.0
        rho12 = cmath.exp(-chi * t) * (cosh_ser + (chi + 1j * w) * t * sinhc_ser) / 2.0
        d12 = -chi * rho12 + cmath.exp(-chi * t) * (
            s2 * t * sinhc_ser + (chi + 1j * w) * cosh_ser
        ) / 2.0
    else:
        lam_p, lam_m = -chi + s, -chi - s
        a = cmath.exp(lam_p * t)
        b = cmath.exp(lam_m * t)
        d12 = (lam_p * a + lam_m * b) / 4.0 + (chi + 1j * w) * (lam_p * a - lam_m * b) / (4.0 * s)

    return np.array([d11, d12, d12.conjugate(), -d11], dtype=complex)
