"""Closed-form reduced-density-matrix evolution and the decay rate chi.

With chi = J(w21)(1+2n(w21))/2 (hbar = 1) the populations relax at 2*chi
toward (1+n)/(1+2n), n/(1+2n), and the coherences obey the coupled pair

    rho12(t) = [(chi+s) e^{(-chi+s)t} - (chi-s) e^{(-chi-s)t}] / (4s)
               + i w21 [e^{(-chi+s)t} - e^{(-chi-s)t}] / (4s),
    rho21(t) = conj(rho12(t)),            s = sqrt(chi^2 - w21^2)

valid in one formula for the underdamped (s imaginary), overdamped (s real)
and critically damped (s -> 0) regimes; a series branch protects the s -> 0
limit.  The implied initial state is every element equal to 1/2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .bath import BathModel, bose_occupation, spectral_density
from .redfield import Trajectory
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


def closed_form_trajectory(rate: ChiRate, times: np.ndarray) -> Trajectory:
    """Evaluate the closed form on a whole time grid (vectorized)."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if np.any(t < 0):
        raise ValueError("times must be >= 0")

    chi, w, n = rate.chi, rate.omega_21, rate.n_occ
    one_plus_2n = 1.0 + 2.0 * n

    s2 = chi * chi - w * w  # real; s is purely real or purely imaginary
    s = cmath.sqrt(complex(s2, 0.0))

    data = np.empty((len(t), 4), dtype=complex)
    # non-finite inputs propagate as NaN/inf to the caller's finiteness guard
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # (1+n)/(1+2n) - e^{-2 chi t}/(2(1+2n)), restructured so t = 0 is exactly 1/2
        rho11 = 0.5 - np.expm1(-2.0 * chi * t) / (2.0 * one_plus_2n)

        a = np.exp((-chi + s) * t)
        b = np.exp((-chi - s) * t)
        rho12 = (a + b) / 4.0 + (chi + 1j * w) * (a - b) / (4.0 * s)
        del a, b

        # small |s*t|: cosh(z) and sinh(z)/z expanded, exact through z^4
        z2 = s2 * t * t
        small = np.abs(z2) < _SERIES_THRESHOLD**2
        ts, z2 = t[small], z2[small]
        cosh_ser = 1.0 + z2 / 2.0 + z2 * z2 / 24.0
        sinhc_ser = 1.0 + z2 / 6.0 + z2 * z2 / 120.0
        rho12[small] = np.exp(-chi * ts) * (cosh_ser + (chi + 1j * w) * ts * sinhc_ser) / 2.0

    data[:, 0] = rho11
    data[:, 1] = rho12
    data[:, 2] = np.conj(rho12)
    data[:, 3] = 1.0 - rho11
    data.setflags(write=False)
    return Trajectory(times=t, data=data)


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
    if abs(z2) < _SERIES_THRESHOLD**2:
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
