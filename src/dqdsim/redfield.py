"""Redfield relaxation tensor and fixed-step numerical propagation.

The master equation for the reduced density matrix in the eigenbasis is

    d rho_mn / dt = -i w_mn rho_mn + sum_kl R_mnkl rho_kl

with the relaxation tensor assembled from half-range bath-correlation rates

    R_mnkl = Gp[l,n,m,k] + Gm[l,n,m,k]
             - delta_nl * sum_a Gp[m,a,a,k]
             - delta_mk * sum_a Gm[l,a,a,n]

    Gp[l,n,m,k] = 1/2 sz_ln sz_mk rate[k,m],   Gm[l,n,m,k] = 1/2 sz_ln sz_mk rate[l,n]

where rate[a,b] is piecewise in the sign of the transition frequency w_ab:
emission carries J(w)(1+n(w)), absorption J(w)n(w), and the zero-frequency
rates vanish (sigma_z is purely off-diagonal here and J(0) = 0 in every bath
model).  The 2x2 rate table is evaluated once per transition, Gp and Gm are
(2,2,2,2) arrays built from it, and R follows from them by array operations,
the delta sums going in by indexing.  The rates as written are purely real:
principal-value (Lamb-shift) parts of the correlation integrals are already
dropped, and no secular approximation is made, so the rho12 <-> rho21
coupling is kept.

Propagation is fixed-step RK4 on d y/dt = L y: the B stacked powers of the RK4
stride map, one (4B, 4) matrix, advance a block of B samples per matrix-vector
product.  They are built for K generators at once, one set-up per sweep stack,
and one block recurrence advances any such stack: a (K, 4B, 4) x (K, 4, 1)
product per block of B.  Every read of a trajectory walks the same windows,
their length decided by read_window alone: a grid of at most SAMPLE_BLOCK
samples is one window, a longer one is read SAMPLE_BLOCK // 4 samples at a
time.  The recurrence fills one window of K generators at a time, and
replay_stack runs it for a group of generators whose grids fit one window.
From one generator's powers and rho(0) the samples are a replayed
trajectory, the recurrence's K = 1 case: blocks() runs it again each time
they are read, a window at a time, so they are not stored unless data
materializes them, once.  Its times are a TimeGrid, np.arange(lo, hi) *
stride for each window read, so the grid is not built unless times
materializes it, once.  A TimeGrid is also the checked grid, the one owner of
its rules and of its step h: propagate_numeric takes one, built by its
caller, and check_step and the stride powers read the grid's h from it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .bath import BathModel, bose_occupation, spectral_density
from .system import DensityMatrix, EigenSystem

# Accuracy/stability guard for the fixed-step integrator.
_MAX_STEP_PRODUCT = 0.1
_POWER_BLOCK = 64
# samples in a window, a multiple of _POWER_BLOCK: every read of a trajectory walks one
# window at a time, and a window holds one point of a short grid or a group of them
SAMPLE_BLOCK = 1 << 13
# samples in each window of a grid longer than SAMPLE_BLOCK, also a multiple of _POWER_BLOCK
_LONG_WINDOW = SAMPLE_BLOCK // 4
# the longest float64 array np.arange and np.linspace accept: probed near 2**60 with
# numpy 2.4.6, both refuse 2**60 - 64 on with an unnamed "array is too big"
MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(float).itemsize - 64


class StepSizeError(ValueError):
    """Raised when the requested fixed step violates the accuracy guard."""


@dataclass(frozen=True, eq=False)
class RedfieldTensor:
    """Relaxation tensor R_mnkl, real, units ps^-1 (0-based storage)."""

    r: np.ndarray  # shape (2, 2, 2, 2)

    def element(self, mu: int, nu: int, kappa: int, lam: int) -> float:
        """Entry R_{mu nu kappa lambda} with 1-based level labels."""
        return float(self.r[mu - 1, nu - 1, kappa - 1, lam - 1])

    @property
    def chi_effective(self) -> float:
        """Coherence decay rate |R_1212|."""
        return abs(float(self.r[0, 1, 0, 1]))


class TimeGrid:
    """A checked time grid: t = 0 and every store_every-th of n_steps steps of h = t_end/n_steps.

    The one owner of a grid's rules and of its step h: the constructor
    refuses a grid no array or float can hold, by name.  Its n_samples times
    np.arange(n_samples) * stride are computed where they are read: indexed
    by a slice, an integer or an integer array, it gives those integers times
    stride, the values grid[:] builds bit for bit, without building the grid.
    An index is read as the built array reads it: a negative one counts from
    the end, one outside [-n_samples, n_samples) is an IndexError, a boolean
    mask of n_samples selects, and any other index is an IndexError.
    """

    __slots__ = ("t_end", "n_steps", "store_every", "h", "n_samples", "stride")

    def __init__(self, t_end: float, n_steps: int, store_every: int = 1) -> None:
        for name, count in (("n_steps", n_steps), ("store_every", store_every)):
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        if not t_end > 0:
            raise ValueError(f"t_end must be positive, got {t_end}")
        if store_every < 1 or n_steps % store_every != 0:
            raise ValueError(
                f"store_every must be >= 1 and divide n_steps, got {store_every} for {n_steps}"
            )
        try:
            h = t_end / n_steps
        except OverflowError:  # an integer beyond the float range
            raise ValueError("n_steps is beyond the float range") from None
        if not h > 0:
            raise ValueError(f"the step t_end/n_steps underflows to 0 for t_end={t_end!r}")
        n_stored, stride = n_steps // store_every, store_every * h
        if not math.isfinite(n_stored * stride):
            raise ValueError(f"the last sample time overflows to inf for t_end={t_end!r}")
        if n_stored >= MAX_FLOATS:  # np.arange(2**63) would be silently empty
            raise ValueError(
                f"n_steps/store_every={n_stored} is more samples than an array can hold"
            )
        self.t_end, self.n_steps, self.store_every = t_end, n_steps, store_every
        self.h, self.n_samples, self.stride = h, n_stored + 1, stride

    def __len__(self) -> int:
        return self.n_samples

    def __getitem__(self, index) -> np.ndarray:
        if isinstance(index, slice):
            return np.arange(*index.indices(self.n_samples)) * self.stride
        index = np.asarray(index)
        if index.dtype == bool and index.shape == (self.n_samples,):
            index = np.flatnonzero(index)
        if index.dtype.kind not in "iu":  # a float, or a mask of another length
            raise IndexError(f"a grid of {self.n_samples} is indexed by integers or a mask "
                             f"as long, got {index.dtype} of shape {index.shape}")
        if index.size:  # in range, wrapped as a built array wraps it
            if not -self.n_samples <= index.min() <= index.max() < self.n_samples:
                raise IndexError(f"an index is out of range for a grid of {self.n_samples}")
            index = np.mod(index, self.n_samples)
        return index * self.stride


def check_grid(grid, optional: bool = True) -> None:
    """The one owner of the rule that a grid is a TimeGrid (or None, where optional)."""
    if not (isinstance(grid, TimeGrid) or optional and grid is None):
        accepted = "a TimeGrid or None" if optional else "a TimeGrid"
        raise ValueError(f"grid must be {accepted}, got {type(grid).__name__}")


class Trajectory:
    """Sample times plus density-matrix samples (vector order rho11,12,21,22), (N, 4).

    blocks() walks the samples in order: it slices a stored array or reruns a
    replay's source.  time_blocks() walks their times alike and times_at()
    reads single times, so a replay on a TimeGrid never builds its grid.
    times and data, and every accessor built on data, read whole arrays; a
    replay materializes each once, on first access, and keeps it read-only.
    """

    def __init__(self, times: np.ndarray, data: np.ndarray) -> None:
        times, data = np.asarray(times, dtype=float), np.asarray(data)
        if times.ndim != 1:
            raise ValueError(f"times must be a 1-d array, got {times.ndim} dimensions")
        if len(times) == 0:
            raise ValueError("trajectory must be non-empty")
        if data.shape != (len(times), 4):
            raise ValueError(f"data must have shape (len(times), 4), got {data.shape}")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("times must be strictly increasing")
        self._times, self._data, self._source = times, data, None

    @classmethod
    def replay(cls, times, source: Callable[[int], Iterator[np.ndarray]]) -> Trajectory:
        """Samples that source(every) computes on each blocks(every), at times already checked.

        times is a TimeGrid, kept as it is, or an array checked as __init__
        checks one.
        """
        traj = cls.__new__(cls)
        traj._times, traj._data, traj._source = times, None, source
        return traj

    def __len__(self) -> int:
        return len(self._times)

    def blocks(self, every: int = 1) -> Iterator[np.ndarray]:
        """The every-th samples of each window (read_window), in order.

        A block is valid until the next one is drawn: a replay refills one
        window.
        """
        _check_every(every)
        if self._source is None:
            return (self._data[kept] for kept in sample_windows(len(self), every))
        return self._source(every)

    def time_blocks(self, every: int = 1) -> Iterator[np.ndarray]:
        """The times of the samples blocks(every) yields, block by block."""
        _check_every(every)
        return (self._times[kept] for kept in sample_windows(len(self), every))

    def times_at(self, index: np.ndarray) -> np.ndarray:
        """The times of the samples at an index, an integer array or a mask, as times[index]."""
        return self._times[index]

    @property
    def times(self) -> np.ndarray:
        if isinstance(self._times, TimeGrid):
            times = self._times[:]
            times.setflags(write=False)
            self._times = times
        return self._times

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            data = np.empty((len(self), 4), dtype=complex)
            for window, block in zip(sample_windows(len(self), 1), self.blocks()):
                data[window] = block
            data.setflags(write=False)
            self._data = data
        return self._data

    def state(self, i: int) -> DensityMatrix:
        return DensityMatrix.from_vector(self.data[i])

    @property
    def states(self):
        return [DensityMatrix.from_vector(row) for row in self.data]

    @property
    def rho11(self) -> np.ndarray:
        return self.data[:, 0].real

    @property
    def rho22(self) -> np.ndarray:
        return self.data[:, 3].real

    @property
    def rho12(self) -> np.ndarray:
        return self.data[:, 1]

    @property
    def abs_rho12(self) -> np.ndarray:
        return np.abs(self.data[:, 1])


def _check_every(every: int) -> None:
    if isinstance(every, bool) or not isinstance(every, numbers.Integral):
        raise ValueError(f"every must be an integer, got {every!r}")
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")


def read_window(n_samples: int) -> int:
    """The samples in each window a read of an n_samples grid walks, the first at sample 0.

    A grid of at most SAMPLE_BLOCK samples is one window; a longer one is
    read _LONG_WINDOW samples at a time, so what a read holds stays small
    however long the grid.  Every buffer a read fills is sized from this.
    """
    return SAMPLE_BLOCK if n_samples <= SAMPLE_BLOCK else _LONG_WINDOW


def sample_windows(n_samples: int, every: int) -> Iterator[slice]:
    """The every-th samples of each window of read_window, as slices of the whole grid."""
    size = read_window(n_samples)
    for lo in range(0, n_samples, size):
        yield slice(lo + (-lo) % every, lo + size, every)


def _rate(eig: EigenSystem, bath: BathModel, temperature: float, a: int, b: int) -> float:
    """Common piecewise factor: J(w_ab)(1+n) if w_ab > 0, J(w_ba)n if w_ba > 0, else 0."""
    w = eig.omega(a, b)
    if w > 0:
        return spectral_density(bath, w) * (1.0 + bose_occupation(w, temperature))
    if w < 0:
        return spectral_density(bath, -w) * bose_occupation(-w, temperature)
    return 0.0


def _gammas(
    eig: EigenSystem, bath: BathModel, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gp and Gm as (2,2,2,2) arrays indexed [lam, nu, mu, kappa], 0-based.

    A tuple whose sigma_z product is 0 is exactly 0 without reading its rate,
    which may have overflowed to inf (0 * inf would be NaN).
    """
    # rate[a, b], 0-based; the zero-frequency diagonal vanishes
    rate = np.array(
        [[0.0, _rate(eig, bath, temperature, 1, 2)], [_rate(eig, bath, temperature, 2, 1), 0.0]]
    )
    szfac = np.multiply.outer(eig.sz_elements, eig.sz_elements)
    live = szfac != 0.0
    half = 0.5 * szfac
    gp = np.multiply(half, rate.T, out=np.zeros_like(half), where=live)  # rate[kappa, mu]
    gm = np.multiply(half, rate[:, :, None, None], out=np.zeros_like(half), where=live)
    return gp, gm


def gamma_plus(
    eig: EigenSystem, bath: BathModel, temperature: float, lam: int, nu: int, mu: int, kappa: int
) -> float:
    """Gp[lam, nu, mu, kappa]; frequency argument taken from the (mu, kappa) pair."""
    return float(_gammas(eig, bath, temperature)[0][lam - 1, nu - 1, mu - 1, kappa - 1])


def gamma_minus(
    eig: EigenSystem, bath: BathModel, temperature: float, lam: int, nu: int, mu: int, kappa: int
) -> float:
    """Gm[lam, nu, mu, kappa]; frequency argument taken from the (lam, nu) pair."""
    return float(_gammas(eig, bath, temperature)[1][lam - 1, nu - 1, mu - 1, kappa - 1])


def build_tensor(eig: EigenSystem, bath: BathModel, temperature: float) -> RedfieldTensor:
    """All 16 tensor entries from the Gp/Gm arrays of one rate table."""
    gp, gm = _gammas(eig, bath, temperature)
    r = (gp + gm).transpose(2, 1, 3, 0).copy()  # [lam,nu,mu,kappa] -> [mu,nu,kappa,lam]
    level = np.arange(2)
    r[:, level, :, level] -= np.trace(gp, axis1=1, axis2=2)  # nu = lam: sum_a Gp[mu,a,a,kappa]
    r[level, :, level, :] -= np.trace(gm, axis1=1, axis2=2).T  # mu = kappa: sum_a Gm[lam,a,a,nu]
    r.setflags(write=False)
    return RedfieldTensor(r=r)


def liouvillian(tensor: RedfieldTensor, eig: EigenSystem) -> np.ndarray:
    """4x4 generator L of the flattened master equation, d y/dt = L y.

    Vector order (rho11, rho12, rho21, rho22); the diagonal carries the
    coherent phases -i*w_mn, the rest is the relaxation tensor.
    """
    w = eig.omega_21  # w_12 = -w_21, w_11 = w_22 = 0
    return tensor.r.reshape(4, 4) + np.diag([0.0, 1j * w, -1j * w, 0.0])


def check_step(tensor: RedfieldTensor, eig: EigenSystem, grid: TimeGrid) -> None:
    """StepSizeError unless the grid's step h gives h*max(omega_21, 2*|R_1212|) <= 0.1.

    The message names the least n_steps that passes, or, when that count is
    not finite or reaches MAX_FLOATS (more samples than a grid holds at
    store_every = 1), says that t_end must shrink instead.
    """
    h = grid.h
    scale = max(eig.omega_21, 2.0 * tensor.chi_effective)
    if h * scale > _MAX_STEP_PRODUCT * (1.0 + 1e-9):
        n_min = grid.t_end * scale / _MAX_STEP_PRODUCT  # inf when beyond the float range
        if n_min < MAX_FLOATS:
            advice = f"increase n_steps to at least {math.ceil(n_min)}"
        else:
            advice = (
                f"no admissible n_steps meets the guard (it needs at least {n_min:.6g} steps, "
                f"and a grid holds fewer than {MAX_FLOATS}): t_end must shrink"
            )
        raise StepSizeError(
            f"step h={h:.6g} ps gives h*max(omega_21, 2*chi)={h * scale:.6g} > "
            f"{_MAX_STEP_PRODUCT}; {advice}"
        )


def stride_powers(L: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Powers 1..min(64, len(grid) - 1) of the RK4 stride on grid of L (K, 4, 4): (K, B, 4, 4).

    One classical RK4 step of d y/dt = L y is a matrix: textbook RK4 applied
    to the identity columns gives the exact one-step map of the method for
    this linear, autonomous system, and the stride is grid.store_every of them.
    """
    h, eye = grid.h, np.eye(L.shape[-1], dtype=complex)
    k1 = L @ eye
    k2 = L @ (eye + 0.5 * h * k1)
    k3 = L @ (eye + 0.5 * h * k2)
    k4 = L @ (eye + h * k3)
    step = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    stride = np.linalg.matrix_power(step, grid.store_every)
    powers = np.empty((len(L), min(_POWER_BLOCK, len(grid) - 1), 4, 4), dtype=complex)
    powers[:, 0] = stride
    for j in range(1, powers.shape[1]):
        np.matmul(powers[:, j - 1], stride, out=powers[:, j])
    return powers


def replay_powers(powers: np.ndarray, rho0: DensityMatrix, grid: TimeGrid) -> Trajectory:
    """The samples on grid, a TimeGrid kept unbuilt, from one generator's stride powers on it.

    powers is (B, 4, 4); the samples are replayed when read.
    """
    stack, y0, n_stored = powers[None], rho0.as_vector(), len(grid) - 1

    def blocks(every: int) -> Iterator[np.ndarray]:
        for block in _rk4_blocks(stack, y0, n_stored, every):
            yield block[0]

    return Trajectory.replay(grid, blocks)


def replay_stack(powers: np.ndarray, rho0: DensityMatrix, out: np.ndarray) -> np.ndarray:
    """Every sample of K generators' stride powers (K, B, 4, 4), computed in the window out.

    out is C-contiguous, (K, N, 4) with N <= SAMPLE_BLOCK: the recurrence
    fills it in place.  Sample rows out[k] are replay_powers' samples for
    powers[k], bit for bit.
    """
    (samples,) = _rk4_blocks(powers, rho0.as_vector(), out.shape[1] - 1, 1, out)
    return samples


def _rk4_blocks(
    powers: np.ndarray,
    rho0: np.ndarray,
    n_stored: int,
    every: int,
    window: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """The every-th samples of K RK4 block recurrences, (K, kept, 4) per window of read_window.

    Sample Bj + i (i = 1..B) of generator k is its stride power i applied to
    its sample Bj: one (K, 4B, 4) x (K, 4, 1) product per block of B advances
    all K generators, and as every window starts a block the blocks chain
    across windows.  Row r of the window buffer, (K, min(size, n_stored) + 1,
    4) for a window of size samples unless given, is sample base + r; its
    last row, the first sample of the next window, is never yielded and is
    carried into row 0, so a reader may overwrite the blocks it is given.
    """
    stack, block = powers.shape[:2]
    # a view for C-contiguous powers: row 4j+r of rows[k] is row r of power j of generator k
    rows = powers.reshape(stack, -1, 4)
    size = read_window(n_stored + 1)
    if window is None:
        window = np.empty((stack, min(size, n_stored) + 1, 4), dtype=complex)
    # columns[:, r] is sample base + r as a (4, 1) column, a product's operand; rows
    # 4r..4r+3 of products are the same sample, a product's output
    columns, products = window.reshape(stack, -1, 4, 1), window.reshape(stack, -1, 1)
    window[:, 0] = rho0
    for base in range(0, n_stored + 1, size):
        if base:
            window[:, 0] = window[:, size]
        filled = min(size, n_stored - base)
        for r in range(0, filled, block):
            take = min(block, filled - r)
            np.matmul(rows if take == block else rows[:, : 4 * take], columns[:, r],
                      out=products[:, 4 * r + 4 : 4 * (r + take) + 4])
        yield window[:, (-base) % every : min(filled + 1, size) : every]


def propagate_numeric(
    tensor: RedfieldTensor, eig: EigenSystem, rho0: DensityMatrix, grid: TimeGrid
) -> Trajectory:
    """Fixed-step RK4 integration of the master equation on a checked grid, a TimeGrid.

    Samples every grid.store_every-th step of grid.h (plus t = 0), at the
    grid's times; the step must pass check_step.  A stack of one, returned as
    replay_powers' replay on the grid, which is not built: sweeps stack the
    stride powers of many points.
    """
    check_grid(grid, optional=False)
    check_step(tensor, eig, grid)
    powers = stride_powers(liouvillian(tensor, eig)[None], grid)
    return replay_powers(powers[0], rho0, grid)
