"""Redfield relaxation tensor and fixed-step numerical propagation.

The master equation for the reduced density matrix in the eigenbasis is

    d rho_mn / dt = -i w_mn rho_mn + sum_kl R_mnkl rho_kl

with the relaxation tensor assembled from half-range bath-correlation rates

    R_mnkl = Gp[l,n,m,k] + Gm[l,n,m,k]
             - delta_nl * sum_a Gp[m,a,a,k]
             - delta_mk * sum_a Gm[l,a,a,n]

where the Gp/Gm rates are piecewise in the sign of the transition frequency:
emission carries J(w)(1+n(w)), absorption J(w)n(w), and the zero-frequency
rates vanish (sigma_z is purely off-diagonal here and J(0) = 0 in every bath
model).  The rates as written are purely real: principal-value (Lamb-shift)
parts of the correlation integrals are already dropped, and no secular
approximation is made, so the rho12 <-> rho21 coupling is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import BathModel, bose_occupation, spectral_density
from .system import DensityMatrix, EigenSystem

# Accuracy/stability guard for the fixed-step integrator.
_MAX_STEP_PRODUCT = 0.1
_POWER_BLOCK = 64


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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid plus density-matrix samples (vector order rho11,12,21,22)."""

    times: np.ndarray  # (N,), ps, strictly increasing
    data: np.ndarray  # (N, 4), complex

    def __post_init__(self) -> None:
        if len(self.times) == 0:
            raise ValueError("trajectory must be non-empty")
        if len(self.times) != len(self.data):
            raise ValueError("times and data lengths differ")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> DensityMatrix:
        return DensityMatrix.from_vector(self.data[i])

    @property
    def states(self):
        return [self.state(i) for i in range(len(self))]

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


def _rate(eig: EigenSystem, bath: BathModel, temperature: float, a: int, b: int) -> float:
    """Common piecewise factor: J(w_ab)(1+n) if w_ab > 0, J(w_ba)n if w_ba > 0, else 0."""
    w = eig.omega(a, b)
    if w > 0:
        return spectral_density(bath, w) * (1.0 + bose_occupation(w, temperature))
    if w < 0:
        return spectral_density(bath, -w) * bose_occupation(-w, temperature)
    return 0.0


def gamma_plus(
    eig: EigenSystem,
    bath: BathModel,
    temperature: float,
    lam: int,
    nu: int,
    mu: int,
    kappa: int,
) -> float:
    """Gp[lam, nu, mu, kappa]; frequency argument taken from the (mu, kappa) pair."""
    szfac = eig.sz(lam, nu) * eig.sz(mu, kappa)
    if szfac == 0.0:
        return 0.0
    return 0.5 * szfac * _rate(eig, bath, temperature, kappa, mu)


def gamma_minus(
    eig: EigenSystem,
    bath: BathModel,
    temperature: float,
    lam: int,
    nu: int,
    mu: int,
    kappa: int,
) -> float:
    """Gm[lam, nu, mu, kappa]; frequency argument taken from the (lam, nu) pair."""
    szfac = eig.sz(lam, nu) * eig.sz(mu, kappa)
    if szfac == 0.0:
        return 0.0
    return 0.5 * szfac * _rate(eig, bath, temperature, lam, nu)


def build_tensor(eig: EigenSystem, bath: BathModel, temperature: float) -> RedfieldTensor:
    """Assemble all 16 tensor entries, summing the delta terms over both levels."""
    r = np.zeros((2, 2, 2, 2))
    for mu in (1, 2):
        for nu in (1, 2):
            for kappa in (1, 2):
                for lam in (1, 2):
                    val = gamma_plus(eig, bath, temperature, lam, nu, mu, kappa)
                    val += gamma_minus(eig, bath, temperature, lam, nu, mu, kappa)
                    if nu == lam:
                        val -= sum(
                            gamma_plus(eig, bath, temperature, mu, a, a, kappa) for a in (1, 2)
                        )
                    if mu == kappa:
                        val -= sum(
                            gamma_minus(eig, bath, temperature, lam, a, a, nu) for a in (1, 2)
                        )
                    r[mu - 1, nu - 1, kappa - 1, lam - 1] = val
    r.setflags(write=False)
    return RedfieldTensor(r=r)


def liouvillian(tensor: RedfieldTensor, eig: EigenSystem) -> np.ndarray:
    """4x4 generator L of the flattened master equation, d y/dt = L y.

    Vector order (rho11, rho12, rho21, rho22); the diagonal carries the
    coherent phases -i*w_mn, the rest is the relaxation tensor.
    """
    L = np.zeros((4, 4), dtype=complex)
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for i, (mu, nu) in enumerate(pairs):
        L[i, i] = -1j * eig.omega(mu, nu)
        for j, (kappa, lam) in enumerate(pairs):
            L[i, j] += tensor.element(mu, nu, kappa, lam)
    return L


def time_grid(t_end: float, n_steps: int, store_every: int = 1) -> np.ndarray:
    """Sample times of a stored trajectory: every store_every-th step plus 0.

    Shared by the numerical propagator and the closed-form evaluator so that
    cross-engine comparisons run on bit-identical grids.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if store_every < 1 or n_steps % store_every != 0:
        raise ValueError(
            f"store_every must be >= 1 and divide n_steps, got {store_every} for {n_steps}"
        )
    h = t_end / n_steps
    if not h > 0:
        raise ValueError(f"the step t_end/n_steps underflows to 0 for t_end={t_end!r}")
    times = np.arange(n_steps // store_every + 1) * (store_every * h)
    times.setflags(write=False)
    return times


def _rk4_step_matrix(L: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of d y/dt = L y, as a matrix.

    Applying textbook RK4 to the identity columns gives the exact one-step
    map of the method for this linear, autonomous system; advancing n steps
    is then n applications of this fixed matrix.
    """
    eye = np.eye(L.shape[0], dtype=complex)
    k1 = L @ eye
    k2 = L @ (eye + 0.5 * h * k1)
    k3 = L @ (eye + 0.5 * h * k2)
    k4 = L @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate_numeric(
    tensor: RedfieldTensor,
    eig: EigenSystem,
    rho0: DensityMatrix,
    t_end: float,
    n_steps: int,
    store_every: int = 1,
) -> Trajectory:
    """Fixed-step RK4 integration of the master equation.

    Samples every store_every-th step (plus t = 0); store_every must divide
    n_steps.  The step must satisfy h * max(omega_21, 2*|R_1212|) <= 0.1,
    otherwise a StepSizeError names the minimum admissible n_steps.
    """
    times = time_grid(t_end, n_steps, store_every)
    h = t_end / n_steps
    scale = max(eig.omega_21, 2.0 * tensor.chi_effective)
    if h * scale > _MAX_STEP_PRODUCT * (1.0 + 1e-9):
        n_min = t_end * scale / _MAX_STEP_PRODUCT  # inf when beyond the float range
        if math.isfinite(n_min):
            n_min = math.ceil(n_min)
        raise StepSizeError(
            f"step h={h:.6g} ps gives h*max(omega_21, 2*chi)={h * scale:.6g} > "
            f"{_MAX_STEP_PRODUCT}; increase n_steps to at least {n_min}"
        )

    L = liouvillian(tensor, eig)
    step = _rk4_step_matrix(L, h)
    stride = np.linalg.matrix_power(step, store_every)

    # stacked powers stride^1..stride^B advance a whole block per matmul
    n_stored = n_steps // store_every
    block = min(_POWER_BLOCK, n_stored)
    powers = np.empty((block, 4, 4), dtype=complex)
    powers[0] = stride
    for j in range(1, block):
        powers[j] = powers[j - 1] @ stride

    data = np.empty((n_stored + 1, 4), dtype=complex)
    y = rho0.as_vector()
    data[0] = y
    filled = 0
    while filled < n_stored:
        take = min(block, n_stored - filled)
        vals = powers[:take] @ y
        data[filled + 1 : filled + 1 + take] = vals
        y = vals[-1]
        filled += take

    data.setflags(write=False)
    return Trajectory(times=times, data=data)
