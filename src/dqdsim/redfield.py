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

Propagation is fixed-step RK4 on d y/dt = L y: stacked powers of the RK4
stride map advance a trajectory a block of samples per matmul.  They are built
for K generators at once, so a sweep pays that set-up once per stack.
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
    """One classical RK4 step of d y/dt = L y, as a matrix, for a stack of L.

    Applying textbook RK4 to the identity columns gives the exact one-step
    map of the method for this linear, autonomous system; advancing n steps
    is then n applications of this fixed matrix.  L has shape (K, 4, 4).
    """
    eye = np.eye(L.shape[-1], dtype=complex)
    k1 = L @ eye
    k2 = L @ (eye + 0.5 * h * k1)
    k3 = L @ (eye + 0.5 * h * k2)
    k4 = L @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def check_step(tensor: RedfieldTensor, eig: EigenSystem, t_end: float, n_steps: int) -> None:
    """StepSizeError, naming the least n_steps, unless h*max(omega_21, 2*|R_1212|) <= 0.1."""
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


def stride_powers(L: np.ndarray, h: float, store_every: int, n_stored: int) -> np.ndarray:
    """RK4 stride powers 1..min(64, n_stored) of K generators L (K, 4, 4): (K, B, 4, 4)."""
    stride = np.linalg.matrix_power(_rk4_step_matrix(L, h), store_every)
    powers = np.empty((len(L), min(_POWER_BLOCK, n_stored), 4, 4), dtype=complex)
    powers[:, 0] = stride
    for j in range(1, powers.shape[1]):
        np.matmul(powers[:, j - 1], stride, out=powers[:, j])
    return powers


def propagate_powers(powers: np.ndarray, rho0: DensityMatrix, times: np.ndarray) -> Trajectory:
    """The stored samples on a time_grid, from one generator's stride powers (B, 4, 4)."""
    n_stored, block = len(times) - 1, len(powers)
    data = np.empty((n_stored + 1, 4), dtype=complex)
    data[0] = rho0.as_vector()
    for filled in range(0, n_stored, block):
        take = min(block, n_stored - filled)
        np.matmul(powers[:take], data[filled], out=data[filled + 1 : filled + 1 + take])
    data.setflags(write=False)
    return Trajectory(times=times, data=data)


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
    n_steps.  The step must pass check_step.  A stack of one: sweeps stack
    the stride powers of many points and propagate each with propagate_powers.
    """
    times = time_grid(t_end, n_steps, store_every)
    check_step(tensor, eig, t_end, n_steps)
    L = liouvillian(tensor, eig)[None]
    powers = stride_powers(L, t_end / n_steps, store_every, len(times) - 1)
    return propagate_powers(powers[0], rho0, times)
