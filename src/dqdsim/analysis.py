"""The per-point pipeline, decoherence-time extraction and parameter sweeps.

A point is prepared (chi, grid, step guard), its RK4 powers built in a stack
of points, then it is finished (trajectories); evaluate_point is a stack of one.

The decoherence time is defined as the 1/e time of the |rho12| envelope,
T2 = 1/chi.  The empirical extractor recovers it from a sampled trajectory:
in the underdamped regime by a log-linear fit through the local maxima of
|rho12| (the maxima decay exactly geometrically, one per half period), in the
overdamped regime by the first crossing below e^-1/2.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analytic import ChiRate, chi_rate, closed_form_trajectory
from .bath import BATH_KINDS, BathModel, OhmicBath
from .redfield import Trajectory, build_tensor, check_step, liouvillian
from .redfield import propagate_powers, stride_powers, time_grid
from .system import EigenSystem, QubitParams, diagonalize, initial_state

_DECAY_THRESHOLD = 0.5 * math.exp(-1.0)
# required drop of the maxima envelope before a fit is trusted
_MIN_DECAY_RATIO = 0.9

ENGINES = ("closed_form", "numeric", "both")
SWEPT_PARAMETERS = ("omega_l", "eta", "temperature")

# default interdot-tunneling binding T_c = 0.1 * omega_l
TC_BINDING = 0.1

# sweep points whose RK4 powers are built together, 16 KiB each
_STACK_POINTS = 16


class NoDecoherenceError(ValueError):
    """The coherence never decays (chi = 0); no decoherence time exists."""


class TrajectoryTooShortError(ValueError):
    """The trajectory does not span enough decay to extract a time constant."""


class NonFiniteResultError(ValueError):
    """A computed result is NaN or infinite; the message names the field."""


class SweepError(RuntimeError):
    """A sweep point failed; carries the partial results gathered so far."""

    def __init__(self, message: str, partial: "SweepResult", value: float, cause: Exception):
        super().__init__(message)
        self.partial = partial
        self.value = value
        self.cause = cause


def decoherence_time_analytic(rate: ChiRate) -> float:
    """1/e time of the coherence envelope: T2 = 1/chi."""
    if rate.chi == 0:
        raise NoDecoherenceError("chi = 0: coherence never decays")
    return 1.0 / rate.chi


def equilibrium_populations(n_occ: float) -> tuple[float, float]:
    """Long-time populations ((1+n)/(1+2n), n/(1+2n)); sums to 1 exactly."""
    if not n_occ >= 0:
        raise ValueError(f"n_occ must be >= 0, got {n_occ}")
    p_lower = (1.0 + n_occ) / (1.0 + 2.0 * n_occ)
    return p_lower, 1.0 - p_lower


def _refined_maxima(times: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strict 3-point local maxima, refined by quadratic interpolation."""
    interior = (amps[1:-1] > amps[:-2]) & (amps[1:-1] > amps[2:])
    idx = np.nonzero(interior)[0] + 1
    if len(idx) == 0:
        return np.empty(0), np.empty(0)
    left, mid, right = amps[idx - 1], amps[idx], amps[idx + 1]
    denom = left - 2.0 * mid + right
    safe = denom < 0
    shift = np.zeros_like(mid)
    peak = mid.copy()
    dt = times[idx + 1] - times[idx]
    shift[safe] = 0.5 * (left[safe] - right[safe]) / denom[safe]
    peak[safe] = mid[safe] - 0.125 * (left[safe] - right[safe]) ** 2 / denom[safe]
    return times[idx] + shift * dt, peak


def _stationary_samples(times: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Samples where |rho12| is momentarily flat.

    For the coherent initial state |rho12| decays monotonically with a
    stationary inflection every half period, and those flat spots sit exactly
    on the e^{-chi t}/2 envelope; they are found as strict local minima of
    the central-difference slope magnitude (which also catches genuine local
    maxima, where the slope crosses zero).
    """
    if len(amps) < 7:
        return np.empty(0), np.empty(0)
    slope = np.abs(amps[2:] - amps[:-2])  # centered at index i+1
    interior = (slope[1:-1] < slope[:-2]) & (slope[1:-1] < slope[2:])
    idx = np.nonzero(interior)[0] + 2
    return times[idx], amps[idx]


def decoherence_time_empirical(traj: Trajectory) -> float:
    """Extract T2 from the decay of |rho12| along a sampled trajectory.

    Tries, in order: a log-linear fit through refined local maxima of
    |rho12|; the same fit through its stationary (zero-slope) samples, which
    is what a monotonically modulated decay offers; the first crossing below
    e^-1/2 (overdamped).  Each fit needs >= 3 samples whose envelope has
    dropped by at least 10%.
    """
    times = traj.times
    amps = traj.abs_rho12

    for detect in (_refined_maxima, _stationary_samples):
        t_s, a_s = detect(times, amps)
        positive = a_s > 0
        t_s, a_s = t_s[positive], a_s[positive]
        if len(a_s) >= 3 and a_s[-1] < _MIN_DECAY_RATIO * a_s[0]:
            log_a = np.log(a_s)
            t_c = t_s - t_s.mean()
            slope = float(np.dot(t_c, log_a - log_a.mean()) / np.dot(t_c, t_c))
            if slope < 0:
                return -1.0 / slope

    below = amps < _DECAY_THRESHOLD
    if below[0]:
        raise ValueError("trajectory starts below the e^-1/2 threshold")
    if np.any(below):
        i = int(np.argmax(below))
        frac = (_DECAY_THRESHOLD - amps[i - 1]) / (amps[i] - amps[i - 1])
        return float(times[i - 1] + frac * (times[i] - times[i - 1]))

    t_s, a_s = _stationary_samples(times, amps)
    raise TrajectoryTooShortError(_too_short_message(times, t_s, a_s))


def _too_short_message(times: np.ndarray, t_peak: np.ndarray, a_peak: np.ndarray) -> str:
    span = float(times[-1] - times[0])
    if len(a_peak) >= 2 and a_peak[-1] < a_peak[0]:
        rate = math.log(a_peak[0] / a_peak[-1]) / float(t_peak[-1] - t_peak[0])
        suggestion = 5.0 / rate
        return (
            f"trajectory too short: envelope dropped only {a_peak[-1] / a_peak[0]:.3g}x "
            f"over {span:.6g} ps; extend t_end to at least {suggestion:.6g} ps"
        )
    return (
        f"trajectory too short: no decaying envelope detected over {span:.6g} ps; "
        f"extend t_end to at least {5.0 * span:.6g} ps or check that the coupling is nonzero"
    )


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: which knob moves, and everything held fixed.

    When sweeping omega_l the tunneling binding T_c = 0.1*omega_l is
    re-applied at every point; otherwise T_c comes from tunneling_Tc or, for
    the phonon baths, from the binding applied to the bath's omega_l.
    Trajectories are produced only when a time grid (t_end, n_steps) is set.
    """

    swept_parameter: str
    values: tuple[float, ...]
    base_bath: BathModel
    temperature: Optional[float] = None  # K; None only when sweeping temperature
    tunneling_Tc: Optional[float] = None
    t_end: Optional[float] = None
    n_steps: Optional[int] = None
    store_every: int = 1
    engine: str = "closed_form"

    def __post_init__(self) -> None:
        if not isinstance(self.base_bath, tuple(BATH_KINDS.values())):
            kind = type(self.base_bath).__name__
            raise ValueError(f"base_bath must be a bath model, got {kind}")
        ohmic = isinstance(self.base_bath, OhmicBath)
        if self.swept_parameter not in SWEPT_PARAMETERS:
            raise ValueError(f"swept_parameter must be one of {SWEPT_PARAMETERS}")
        if self.swept_parameter == "omega_l" and ohmic:
            raise ValueError("omega_l sweeps apply to the phonon baths only")
        if self.swept_parameter == "eta" and not ohmic:
            raise ValueError("eta sweeps apply to the Ohmic bath only")
        if self.swept_parameter == "omega_l" and self.tunneling_Tc is not None:
            raise ValueError("omega_l sweeps re-bind tunneling_Tc; leave it unset")
        if len(self.values) == 0:
            raise ValueError("values must be non-empty")
        if any(not v > 0 for v in self.values):
            raise ValueError("swept values must be positive")
        if len(self.values) > 1 and any(
            b <= a for a, b in zip(self.values, self.values[1:])
        ):
            raise ValueError("values must be strictly increasing")
        if self.swept_parameter == "temperature":
            if self.temperature is not None:
                raise ValueError("fixed temperature conflicts with a temperature sweep")
        elif self.temperature is None or not self.temperature > 0:
            raise ValueError("a positive fixed temperature is required")
        if ohmic and self.tunneling_Tc is None:
            raise ValueError("the Ohmic bath needs an explicit qubit (tunneling_Tc)")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if (self.t_end is None) != (self.n_steps is None):
            raise ValueError("t_end and n_steps must be given together")


@dataclass(frozen=True)
class SweepPoint:
    """Result row for a single swept value."""

    index: int
    parameter: str
    value: float
    omega_21: float
    temperature: float
    chi: float
    n_occ: float
    t2_analytic: float
    t2_empirical: Optional[float] = None
    max_abs_diff: Optional[float] = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    points: tuple[SweepPoint, ...]


@dataclass(frozen=True)
class PointEvaluation:
    """One parameter point before T2 extraction: eigensystem, rate, trajectories.

    Trajectories exist only when a time grid was given; max_abs_diff only
    with engine "both".
    """

    eig: EigenSystem
    rate: ChiRate
    closed: Optional[Trajectory] = None
    numeric: Optional[Trajectory] = None
    max_abs_diff: Optional[float] = None


def _require_finite(**fields) -> None:
    for name, value in fields.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise NonFiniteResultError(f"{name} is not finite")


@dataclass(frozen=True, eq=False)
class _Prepared:
    """A point up to its trajectories: chi checked, grid built, step guarded."""

    eig: EigenSystem
    rate: ChiRate
    temperature: float
    engine: str
    times: Optional[np.ndarray]
    generator: Optional[np.ndarray]  # the Liouvillian, numeric engines only


def _prepare(bath, temperature, tunneling_Tc, engine, t_end, n_steps, store_every, times=None):
    """First stage, on evaluate_point's arguments: all before the trajectories; reuses times."""
    eig = diagonalize(QubitParams(tunneling_Tc=tunneling_Tc))
    rate = chi_rate(eig, bath, temperature)
    _require_finite(chi=rate.chi, n_occ=rate.n_occ)
    generator = None
    if t_end is not None:
        times = time_grid(t_end, n_steps, store_every) if times is None else times
        if engine in ("numeric", "both"):
            tensor = build_tensor(eig, bath, temperature)
            check_step(tensor, eig, t_end, n_steps)
            generator = liouvillian(tensor, eig)
    return _Prepared(eig, rate, temperature, engine, times, generator)


def _stacked_powers(stack: list[_Prepared], t_end: float, n_steps: int, store_every: int):
    """The RK4 stride powers of the prepared points, built in one pass (None without L)."""
    if not stack or stack[0].generator is None:
        return [None] * len(stack)
    generators = np.stack([prep.generator for prep in stack])
    return stride_powers(generators, t_end / n_steps, store_every, len(stack[0].times) - 1)


def _finish(prep: _Prepared, powers: Optional[np.ndarray]) -> PointEvaluation:
    """Second stage of a point: the engines' trajectories on the grid, their discrepancy."""
    closed = numeric = max_abs_diff = None
    if prep.times is not None:
        if prep.engine in ("closed_form", "both"):
            closed = closed_form_trajectory(prep.rate, prep.times)
        if powers is not None:
            numeric = propagate_powers(powers, initial_state(), prep.times)
        if prep.engine == "both":
            max_abs_diff = float(np.max(np.abs(closed.data - numeric.data)))
        # a finite max_abs_diff implies that both trajectories are finite
        if max_abs_diff is None or not math.isfinite(max_abs_diff):
            _require_finite(
                closed_form_trajectory=None if closed is None else closed.data,
                numeric_trajectory=None if numeric is None else numeric.data,
                max_abs_diff=max_abs_diff,
            )
    return PointEvaluation(prep.eig, prep.rate, closed, numeric, max_abs_diff)


def evaluate_point(
    bath: BathModel,
    temperature: float,
    tunneling_Tc: float,
    engine: str,
    t_end: Optional[float] = None,
    n_steps: Optional[int] = None,
    store_every: int = 1,
) -> PointEvaluation:
    """The per-point pipeline: chi, then the engines' trajectories on the grid.

    A sweep's stages for one point, with a stack of one RK4 power set.
    Raises NonFiniteResultError when a result is NaN or infinite.
    """
    prep = _prepare(bath, temperature, tunneling_Tc, engine, t_end, n_steps, store_every)
    return _finish(prep, *_stacked_powers([prep], t_end, n_steps, store_every))


def decoherence_times(run: PointEvaluation) -> tuple[float, Optional[float]]:
    """(analytic T2, empirical T2 or None without trajectories); numeric preferred."""
    t2_analytic = decoherence_time_analytic(run.rate)
    traj = run.numeric if run.numeric is not None else run.closed
    t2_empirical = None if traj is None else decoherence_time_empirical(traj)
    _require_finite(t2_analytic=t2_analytic, t2_empirical=t2_empirical)
    return t2_analytic, t2_empirical


def _resolve_point(spec: SweepSpec, value: float) -> tuple[BathModel, float, float]:
    """Bath, temperature and tunneling for one swept value."""
    bath = spec.base_bath
    temperature = spec.temperature
    if spec.swept_parameter == "temperature":
        temperature = value
    else:
        bath = dataclasses.replace(bath, **{spec.swept_parameter: value})
    # an omega_l sweep leaves tunneling_Tc unset, so the binding follows omega_l
    tc = spec.tunneling_Tc if spec.tunneling_Tc is not None else TC_BINDING * bath.omega_l
    return bath, float(temperature), tc


def run_sweep(
    spec: SweepSpec, each: Optional[Callable[[SweepPoint, PointEvaluation], None]] = None
) -> SweepResult:
    """Evaluate every swept value in order on the calling thread.

    The grid is built once; points are prepared _STACK_POINTS at a time,
    their RK4 powers stacked, then finished in order.  each(point, run) gets
    each finished point with its full-resolution trajectories, dropped once
    it returns.  The first failing point aborts the sweep after the points
    before it reached each; the SweepError carries its value and those
    points.  Later points of its stack may be prepared but get no trajectory.
    An exception from each is not a point failure and propagates as it is.
    """
    points: list[SweepPoint] = []
    grid = (spec.t_end, spec.n_steps, spec.store_every)
    times = None
    for start in range(0, len(spec.values), _STACK_POINTS):
        stack, failure = [], None
        for i in range(start, min(start + _STACK_POINTS, len(spec.values))):
            try:
                bath, temperature, tc = _resolve_point(spec, spec.values[i])
                stack.append(_prepare(bath, temperature, tc, spec.engine, *grid, times))
            except Exception as exc:
                failure = (i, exc)
                break
            times = stack[-1].times
        for i, (prep, powers) in enumerate(zip(stack, _stacked_powers(stack, *grid)), start):
            try:
                run = _finish(prep, powers)
                t2s = decoherence_times(run)
            except Exception as exc:
                failure = (i, exc)
                break
            points.append(SweepPoint(i, spec.swept_parameter, spec.values[i], run.eig.omega_21,
                                     prep.temperature, run.rate.chi, run.rate.n_occ, *t2s,
                                     run.max_abs_diff))
            if each is not None:
                each(points[-1], run)
            del run  # so the next point is finished without this one's trajectories
        if failure is not None:
            value, exc = spec.values[failure[0]], failure[1]
            message = f"sweep failed at {spec.swept_parameter}={value}: {exc}"
            raise SweepError(message, SweepResult(spec, tuple(points)), value, exc) from exc
    return SweepResult(spec=spec, points=tuple(points))
