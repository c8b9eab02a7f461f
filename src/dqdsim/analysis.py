"""The per-point pipeline, decoherence-time extraction and parameter sweeps.

A time grid enters only as a checked TimeGrid, the grid of evaluate_point or
of a SweepSpec, built once by the caller, and every stage takes it whole: a
point is prepared on it (chi, step guard), its RK4 powers built in a stack of
points with the grid's h, then it is finished; evaluate_point is a stack of
one.  A finished point holds its trajectories as replays (the closed form on
the grid, the RK4 recurrence from its stride powers and rho(0)) that compute
their samples when read, on a TimeGrid that computes their times when read;
one pass over them, a window (read_window) at a time, decides finiteness,
folds the cross-engine discrepancy and gathers what T2 extraction reads of
|rho12| of the T2 source (a _DecayRecord), so a point holds nothing as long
as its grid.  On a grid of N <= SAMPLE_BLOCK samples a sweep replays the
numeric samples of a group of up to SAMPLE_BLOCK // N of its stack's points
in one batched recurrence, in one window it reuses, and each point's pass
reads its rows of that group; a longer grid's point replays its own.

The decoherence time is defined as the 1/e time of the |rho12| envelope,
T2 = 1/chi.  The empirical extractor recovers it from a sampled trajectory:
in the underdamped regime by a log-linear fit through the samples where
|rho12| is stationary (they sit on the e^{-chi t}/2 envelope, one per half
period), in the overdamped regime by the first crossing below e^-1/2.  Both
are found a window at a time, in the pass that reads the samples.
|rho12| never rises here: the coherence rows of the Liouvillian give
d|rho12|^2/dt = -4 chi (Im rho12)^2 <= 0 for every Hermitian state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .analytic import ChiRate, chi_rate, closed_form_trajectory
from .bath import BATH_KINDS, BathModel, OhmicBath
from .redfield import SAMPLE_BLOCK, TimeGrid, Trajectory, build_tensor, check_grid, check_step
from .redfield import liouvillian, read_window, replay_powers, replay_stack, stride_powers
from .system import EigenSystem, QubitParams, diagonalize, initial_state

_DECAY_THRESHOLD = 0.5 * math.exp(-1.0)
# required drop of the stationary-sample envelope before a fit is trusted
_MIN_DECAY_RATIO = 0.9
# samples a window carries into the next: a sample is stationary or not by its two neighbours
# on each side
_CARRY = 4

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

    def __init__(self, message: str, partial: "SweepResult", value: float):
        super().__init__(message)
        self.partial = partial
        self.value = value


def decoherence_time_analytic(rate: ChiRate) -> float:
    """1/e time of the coherence envelope: T2 = 1/chi."""
    if rate.chi == 0:
        raise NoDecoherenceError("chi = 0: coherence never decays")
    return 1.0 / rate.chi


def equilibrium_populations(n_occ: float) -> tuple[float, float]:
    """Long-time populations ((1+n)/(1+2n), n/(1+2n)), (1/2, 1/2) where 2n overflows; sum 1."""
    if not n_occ >= 0:
        raise ValueError(f"n_occ must be >= 0, got {n_occ}")
    if n_occ > np.finfo(float).max / 2.0:  # T -> inf, n up to inf
        return 0.5, 0.5
    p_lower = (1.0 + n_occ) / (1.0 + 2.0 * n_occ)
    return p_lower, 1.0 - p_lower


class _DecayRecord:
    """What T2 extraction reads of |rho12|, gathered from the samples a window at a time.

    |rho12| decays monotonically with a stationary inflection every half
    period, where Im rho12 = 0, and those flat spots sit exactly on the
    e^{-chi t}/2 envelope; they are found as strict local minima of the
    central-difference slope magnitude.  Whether sample i is one depends on
    samples i-2..i+2 only, so with the last _CARRY samples carried into the
    next window each window decides the samples it completes, as one pass
    over the whole array would.  Kept: the number of samples, the stationary
    samples' indices and |rho12| (a few per period), and the first sample
    below e^-1/2, as its index and |rho12| there and one sample before.
    """

    def __init__(self, n_samples: int) -> None:
        self._crossing = None  # (i, |rho12| at i - 1 or None for i = 0, |rho12| at i)
        self._index, self._amps = [], []
        self._seen = self._carried = 0
        self._window = np.empty(_CARRY + min(n_samples, read_window(n_samples)))

    def add(self, rho12: np.ndarray) -> None:
        """The next samples' rho12, at most read_window(n_samples) of them: one window."""
        held = self._carried
        window = self._window[: held + len(rho12)]
        amps = np.abs(rho12, out=window[held:])
        base = self._seen - held  # the index of window[0]
        if self._crossing is None:
            below = np.nonzero(amps < _DECAY_THRESHOLD)[0]
            if len(below):
                k = held + int(below[0])
                self._crossing = (base + k, window[k - 1] if k else None, window[k])
        slope = window[2:] - window[:-2]  # slope[j] is centred on window[j + 1]
        np.abs(slope, out=slope)
        index = np.nonzero((slope[1:-1] < slope[:-2]) & (slope[1:-1] < slope[2:]))[0] + 2
        self._index.append(index + base)
        self._amps.append(window[index])
        self._carried = min(_CARRY, len(window))
        self._window[: self._carried] = window[len(window) - self._carried :]
        self._seen += len(rho12)

    def t2(self, times_at: Callable[[np.ndarray], np.ndarray]) -> float:
        """decoherence_time_empirical's T2; times_at(index) gives the samples' times."""
        index, amps = np.empty(0, dtype=np.intp), np.empty(0)
        if self._index:
            index, amps = np.concatenate(self._index), np.concatenate(self._amps)
        positive = amps > 0
        t_s, a_s = times_at(index[positive]), amps[positive]
        if len(a_s) >= 3 and a_s[-1] < _MIN_DECAY_RATIO * a_s[0]:
            log_a = np.log(a_s)
            t_c = t_s - t_s.sum() / len(t_s)
            slope = float(np.dot(t_c, log_a - log_a.sum() / len(log_a)) / np.dot(t_c, t_c))
            if slope < 0:
                return -1.0 / slope

        if self._crossing is not None:
            i, before, at = self._crossing
            if i == 0:
                raise ValueError("trajectory starts below the e^-1/2 threshold")
            t_before, t_at = times_at(np.array([i - 1, i]))
            frac = (_DECAY_THRESHOLD - before) / (at - before)
            return float(t_before + frac * (t_at - t_before))

        if self._seen == 1:
            raise TrajectoryTooShortError("trajectory too short: a single sample spans no time")
        t_first, t_last = times_at(np.array([0, self._seen - 1]))
        raise TrajectoryTooShortError(_too_short_message(t_last - t_first, t_s, a_s))


def decoherence_time_empirical(traj: Trajectory) -> float:
    """Extract T2 from the decay of |rho12| along a sampled trajectory.

    A log-linear fit through the positive stationary samples of |rho12|,
    which needs >= 3 of them whose envelope has dropped by at least 10%;
    failing that, the first crossing below e^-1/2 (overdamped); failing
    that, TrajectoryTooShortError.  The samples are read a window at a time
    (a _DecayRecord), as in a point's pass.
    """
    decay = _DecayRecord(len(traj))
    for block in traj.blocks():
        decay.add(block[:, 1])
    return decay.t2(traj.times_at)


def _too_short_message(span: float, t_peak: np.ndarray, a_peak: np.ndarray) -> str:
    span = float(span)
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
    Trajectories are produced only when a time grid (a TimeGrid) is set.
    """

    swept_parameter: str
    values: tuple[float, ...]
    base_bath: BathModel
    temperature: Optional[float] = None  # K; None only when sweeping temperature
    tunneling_Tc: Optional[float] = None
    grid: Optional[TimeGrid] = None
    engine: str = "closed_form"

    def __post_init__(self) -> None:
        if not isinstance(self.base_bath, tuple(BATH_KINDS.values())):
            kind = type(self.base_bath).__name__
            raise ValueError(f"base_bath must be a bath model, got {kind}")
        check_grid(self.grid)
        ohmic = isinstance(self.base_bath, OhmicBath)
        if self.swept_parameter not in SWEPT_PARAMETERS:
            raise ValueError(
                f"swept_parameter must be one of {SWEPT_PARAMETERS}, got {self.swept_parameter!r}"
            )
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
        if self.swept_parameter == "omega_l":  # T_c is bound to each point's omega_l
            _check_engine(self.engine)
        else:
            check_point(self.base_bath, self.tunneling_Tc, self.engine)


def bound_tunneling(omega_l: float) -> float:
    """The interdot tunneling bound to omega_l: T_c = TC_BINDING * omega_l."""
    return TC_BINDING * omega_l


def check_point(bath, tunneling_Tc, engine) -> float:
    """The one owner of the rules on a point's inputs but its grid (a TimeGrid); returns its T_c.

    A known engine; without tunneling_Tc, T_c is bound to the bath's
    omega_l, which the Ohmic bath does not have.
    """
    _check_engine(engine)
    if tunneling_Tc is None:
        if isinstance(bath, OhmicBath):
            raise ValueError("the Ohmic bath has no omega_l to bind T_c to; give tunneling_Tc")
        tunneling_Tc = bound_tunneling(bath.omega_l)
    return QubitParams(tunneling_Tc).tunneling_Tc


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")


class SweepPoint(NamedTuple):
    """Result row for a single swept value, its fields in the sweep summary's column order."""

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

    Trajectories exist only when a time grid was given, as replays of their
    full-resolution samples on a TimeGrid: blocks() and time_blocks()
    recompute samples and times, data and times materialize them once and
    keep them.  decay, with them, is what T2 extraction reads of the T2
    source (numeric preferred), gathered by the pass.  max_abs_diff exists
    only with engine "both".  Nothing held is as long as the grid.
    """

    eig: EigenSystem
    rate: ChiRate
    closed: Optional[Trajectory] = None
    numeric: Optional[Trajectory] = None
    max_abs_diff: Optional[float] = None
    decay: Optional[_DecayRecord] = None


def _require_finite(**fields) -> None:
    """NonFiniteResultError naming the first field that is a non-finite float or array."""
    for name, value in fields.items():
        if value is None:
            continue
        if not (math.isfinite(value) if isinstance(value, float) else _all_finite(value)):
            raise NonFiniteResultError(f"{name} is not finite")


def _all_finite(data: np.ndarray) -> bool:
    """Whether a complex array is finite: min and max keep a NaN and show an inf, with no mask."""
    return all(math.isfinite(p.min()) and math.isfinite(p.max()) for p in (data.real, data.imag))


def _sample_pass(n_samples: int, closed, numeric):
    """One in-order pass over the engines' blocks (None or as Trajectory.blocks() yields them).

    Returns max |closed - numeric| (None unless both are given), the name of
    the first engine, in that order, with a NaN or inf sample (None if there
    is none), and the _DecayRecord of the T2 source, numeric preferred: the
    few samples T2 extraction reads, so nothing made is as long as the grid.
    The blocks are windows of read_window(n_samples) samples, so
    |closed - numeric| is one window of floats; the block maxima are folded
    with np.maximum, which keeps a NaN from any of them, as max() does within
    a block; a finite block maximum implies both blocks are finite.  The
    difference is written over the numeric block once its rho12 is read, so
    the numeric blocks must be scratch; with the closed form's block finite,
    the difference is non-finite where the numeric samples are.
    """
    named = [(name, blocks) for name, blocks in
             (("closed_form_trajectory", closed), ("numeric_trajectory", numeric))
             if blocks is not None]
    decay = _DecayRecord(n_samples)
    max_abs_diff, non_finite = None, set()
    for blocks in zip(*(b for _, b in named)):
        decay.add(blocks[-1][:, 1])
        if len(blocks) == 2:
            diff = np.subtract(*blocks, out=blocks[1])
            block_max = np.abs(diff).max()
            max_abs_diff = block_max if max_abs_diff is None else np.maximum(max_abs_diff, block_max)
            if math.isfinite(block_max):
                continue
        non_finite.update(name for (name, _), block in zip(named, blocks) if not _all_finite(block))
        if named[0][0] in non_finite:  # named first whatever the later blocks hold
            break
    first = next((name for name, _ in named if name in non_finite), None)
    return None if max_abs_diff is None else float(max_abs_diff), first, decay


@dataclass(frozen=True, eq=False)
class _Prepared:
    """A point up to its trajectories: chi checked, grid checked, step guarded."""

    eig: EigenSystem
    rate: ChiRate
    temperature: float
    engine: str
    grid: Optional[TimeGrid]
    generator: Optional[np.ndarray]  # the Liouvillian, numeric engines only


def _prepare(bath, temperature, tunneling_Tc, engine, grid: Optional[TimeGrid]) -> _Prepared:
    """First stage, on a checked point and its run's grid: all before the trajectories."""
    eig = diagonalize(QubitParams(tunneling_Tc=tunneling_Tc))
    rate = chi_rate(eig, bath, temperature)
    _require_finite(chi=rate.chi, n_occ=rate.n_occ)
    generator = None
    if grid is not None and engine in ("numeric", "both"):
        tensor = build_tensor(eig, bath, temperature)
        check_step(tensor, eig, grid)
        generator = liouvillian(tensor, eig)
    return _Prepared(eig, rate, temperature, engine, grid, generator)


def _stacked_powers(stack: list[_Prepared]):
    """The RK4 stride powers of prepared points on their one grid, in one pass (None without L)."""
    if not stack or stack[0].generator is None:
        return [None] * len(stack)
    return stride_powers(np.stack([prep.generator for prep in stack]), stack[0].grid)


def _finish(
    prep: _Prepared, powers: Optional[np.ndarray], samples: Optional[np.ndarray] = None
) -> PointEvaluation:
    """Second stage of a point: the engines' replays on the grid and one pass over them.

    The pass (_sample_pass) reads the numeric samples from samples, the
    point's rows of its group's replay_stack, when given, and replays them
    from powers otherwise; it overwrites them.  After it, NonFiniteResultError
    names the first engine with a NaN or inf sample before anything else
    reads them; the pass leaves the cross-engine discrepancy and the T2
    record of the T2 source.  The trajectories themselves are not stored,
    and their times are a TimeGrid: nothing held is as long as the grid.
    """
    if prep.grid is None:
        return PointEvaluation(prep.eig, prep.rate)
    closed = numeric = None
    if prep.engine in ("closed_form", "both"):
        closed = closed_form_trajectory(prep.rate, prep.grid)
    if powers is not None:
        numeric = replay_powers(powers, initial_state(), prep.grid)
    read = [None if traj is None else traj.blocks() for traj in (closed, numeric)]
    if samples is not None:
        read[1] = [samples]
    max_abs_diff, non_finite, decay = _sample_pass(len(prep.grid), *read)
    if non_finite is not None:
        raise NonFiniteResultError(f"{non_finite} is not finite")
    _require_finite(max_abs_diff=max_abs_diff)
    return PointEvaluation(prep.eig, prep.rate, closed, numeric, max_abs_diff, decay)


def evaluate_point(
    bath: BathModel,
    temperature: float,
    tunneling_Tc: Optional[float],
    engine: str,
    grid: Optional[TimeGrid] = None,
) -> PointEvaluation:
    """The per-point pipeline: chi, then the engines' trajectories on the grid.

    A sweep's stages for one point, after check_point, on the run's TimeGrid
    and with a stack of one RK4 power set.  The trajectories are replays (see
    PointEvaluation); the point holds nothing as long as its grid until times
    or data is read.
    Raises NonFiniteResultError when a result is NaN or infinite.
    """
    check_grid(grid)
    prep = _prepare(bath, temperature, check_point(bath, tunneling_Tc, engine), engine, grid)
    return _finish(prep, *_stacked_powers([prep]))


def decoherence_times(run: PointEvaluation) -> tuple[float, Optional[float]]:
    """(analytic T2, empirical T2 or None without trajectories); numeric preferred."""
    t2_analytic = decoherence_time_analytic(run.rate)
    traj = run.numeric if run.numeric is not None else run.closed
    t2_empirical = None if traj is None else run.decay.t2(traj.times_at)
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
    tc = spec.tunneling_Tc if spec.tunneling_Tc is not None else bound_tunneling(bath.omega_l)
    return bath, float(temperature), tc


def _group_window(spec: SweepSpec) -> Optional[np.ndarray]:
    """The window a group of points replays its numeric samples in: (K, N, 4), K*N <= SAMPLE_BLOCK.

    None without the numeric engine, or on a grid longer than SAMPLE_BLOCK,
    where each point replays its own samples a window at a time.
    """
    if spec.grid is None or spec.engine == "closed_form":
        return None
    group = min(SAMPLE_BLOCK // len(spec.grid), _STACK_POINTS, len(spec.values))
    return np.empty((group, len(spec.grid), 4), dtype=complex) if group else None


def run_sweep(
    spec: SweepSpec, each: Optional[Callable[[SweepPoint, PointEvaluation], None]] = None
) -> SweepResult:
    """Evaluate every swept value in order on the calling thread.

    Every stage takes the spec's grid, a TimeGrid, whole; points are
    prepared _STACK_POINTS at a time, their RK4 powers stacked, then finished
    in order.  On a grid of at most SAMPLE_BLOCK samples the numeric samples
    of a group of a stack's points, as many as fit SAMPLE_BLOCK rows, are
    replayed together in one window that every group reuses, and each point's
    pass reads its rows.
    each(point, run) gets each finished point with its full-resolution
    trajectories, replayed whenever they are read (a point stores nothing as
    long as its grid), and the point is dropped once each returns.  The
    returned points are the whole result: the CLI's sweep summary is written
    from them.  The first failing point aborts the sweep after the points
    before it reached each; the SweepError carries its value, those points
    and, as __cause__, the point's exception.  Later points of its stack may
    be prepared, and later points of its group may have had their numeric
    samples replayed, but none of them gets a pass or reaches each.  Neither
    an exception from each nor a MemoryError is a point failure: running out
    of memory would fail every point alike, so both propagate as they are.
    """
    points: list[SweepPoint] = []
    window = _group_window(spec)
    for start in range(0, len(spec.values), _STACK_POINTS):
        stack, failure = [], None
        for i in range(start, min(start + _STACK_POINTS, len(spec.values))):
            try:
                bath, temperature, tc = _resolve_point(spec, spec.values[i])
                stack.append(_prepare(bath, temperature, tc, spec.engine, spec.grid))
            except MemoryError:
                raise
            except Exception as exc:
                failure = (i, exc)
                break
        stack_powers = _stacked_powers(stack)
        for i, (prep, powers) in enumerate(zip(stack, stack_powers), start):
            try:
                if window is not None and (i - start) % len(window) == 0:
                    group = stack_powers[i - start : i - start + len(window)]
                    samples = iter(replay_stack(group, initial_state(), window[: len(group)]))
                run = _finish(prep, powers, None if window is None else next(samples))
                t2s = decoherence_times(run)
            except MemoryError:
                raise
            except Exception as exc:
                failure = (i, exc)
                break
            points.append(SweepPoint(i, spec.swept_parameter, spec.values[i], run.eig.omega_21,
                                     prep.temperature, run.rate.chi, run.rate.n_occ, *t2s,
                                     run.max_abs_diff))
            if each is not None:
                each(points[-1], run)
            del run  # so the next point is finished without what each materialized
        if failure is not None:
            value, exc = spec.values[failure[0]], failure[1]
            message = f"sweep failed at {spec.swept_parameter}={value}: {exc}"
            raise SweepError(message, SweepResult(spec, tuple(points)), value) from exc
    return SweepResult(spec=spec, points=tuple(points))
