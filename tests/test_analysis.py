import functools
import itertools
import json
import math
import threading
import weakref

import numpy as np
import pytest

import oracle
from conftest import MiB, allocation_peak, allocations
import dqdsim
from dqdsim import (
    ChiRate,
    DeformationBath,
    NoDecoherenceError,
    NonFiniteResultError,
    OhmicBath,
    PiezoelectricBath,
    SweepError,
    SweepPoint,
    SweepSpec,
    Trajectory,
    TrajectoryTooShortError,
    bath_from_dict,
    bath_to_dict,
    build_tensor,
    chi_rate,
    closed_form_trajectory,
    decoherence_time_analytic,
    decoherence_time_empirical,
    decoherence_times,
    equilibrium_populations,
    initial_state,
    propagate_numeric,
    run_sweep,
    spectral_density,
    time_grid,
)
from dqdsim import analysis, cli, redfield
from dqdsim.redfield import SAMPLE_BLOCK, StepSizeError


class TestAnalyticT2:
    def test_reference_values(self, eig_default):
        rate = chi_rate(eig_default, PiezoelectricBath(), 0.030)
        expected = float(1 / oracle.chi_from(oracle.j_pcpb(0.1), oracle.bose(0.1, 0.030)))
        assert decoherence_time_analytic(rate) == pytest.approx(expected, rel=1e-12)

        rate = chi_rate(eig_default, OhmicBath(eta=0.04), 0.030)
        expected = float(1 / oracle.chi_from(oracle.j_ohmic(0.1), oracle.bose(0.1, 0.030)))
        assert decoherence_time_analytic(rate) == pytest.approx(expected, rel=1e-12)
        # nanosecond scale
        assert 3.5e3 < decoherence_time_analytic(rate) < 3.9e3

    def test_reciprocal_scaling(self):
        a = decoherence_time_analytic(ChiRate(chi=1e-3, n_occ=0.0, omega_21=0.1))
        b = decoherence_time_analytic(ChiRate(chi=2e-3, n_occ=0.0, omega_21=0.1))
        assert a == 2.0 * b

    def test_no_decoherence_signal(self):
        with pytest.raises(NoDecoherenceError):
            decoherence_time_analytic(ChiRate(chi=0.0, n_occ=0.0, omega_21=0.1))


class TestEmpiricalT2:
    def test_closed_form_pcpb(self, eig_default):
        rate = chi_rate(eig_default, PiezoelectricBath(), 0.030)
        t2 = 1.0 / rate.chi
        traj = closed_form_trajectory(rate, time_grid(5.0 * t2, 25000))
        got = decoherence_time_empirical(traj)
        assert got == pytest.approx(t2, rel=0.02)  # contract
        assert got == pytest.approx(t2, rel=1e-4)  # implementation quality

    def test_closed_form_ohmic_strong_damping(self, eig_default):
        rate = chi_rate(eig_default, OhmicBath(eta=0.12), 0.030)
        t2 = 1.0 / rate.chi  # ~1231.5 ps
        traj = closed_form_trajectory(rate, time_grid(5.0 * t2, 25000))
        assert decoherence_time_empirical(traj) == pytest.approx(t2, rel=0.02)

    def test_numeric_trajectory(self, eig_default):
        bath = PiezoelectricBath()
        rate = chi_rate(eig_default, bath, 0.030)
        tensor = build_tensor(eig_default, bath, 0.030)
        t2 = 1.0 / rate.chi
        traj = propagate_numeric(tensor, eig_default, initial_state(), 5.0 * t2, 25000)
        assert decoherence_time_empirical(traj) == pytest.approx(t2, rel=0.02)

    def test_isolated_system_signals_no_decay(self, eig_default):
        rate = chi_rate(eig_default, OhmicBath(eta=0.0), 0.030)
        traj = closed_form_trajectory(rate, time_grid(500.0, 5000))
        with pytest.raises(TrajectoryTooShortError):
            decoherence_time_empirical(traj)

    def test_overdamped_threshold_crossing(self):
        rate = ChiRate(chi=0.5, n_occ=0.0, omega_21=0.1)
        traj = closed_form_trajectory(rate, time_grid(400.0, 8000))
        got = decoherence_time_empirical(traj)
        dense = closed_form_trajectory(rate, time_grid(400.0, 400000))
        crossing = dense.times[int(np.argmax(dense.abs_rho12 < 0.5 * math.exp(-1.0)))]
        assert got == pytest.approx(float(crossing), rel=1e-3)

    def test_too_short_trajectory_names_extension(self, eig_default):
        rate = chi_rate(eig_default, PiezoelectricBath(), 0.030)
        traj = closed_form_trajectory(rate, time_grid(80.0, 800))
        with pytest.raises(TrajectoryTooShortError, match="extend t_end"):
            decoherence_time_empirical(traj)


def _stationary_samples(times: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The whole-array stationary-sample search, the streaming detector's reference."""
    if len(amps) < 7:
        return np.empty(0), np.empty(0)
    slope = amps[2:] - amps[:-2]  # centered at index i+1
    np.abs(slope, out=slope)
    interior = (slope[1:-1] < slope[:-2]) & (slope[1:-1] < slope[2:])
    idx = np.nonzero(interior)[0] + 2
    return times[idx], amps[idx]


def _t2_from(times: np.ndarray, amps: np.ndarray) -> float:
    """The whole-array T2 extraction on |rho12| sampled at times, the streaming one's reference."""
    t_s, a_s = _stationary_samples(times, amps)
    positive = a_s > 0
    t_s, a_s = t_s[positive], a_s[positive]
    if len(a_s) >= 3 and a_s[-1] < analysis._MIN_DECAY_RATIO * a_s[0]:
        log_a = np.log(a_s)
        t_c = t_s - t_s.sum() / len(t_s)
        slope = float(np.dot(t_c, log_a - log_a.sum() / len(log_a)) / np.dot(t_c, t_c))
        if slope < 0:
            return -1.0 / slope

    below = amps < analysis._DECAY_THRESHOLD
    if below[0]:
        raise ValueError("trajectory starts below the e^-1/2 threshold")
    if np.any(below):
        i = int(np.argmax(below))
        frac = (analysis._DECAY_THRESHOLD - amps[i - 1]) / (amps[i] - amps[i - 1])
        return float(times[i - 1] + frac * (times[i] - times[i - 1]))

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


def _outcome(call):
    """call()'s value, or the type and message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def _reference_outcome(traj: Trajectory):
    return _outcome(lambda: _t2_from(traj.times, traj.abs_rho12))


# two full windows and a ragged tail
EDGE_SAMPLES = 2 * SAMPLE_BLOCK + 77
_STEP = 2.0**-16  # |rho12| falls by a power of two a sample, so every difference is exact


def _dipped(dips, n: int = EDGE_SAMPLES) -> Trajectory:
    """|rho12| from 0.5 down by _STEP a sample, by _STEP / 4 on each side of each dip.

    The slope magnitude |a[i+1] - a[i-1]| is least at the dips, so they are the
    stationary samples, and only they are.
    """
    step = np.full(n - 1, _STEP)
    for k in dips:
        step[k - 1] = step[k] = _STEP / 4
    return _trajectory(np.concatenate(([0.5], 0.5 - np.cumsum(step))))


def _crossing_at(k: int, n: int = EDGE_SAMPLES) -> Trajectory:
    """|rho12| falling by _STEP a sample, first below e^-1/2 at index k, with no stationary sample."""
    top = math.ceil(analysis._DECAY_THRESHOLD / _STEP) * _STEP  # the last sample at or above
    return _trajectory(top + (k - 1 - np.arange(n)) * _STEP)


# the three sweeps of the scan benchmark: their grids, fixed parameters and value ranges
SCAN_SWEEPS = {
    "temperature": (
        dict(base_bath=PiezoelectricBath(), t_end=2500.0, n_steps=5000, store_every=2),
        (0.02, 1.0),
    ),
    "omega_l": (
        dict(base_bath=PiezoelectricBath(), temperature=0.1, t_end=3000.0, n_steps=12000,
             store_every=6),
        (0.4, 1.0),
    ),
    "eta": (
        dict(base_bath=OhmicBath(eta=0.1), temperature=0.1, tunneling_Tc=0.05, t_end=7500.0,
             n_steps=15000, store_every=5),
        (0.1, 0.5),
    ),
}


def _check_against_the_reference(point, run) -> None:
    """A sweep's each: the point's T2 and the library's are the whole-array reference's."""
    traj = run.numeric if run.numeric is not None else run.closed
    expected = _t2_from(traj.times, traj.abs_rho12)
    assert point.t2_empirical == expected
    assert decoherence_time_empirical(traj) == expected


class TestStreamingT2:
    """T2 found a window at a time equals the whole-array extraction, bit for bit."""

    @pytest.mark.parametrize("fig", range(1, 7))
    def test_every_fig_point(self, monkeypatch, tmp_path, configs_dir, fig):
        cfg = json.loads((configs_dir / f"fig{fig}.json").read_text())
        cfg.pop("trajectories")
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        checked, run_sweep_ = [], cli.run_sweep

        def checking(spec, each=None):
            def check(point, run):
                _check_against_the_reference(point, run)
                checked.append(point.index)

            return run_sweep_(spec, check)

        monkeypatch.setattr(cli, "run_sweep", checking)
        argv = ["sweep", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 0
        assert checked == list(range(len(cfg["sweep"]["values"])))

    @pytest.mark.parametrize("parameter", list(SCAN_SWEEPS))
    def test_scan_grids_and_ranges(self, parameter):
        fixed, (lo, hi) = SCAN_SWEEPS[parameter]
        values = lo + (np.arange(100) + 0.5) * (hi - lo) / 100  # bin centres over the range
        spec = SweepSpec(parameter, tuple(values.tolist()), engine="both", **fixed)
        assert len(run_sweep(spec, _check_against_the_reference).points) == 100

    # a window decides the samples up to its third last, given four carried samples
    @pytest.mark.parametrize("k", [SAMPLE_BLOCK + d for d in range(-3, 2)])
    def test_stationary_sample_at_a_window_edge(self, k):
        traj = _dipped([100, k, 2 * SAMPLE_BLOCK])
        t_s, _ = _stationary_samples(traj.times, traj.abs_rho12)
        assert t_s.tolist() == [100, k, 2 * SAMPLE_BLOCK]
        expected = _t2_from(traj.times, traj.abs_rho12)
        assert decoherence_time_empirical(traj) == expected
        # without the edge sample two stationary samples are left: no fit, and no crossing
        assert _reference_outcome(_dipped([100, 2 * SAMPLE_BLOCK]))[0] is TrajectoryTooShortError

    @pytest.mark.parametrize("k", [SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1])
    def test_first_crossing_at_a_window_edge(self, k):
        traj = _crossing_at(k)
        assert len(_stationary_samples(traj.times, traj.abs_rho12)[0]) == 0
        expected = _t2_from(traj.times, traj.abs_rho12)
        assert k - 1 < expected < k
        assert decoherence_time_empirical(traj) == expected

    @pytest.mark.parametrize(
        "amps",
        [
            [0.1] * 10,  # starts below
            [0.1],
            [0.5] * 20,  # flat: no envelope
            [0.5, 0.4, 0.3, 0.15, 0.1],  # too few samples for a fit: the crossing
            [0.5, 0.4, 0.39, 0.38, 0.3, 0.2],  # one stationary sample, at index 2
            [0.5, 0.4, 0.35, 0.3, 0.29, 0.28, 0.27, 0.26],
        ],
        ids=["starts-below", "one-below", "flat", "five", "six", "eight"],
    )
    def test_short_trajectories(self, amps):
        traj = _trajectory(amps)
        assert _outcome(lambda: decoherence_time_empirical(traj)) == _reference_outcome(traj)

    def test_too_short_messages(self):
        # a decaying envelope that drops too little: its message names the extension
        traj = _dipped([100, 5000, 9000, 16000], n=SAMPLE_BLOCK * 2 + 77)
        data = traj.data.copy()
        data[:, 1] = 0.5 - (0.5 - data[:, 1]) / 64  # a 0.4 % drop, never below e^-1/2
        cases = [Trajectory(traj.times, data), _dipped([]), _trajectory([0.5, 0.5])]
        for case in cases:
            expected = _reference_outcome(case)
            assert expected[0] is TrajectoryTooShortError
            assert _outcome(lambda: decoherence_time_empirical(case)) == expected
        assert "envelope dropped only" in _reference_outcome(cases[0])[1]


class TestEquilibriumPopulations:
    def test_zero_temperature_limit(self):
        assert equilibrium_populations(0.0) == (1.0, 0.0)

    def test_reference_value(self):
        n = float(oracle.bose(0.1, 1.0))
        lower, upper = equilibrium_populations(n)
        assert lower == pytest.approx(0.682183237436, rel=1e-11)
        assert upper == pytest.approx(0.317816762564, rel=1e-11)

    def test_infinite_temperature_limit(self):
        lower, upper = equilibrium_populations(1e300)
        assert lower == pytest.approx(0.5, rel=1e-12)
        assert upper == pytest.approx(0.5, rel=1e-12)

    def test_sums_to_one_exactly(self):
        for n in (0.0, 1e-12, 0.1, 0.87, 5.0, 1e6):
            lower, upper = equilibrium_populations(n)
            assert lower + upper == 1.0
            assert 0.0 <= upper <= lower <= 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            equilibrium_populations(-0.1)


def _sweep(bath, parameter, values, **kwargs):
    return SweepSpec(swept_parameter=parameter, values=tuple(values), base_bath=bath, **kwargs)


class TestRunSweep:
    def test_omega_l_sweep_rebinds_tunneling(self):
        spec = _sweep(PiezoelectricBath(), "omega_l", [0.5, 0.7], temperature=0.030)
        result = run_sweep(spec)
        assert result.points[0].omega_21 == pytest.approx(0.1, rel=1e-15)
        assert result.points[1].omega_21 == pytest.approx(0.14, rel=1e-15)
        t2s = [p.t2_analytic for p in result.points]
        exp0 = float(1 / oracle.chi_from(oracle.j_pcpb(0.1), oracle.bose(0.1, 0.030)))
        exp1 = float(
            1 / oracle.chi_from(oracle.j_pcpb(0.14, omega_l=0.7), oracle.bose(0.14, 0.030))
        )
        assert t2s[0] == pytest.approx(exp0, rel=1e-12)
        assert t2s[1] == pytest.approx(exp1, rel=1e-12)
        assert t2s[0] > t2s[1]

    def test_eta_sweep_is_exactly_reciprocal(self, eig_default):
        spec = _sweep(
            OhmicBath(eta=0.04), "eta", [0.04, 0.08, 0.12], temperature=0.030, tunneling_Tc=0.05
        )
        result = run_sweep(spec)
        products = [p.t2_analytic * p.value for p in result.points]
        assert products[1] == pytest.approx(products[0], rel=1e-12)
        assert products[2] == pytest.approx(products[0], rel=1e-12)

    def test_temperature_sweep_chi_increases(self):
        spec = _sweep(PiezoelectricBath(), "temperature", [0.03, 0.2, 0.3, 1.0])
        result = run_sweep(spec)
        chis = [p.chi for p in result.points]
        assert all(b > a for a, b in zip(chis, chis[1:]))
        for point, temp in zip(result.points, (0.03, 0.2, 0.3, 1.0)):
            expected = float(oracle.chi_from(oracle.j_pcpb(0.1), oracle.bose(0.1, temp)))
            assert point.chi == pytest.approx(expected, rel=1e-12)
            assert point.temperature == temp
            assert point.omega_21 == 0.1  # T_c bound from the bath's omega_l

    def test_engine_both_reports_discrepancy(self):
        spec = _sweep(
            PiezoelectricBath(),
            "temperature",
            [0.03, 1.0],
            t_end=1000.0,
            n_steps=20000,
            engine="both",
        )
        runs = []
        result = run_sweep(spec, lambda point, run: runs.append(run))
        assert len(runs) == len(result.points) == 2
        for point, run in zip(result.points, runs):
            assert point.max_abs_diff is not None and point.max_abs_diff < 1e-6
            assert point.max_abs_diff == run.max_abs_diff
            assert point.t2_empirical == pytest.approx(point.t2_analytic, rel=0.02)
            assert len(run.closed) == len(run.numeric) == 20001

    def test_closed_form_engine_produces_empirical_t2(self):
        spec = _sweep(
            OhmicBath(eta=0.12),
            "eta",
            [0.12],
            temperature=0.030,
            tunneling_Tc=0.05,
            t_end=6500.0,
            n_steps=13000,
        )
        runs = []
        result = run_sweep(spec, lambda point, run: runs.append(run))
        point = result.points[0]
        assert point.t2_empirical == pytest.approx(point.t2_analytic, rel=0.02)
        assert point.max_abs_diff is None
        (run,) = runs
        assert run.numeric is None and len(run.closed) == 13001

    def test_failing_point_aborts_with_partial(self):
        # h = 0.75 satisfies the guard at omega_21 = 0.1 but not at 0.14
        spec = _sweep(
            PiezoelectricBath(),
            "omega_l",
            [0.5, 0.7],
            temperature=0.030,
            t_end=150.0,
            n_steps=200,
            engine="numeric",
        )
        with pytest.raises(SweepError) as err:
            run_sweep(spec)
        assert err.value.value == 0.7
        assert isinstance(err.value.__cause__, StepSizeError)
        assert len(err.value.partial.points) == 1
        assert err.value.partial.points[0].value == 0.5

    def test_zero_coupling_point_aborts(self):
        spec = _sweep(
            OhmicBath(eta=0.0), "temperature", [0.03, 1.0], tunneling_Tc=0.05
        )
        with pytest.raises(SweepError) as err:
            run_sweep(spec)
        assert isinstance(err.value.__cause__, NoDecoherenceError)

    def test_first_failing_point_stops_the_sweep(self, monkeypatch):
        calls = []
        finish = analysis._finish

        def recording(*args, **kwargs):
            calls.append(threading.current_thread())
            return finish(*args, **kwargs)

        monkeypatch.setattr(analysis, "_finish", recording)
        spec = _sweep(
            OhmicBath(eta=0.0),
            "temperature",
            [0.02, 0.03, 0.04, 0.05],
            tunneling_Tc=0.05,
            t_end=100.0,
            n_steps=200,
        )
        with pytest.raises(SweepError) as err:
            run_sweep(spec)
        assert calls == [threading.main_thread()]
        assert err.value.partial.points == ()
        assert err.value.value == 0.02


    def test_each_follows_every_point_with_full_trajectories(self, monkeypatch):
        events = []
        handed_out = []
        finish = analysis._finish

        def recording(prep, *args):
            events.append(("evaluate", prep.temperature))
            # earlier points' trajectories are released before the next is evaluated
            assert all(ref() is None for ref in handed_out)
            return finish(prep, *args)

        def each(point, run):
            events.append(("each", point.temperature))
            assert len(run.closed) == len(run.numeric) == 2001  # not thinned
            handed_out.append(weakref.ref(run))

        monkeypatch.setattr(analysis, "_finish", recording)
        spec = _sweep(
            PiezoelectricBath(),
            "temperature",
            [0.03, 0.2, 1.0],
            t_end=1000.0,
            n_steps=4000,
            store_every=2,
            engine="both",
        )
        result = run_sweep(spec, each)
        assert events == [
            ("evaluate", 0.03), ("each", 0.03),
            ("evaluate", 0.2), ("each", 0.2),
            ("evaluate", 1.0), ("each", 1.0),
        ]
        assert [p.temperature for p in result.points] == [0.03, 0.2, 1.0]



# 40 values: two full stacks of points and a ragged one of 8
STACKED_SWEEPS = [
    (
        "temperature",
        dict(base_bath=PiezoelectricBath(), tunneling_Tc=0.05),
        np.geomspace(0.02, 1.0, 40),
    ),
    (
        "eta",
        dict(base_bath=OhmicBath(eta=0.04), temperature=0.030, tunneling_Tc=0.05),
        np.geomspace(0.5, 20.0, 40),
    ),
]


class TestStackedSweep:
    """Sweep points are prepared a stack at a time; each still equals its one-point run."""

    @pytest.mark.parametrize("parameter,fixed,values", STACKED_SWEEPS, ids=["temperature", "eta"])
    def test_every_point_equals_a_one_point_evaluation(self, parameter, fixed, values):
        grid = dict(t_end=1000.0, n_steps=4000, store_every=4)
        spec = SweepSpec(parameter, tuple(values.tolist()), engine="both", **fixed, **grid)
        seen = []

        def each(point, run):
            temperature = point.value if parameter == "temperature" else fixed["temperature"]
            bath = fixed["base_bath"]
            if parameter == "eta":
                bath = OhmicBath(eta=point.value)
            alone = analysis.evaluate_point(bath, temperature, 0.05, "both", **grid)
            assert run.numeric.data.tobytes() == alone.numeric.data.tobytes()
            assert run.closed.data.tobytes() == alone.closed.data.tobytes()
            expected = SweepPoint(
                len(seen), parameter, point.value, alone.eig.omega_21, temperature,
                alone.rate.chi, alone.rate.n_occ, *decoherence_times(alone), alone.max_abs_diff,
            )
            assert repr(point) == repr(expected)
            seen.append(point)

        result = run_sweep(spec, each)
        assert result.points == tuple(seen) and len(seen) == 40

    def test_grid_checked_once_never_built_and_powers_once_per_stack(self, monkeypatch):
        spec = _sweep(  # built first: a SweepSpec checks its own grid, before any run
            PiezoelectricBath(),
            "temperature",
            np.geomspace(0.02, 1.0, 40).tolist(),
            t_end=500.0,
            n_steps=1000,
            engine="numeric",
        )
        stacks, grids = [], []
        stride_powers = analysis.stride_powers

        def counting_powers(generators, *args):
            stacks.append(len(generators))
            return stride_powers(generators, *args)

        class CountingGrid(analysis.TimeGrid):
            def __init__(self, *args):
                grids.append(args)
                super().__init__(*args)

        monkeypatch.setattr(analysis, "stride_powers", counting_powers)
        monkeypatch.setattr(analysis, "TimeGrid", CountingGrid)
        _refuse_to_build_grids(monkeypatch)
        assert len(run_sweep(spec).points) == 40
        assert stacks == [16, 16, 8]
        assert grids == [(500.0, 1000, 1)]

    @pytest.mark.parametrize("stage", ["prepare", "finish"])
    def test_failure_after_a_full_stack(self, monkeypatch, stage):
        """The first failure at index 17: points 0-16 reach each, no later one has a trajectory."""
        if stage == "prepare":
            # h = 0.75 passes the step guard up to omega_l = 2/3, not at 0.7
            values = np.linspace(0.45, 0.66, 17).tolist() + [0.7, 0.72, 0.75]
            spec = _sweep(
                PiezoelectricBath(), "omega_l", values, temperature=0.030,
                t_end=150.0, n_steps=200, engine="numeric",
            )
            value, cause, trajectories = 0.7, StepSizeError, 17
        else:
            # strongly overdamped from eta ~ 260 on: |rho12| barely decays in 300 ps
            values = np.geomspace(1.0, 180.0, 17).tolist() + [260.0, 360.0, 500.0]
            spec = _sweep(
                OhmicBath(eta=1.0), "eta", values, temperature=0.030, tunneling_Tc=0.05,
                t_end=300.0, n_steps=12000, store_every=20, engine="both",
            )
            value, cause, trajectories = 260.0, TrajectoryTooShortError, 18
        propagated = []
        replay = analysis.replay_powers

        def counting(*args):
            propagated.append(args)
            return replay(*args)

        monkeypatch.setattr(analysis, "replay_powers", counting)
        seen = []
        with pytest.raises(SweepError) as err:
            run_sweep(spec, lambda point, run: seen.append(point))
        assert [p.index for p in seen] == list(range(17))
        assert err.value.partial.points == tuple(seen)
        assert err.value.value == value
        assert isinstance(err.value.__cause__, cause)
        assert str(err.value).startswith(f"sweep failed at {spec.swept_parameter}={value}: ")
        assert len(propagated) == trajectories


def _one_point_rows(spec: SweepSpec, count: int) -> list:
    """(row, closed bytes, numeric bytes) of the spec's first count values, each evaluated alone."""
    rows = []
    for i, value in enumerate(spec.values[:count]):
        bath, temperature, tc = analysis._resolve_point(spec, value)
        grid = (spec.t_end, spec.n_steps, spec.store_every)
        alone = analysis.evaluate_point(bath, temperature, tc, spec.engine, *grid)
        point = SweepPoint(
            i, spec.swept_parameter, value, alone.eig.omega_21, temperature, alone.rate.chi,
            alone.rate.n_occ, *decoherence_times(alone), alone.max_abs_diff,
        )
        rows.append((repr(point), alone.closed.data.tobytes(), alone.numeric.data.tobytes()))
    return rows


def _poison(monkeypatch, engine: str, row: int) -> None:
    """A NaN as the last rho12 the finishing pass reads from one point's engine: the point at
    row of the first group for the numeric engine, the row-th point finished for the closed form."""
    if engine == "numeric_trajectory":
        replay_stack, groups = analysis.replay_stack, itertools.count()

        def poisoned(powers, rho0, out):
            samples = replay_stack(powers, rho0, out)
            if next(groups) == 0:
                samples[row, -1, 1] = math.nan
            return samples

        monkeypatch.setattr(analysis, "replay_stack", poisoned)
    else:
        replay, points = analysis.closed_form_replay, itertools.count()

        def poisoned(rate, times):
            traj = replay(rate, times)
            if next(points) != row:
                return traj
            data = traj.data.copy()
            data[-1, 1] = math.nan
            return Trajectory(traj.times, data)

        monkeypatch.setattr(analysis, "closed_form_replay", poisoned)


def _run_recording(spec: SweepSpec):
    """run_sweep's SweepError and the (row, closed bytes, numeric bytes) each saw before it."""
    seen = []

    def each(point, run):
        seen.append((repr(point), run.closed.data.tobytes(), run.numeric.data.tobytes()))

    with pytest.raises(SweepError) as err:
        run_sweep(spec, each)
    return err.value, seen


# 2001 samples: groups of 4 points, 8192 // 2001
GROUP_GRID = dict(t_end=1000.0, n_steps=4000, store_every=2, engine="both")


class TestGroupedFinish:
    """A group's numeric samples are replayed together; its points are still finished in order."""

    @pytest.mark.parametrize("j", [0, 2, 3])
    @pytest.mark.parametrize("engine", ["closed_form_trajectory", "numeric_trajectory"])
    def test_non_finite_point_of_a_group(self, monkeypatch, engine, j):
        values = np.geomspace(0.03, 1.0, 6).tolist()
        spec = _sweep(PiezoelectricBath(), "temperature", values, **GROUP_GRID)
        expected = _one_point_rows(spec, j)
        with monkeypatch.context() as patch:
            _poison(patch, engine, 0)
            alone, _ = _run_recording(_sweep(PiezoelectricBath(), "temperature", [values[j]],
                                             **GROUP_GRID))
        _poison(monkeypatch, engine, j)
        err, seen = _run_recording(spec)
        assert seen == expected  # points 0..j-1, as if alone; no later point
        assert err.value == values[j]
        assert [repr(point) for point in err.partial.points] == [row for row, _, _ in expected]
        assert isinstance(err.__cause__, NonFiniteResultError)
        assert str(err.__cause__) == str(alone.__cause__) == f"{engine} is not finite"

    def test_too_short_point_of_a_group(self):
        # strongly overdamped from eta ~ 260 on: |rho12| barely decays in 300 ps; 601 samples
        values = np.geomspace(1.0, 180.0, 3).tolist() + [260.0, 360.0, 500.0]
        fixed = dict(temperature=0.030, tunneling_Tc=0.05, t_end=300.0, n_steps=12000,
                     store_every=20, engine="both")
        spec = _sweep(OhmicBath(eta=1.0), "eta", values, **fixed)
        err, seen = _run_recording(spec)
        alone, _ = _run_recording(_sweep(OhmicBath(eta=1.0), "eta", [260.0], **fixed))
        assert seen == _one_point_rows(spec, 3)
        assert err.value == 260.0
        assert [repr(point) for point in err.partial.points] == [row for row, _, _ in seen]
        assert isinstance(err.__cause__, TrajectoryTooShortError)
        assert str(err.__cause__) == str(alone.__cause__)

    def test_a_group_holds_its_samples_not_the_stack(self):
        # 16 points on a 2501-sample grid: groups of 3, 8192 // 2501
        grid = dict(t_end=2500.0, n_steps=5000, store_every=2)
        values = np.geomspace(0.02, 1.0, 16).tolist()
        args = (PiezoelectricBath(), values[0], 0.05, "both")
        _, one_point = allocation_peak(lambda: analysis.evaluate_point(*args, **grid))
        spec = _sweep(PiezoelectricBath(), "temperature", values, engine="both", **grid)
        result, peak = allocation_peak(lambda: run_sweep(spec))
        assert len(result.points) == 16
        # the stride powers of all 16 points, built together before the first group
        stack_powers = 16 * 64 * 16 * np.dtype(complex).itemsize
        # a group's 8192 numeric rows are 512 KiB; the 16 points' samples would be 2.4 MiB
        assert peak <= MiB // 2 + one_point + stack_powers


# two full sample blocks and a ragged tail
MULTI_BLOCK_GRID = dict(t_end=5000.0, n_steps=2 * SAMPLE_BLOCK + 77)
# the public entry point of each engine and the replay analysis builds a point's engine from
REPLAY_OF = {"closed_form_trajectory": "closed_form_replay", "propagate_numeric": "replay_powers"}


class TestBlockwiseFinish:
    """The cross-engine diff and the finiteness checks, a sample block at a time."""

    def test_max_abs_diff_equals_the_one_shot_maximum(self):
        run = analysis.evaluate_point(PiezoelectricBath(), 0.030, 0.05, "both", **MULTI_BLOCK_GRID)
        one_shot = float(np.max(np.abs(run.closed.data - run.numeric.data)))
        assert len(run.closed) > 2 * SAMPLE_BLOCK
        assert np.float64(run.max_abs_diff).tobytes() == np.float64(one_shot).tobytes()

    @pytest.mark.parametrize("poison", [0.25j, complex(math.nan, 0.0)], ids=["largest", "nan"])
    def test_max_abs_diff_sees_the_ragged_tail(self, poison):
        a = np.zeros((2 * SAMPLE_BLOCK + 77, 4), dtype=complex)
        b = a.copy()
        b[SAMPLE_BLOCK - 1, 0] = 0.125
        b[-1, 2] = poison
        expected = float(np.max(np.abs(a - b)))
        times = np.arange(len(a), dtype=float)
        blocks = [Trajectory(times, data).blocks() for data in (a, b)]
        got, _, _ = analysis._sample_pass(len(a), *blocks)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize(
        "engine,target,name",
        [
            ("both", "closed_form_trajectory", "closed_form_trajectory"),
            ("both", "propagate_numeric", "numeric_trajectory"),
            ("closed_form", "closed_form_trajectory", "closed_form_trajectory"),
            ("numeric", "propagate_numeric", "numeric_trajectory"),
        ],
    )
    @pytest.mark.parametrize("poison", [math.nan, complex(0.5, -math.inf)], ids=["nan", "inf"])
    def test_non_finite_last_block_is_named(self, monkeypatch, engine, target, name, poison):
        source = REPLAY_OF[target]  # the replay that target returns
        make = getattr(analysis, source)

        def poisoned(*args):
            traj = make(*args)
            data = traj.data.copy()
            data[-1, 1] = poison
            return Trajectory(traj.times, data)

        monkeypatch.setattr(analysis, source, poisoned)
        with pytest.raises(NonFiniteResultError, match=f"^{name} is not finite$"):
            analysis.evaluate_point(PiezoelectricBath(), 0.030, 0.05, engine, **MULTI_BLOCK_GRID)

    def test_a_point_holds_nothing_as_long_as_its_grid(self):
        # case (II) of the paper on its 2e5-sample grid: its times or its |rho12| would each
        # take 1.6 MB; the trajectories are replays and their times a TimeGrid
        args = (DeformationBath(), 0.030, 0.05, "both", 1.5e5, 200000)
        grid_floats = 200001 * np.dtype(float).itemsize
        run, peak, live = allocations(lambda: analysis.evaluate_point(*args))
        assert len(run.closed) == len(run.numeric) == 200001
        assert live <= grid_floats // 4  # the stride powers and the T2 record
        # the pass holds a window of each engine, whatever the grid's length: as much as a
        # grid of one window of 2048 samples, the length of a long grid's windows
        short = (*args[:4], 2000.0, 2047)
        _, window_peak = allocation_peak(lambda: analysis.evaluate_point(*short))
        assert peak <= window_peak + MiB // 4
        # T2 is fitted through the few stationary samples the pass kept
        t2s, peak, live = allocations(lambda: decoherence_times(run))
        assert t2s[1] == pytest.approx(t2s[0], rel=1e-3)
        assert peak <= grid_floats // 4
        assert live <= 1024

    def test_both_engines_hold_little_beyond_their_trajectories(self):
        # case (II) of the paper: T2 is about 59 ns, so a curve spans 2e5 samples
        args = (DeformationBath(), 0.030, 0.05, "both", 1.5e5, 200000)
        run, peak = allocation_peak(lambda: analysis.evaluate_point(*args))
        held = run.closed.data.nbytes + run.numeric.data.nbytes + run.closed.times.nbytes
        assert peak <= held + 2 * MiB


class TestSweepSpecValidation:
    def test_rejects_bad_combinations(self):
        with pytest.raises(ValueError, match="phonon"):
            _sweep(OhmicBath(), "omega_l", [0.5], temperature=0.03, tunneling_Tc=0.05)
        with pytest.raises(ValueError, match="Ohmic"):
            _sweep(PiezoelectricBath(), "eta", [0.04], temperature=0.03)
        with pytest.raises(ValueError, match="re-bind"):
            _sweep(
                PiezoelectricBath(), "omega_l", [0.5], temperature=0.03, tunneling_Tc=0.05
            )
        with pytest.raises(ValueError, match="increasing"):
            _sweep(PiezoelectricBath(), "omega_l", [0.7, 0.5], temperature=0.03)
        with pytest.raises(ValueError, match="temperature"):
            _sweep(PiezoelectricBath(), "omega_l", [0.5, 0.7])
        with pytest.raises(ValueError, match="conflicts"):
            _sweep(PiezoelectricBath(), "temperature", [0.03, 0.2], temperature=0.03)
        with pytest.raises(ValueError, match="tunneling_Tc"):
            _sweep(OhmicBath(), "temperature", [0.03, 0.2])
        with pytest.raises(ValueError, match="together"):
            _sweep(
                PiezoelectricBath(), "temperature", [0.03, 0.2], t_end=100.0
            )
        with pytest.raises(ValueError, match="bath model"):
            _sweep(object(), "temperature", [0.03], tunneling_Tc=0.05)
        with pytest.raises(ValueError, match="non-empty"):
            _sweep(PiezoelectricBath(), "omega_l", [], temperature=0.03)

    def test_a_bad_tunneling_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="tunneling_Tc must be positive, got -1.0"):
            SweepSpec("temperature", (0.03,), PiezoelectricBath(), None, -1.0)
        # no qubit: T_c is bound to the bath's omega_l, which underflows to T_c = 0 here
        with pytest.raises(ValueError, match="tunneling_Tc must be positive, got 0.0"):
            _sweep(PiezoelectricBath(omega_l=5e-324), "temperature", [0.03])

    def test_an_omega_l_sweep_binds_each_point(self):
        # the base omega_l is replaced at every point, so its binding is not checked
        spec = _sweep(PiezoelectricBath(omega_l=5e-324), "omega_l", [0.5], temperature=0.03)
        assert run_sweep(spec).points[0].omega_21 == pytest.approx(0.1, rel=1e-15)


class TestCheckPoint:
    def test_without_a_qubit_tunneling_is_bound_to_omega_l(self):
        tc = analysis.check_point(PiezoelectricBath(omega_l=0.7), None, "closed_form")
        assert tc == 0.1 * 0.7
        # evaluate_point takes its T_c from check_point: 0.1 * 0.5, a splitting of 0.1
        run = analysis.evaluate_point(PiezoelectricBath(), 0.03, None, "closed_form")
        assert run.eig.omega_21 == 0.1


GRID_ERRORS = {
    "store_every-not-dividing": (dict(t_end=100.0, n_steps=1000, store_every=3), "divide n_steps"),
    "store_every-zero": (dict(t_end=100.0, n_steps=1000, store_every=0), "store_every must be >= 1"),
    "store_every-bool": (dict(t_end=100.0, n_steps=1000, store_every=True), "must be an integer"),
    "no-steps": (dict(t_end=100.0, n_steps=0), "n_steps must be >= 1"),
    "negative-t_end": (dict(t_end=-1.0, n_steps=1000), "t_end must be positive"),
    "underflowing-step": (dict(t_end=5e-324, n_steps=10), "underflows to 0"),
    "no-grid-store_every-zero": (dict(store_every=0), "needs a time grid"),
    "no-grid-store_every-7": (dict(store_every=7), "needs a time grid"),
    "no-grid-store_every-bool": (dict(store_every=True), "needs a time grid"),
    "no-grid-store_every-negative": (dict(store_every=-2), "needs a time grid"),
}


COUNTED_GRID = dict(t_end=1000.0, n_steps=4000, store_every=2)
# step counts that are not integers: each is refused by name before it reaches an array
COUNT_ERRORS = {
    "n_steps-float": (dict(n_steps=4000.0), "n_steps must be an integer, got 4000.0"),
    "n_steps-bool": (dict(n_steps=True, store_every=1), "n_steps must be an integer, got True"),
    "store_every-float": (dict(store_every=2.0), "store_every must be an integer, got 2.0"),
    "store_every-bool": (dict(store_every=True), "store_every must be an integer, got True"),
    "n_steps-beyond-float-range": (dict(n_steps=10**400), "n_steps is beyond the float range"),
}
# the three ways into a time grid; the numeric engine reaches the RK4 stride power
GRID_CALLS = {
    "time_grid": time_grid,
    "SweepSpec": functools.partial(
        _sweep, PiezoelectricBath(), "temperature", [0.03], tunneling_Tc=0.05, engine="both"
    ),
    "evaluate_point": functools.partial(
        analysis.evaluate_point, PiezoelectricBath(), 0.030, 0.05, "both"
    ),
}


class TestTimeGridValidation:
    """A SweepSpec and evaluate_point check their time grid up front, as time_grid does."""

    @pytest.mark.parametrize("grid,message", list(GRID_ERRORS.values()), ids=list(GRID_ERRORS))
    def test_sweep_spec_refuses_a_bad_grid(self, grid, message):
        with pytest.raises(ValueError, match=message):
            _sweep(PiezoelectricBath(), "temperature", [0.03], tunneling_Tc=0.05, **grid)

    @pytest.mark.parametrize("grid,message", list(GRID_ERRORS.values()), ids=list(GRID_ERRORS))
    def test_evaluate_point_refuses_a_bad_grid(self, grid, message):
        with pytest.raises(ValueError, match=message):
            analysis.evaluate_point(PiezoelectricBath(), 0.030, 0.05, "closed_form", **grid)

    def test_the_spec_error_is_not_a_point_failure(self):
        grid = dict(t_end=100.0, n_steps=1000, store_every=3)
        with pytest.raises(ValueError, match="divide n_steps") as err:
            _sweep(PiezoelectricBath(), "temperature", [0.03], tunneling_Tc=0.05, **grid)
        assert not isinstance(err.value, SweepError)

    @pytest.mark.parametrize("call", list(GRID_CALLS.values()), ids=list(GRID_CALLS))
    @pytest.mark.parametrize("counts,message", list(COUNT_ERRORS.values()), ids=list(COUNT_ERRORS))
    def test_step_counts_are_integers(self, counts, message, call):
        with pytest.raises(ValueError, match=message):
            call(**{**COUNTED_GRID, **counts})

    @pytest.mark.parametrize("call", list(GRID_CALLS.values()), ids=list(GRID_CALLS))
    def test_numpy_integers_are_step_counts(self, call):
        call(t_end=COUNTED_GRID["t_end"], n_steps=np.int64(4000), store_every=np.int32(2))

    def test_the_grid_is_checked_without_being_built(self):
        # 1e15 samples would need 8 PB: only the checks run
        spec = _sweep(
            PiezoelectricBath(), "temperature", [0.03], tunneling_Tc=0.05,
            t_end=1.0, n_steps=10**15,
        )
        assert spec.n_steps == 10**15


def _refuse_to_build_grids(monkeypatch) -> None:
    """time_grid and Trajectory.times, the two ways to build a whole grid, raise from now on."""

    def built(*args):
        raise AssertionError("a whole time grid was built")

    for module in (dqdsim, redfield, analysis):  # analysis imports no time_grid today
        monkeypatch.setattr(module, "time_grid", built, raising=False)
    monkeypatch.setattr(Trajectory, "times", property(built))


def _trajectory(abs_rho12) -> Trajectory:
    """A trajectory on t = 0, 1, 2, ... whose real rho12 is the given sequence."""
    rho12 = np.asarray(abs_rho12, dtype=complex)
    half = np.full_like(rho12, 0.5)
    return Trajectory(np.arange(len(rho12), dtype=float), np.stack([half, rho12, rho12, half], 1))


_RATE = ChiRate(chi=0.01, n_occ=0.0, omega_21=0.1)
# (call, exception, message): the library refuses each input by name, whoever calls it
LIBRARY_INPUT_CHECKS = {
    "sweep-parameter": (
        lambda: _sweep(PiezoelectricBath(), "g", [0.5], temperature=0.03),
        ValueError, "swept_parameter must be one of",
    ),
    "sweep-engine": (
        lambda: _sweep(PiezoelectricBath(), "omega_l", [0.5], temperature=0.03, engine="rk45"),
        ValueError, "engine must be one of",
    ),
    "evaluate-point-engine": (
        lambda: analysis.evaluate_point(PiezoelectricBath(), 0.03, 0.05, "bogus", 500.0, 5000),
        ValueError, "engine must be one of .*, got 'bogus'",
    ),
    "ohmic-point-without-a-qubit": (
        lambda: analysis.evaluate_point(OhmicBath(), 0.03, None, "closed_form"),
        ValueError, "the Ohmic bath has no omega_l to bind T_c to",
    ),
    "closed-form-empty-times": (
        lambda: closed_form_trajectory(_RATE, np.array([])), ValueError, "non-empty 1-d array"
    ),
    "closed-form-2-d-times": (
        lambda: closed_form_trajectory(_RATE, np.zeros((2, 2))), ValueError, "non-empty 1-d array"
    ),
    "closed-form-negative-times": (
        lambda: closed_form_trajectory(_RATE, np.array([-1.0, 0.0])),
        ValueError, "times must be >= 0",
    ),
    "closed-form-nan-times": (
        lambda: closed_form_trajectory(_RATE, np.array([math.nan])),
        ValueError, "times must be >= 0",
    ),
    "closed-form-unordered-times": (
        lambda: closed_form_trajectory(_RATE, np.array([0.0, 2.0, 1.0])),
        ValueError, "times must be strictly increasing",
    ),
    "time-grid-no-steps": (lambda: time_grid(10.0, 0), ValueError, "n_steps must be >= 1"),
    "bath-not-an-object": (
        lambda: bath_from_dict(5), ValueError, "bath must be an object, got int"
    ),
    "spectral-density-of-a-non-bath": (
        lambda: spectral_density("pcpb", 0.1), TypeError, "unknown bath model"
    ),
    "bath-to-dict-of-a-non-bath": (lambda: bath_to_dict("pcpb"), TypeError, "unknown bath model"),
    "empirical-t2-starting-below-the-threshold": (
        lambda: decoherence_time_empirical(_trajectory([0.1] * 10)), ValueError, "starts below"
    ),
    "empirical-t2-of-a-single-sample": (
        lambda: decoherence_time_empirical(_trajectory([0.5])),
        TrajectoryTooShortError, "^trajectory too short: a single sample spans no time$",
    ),
}


class TestLibraryInputChecks:
    @pytest.mark.parametrize(
        "call, exception, message",
        list(LIBRARY_INPUT_CHECKS.values()),
        ids=list(LIBRARY_INPUT_CHECKS),
    )
    def test_bad_input_is_refused_by_name(self, call, exception, message):
        with pytest.raises(exception, match=message):
            call()

    def test_fewer_than_seven_samples_fall_back_to_the_crossing(self):
        # too few samples to find a stationary one: the e^-1/2 crossing is interpolated
        threshold = 0.5 * math.exp(-1.0)
        expected = 2.0 + (threshold - 0.3) / (0.15 - 0.3)
        t2 = decoherence_time_empirical(_trajectory([0.5, 0.4, 0.3, 0.15, 0.1]))
        assert t2 == pytest.approx(expected, rel=1e-15)
