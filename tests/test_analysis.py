import math
import threading
import weakref

import numpy as np
import pytest

import oracle
from dqdsim import (
    ChiRate,
    NoDecoherenceError,
    OhmicBath,
    PiezoelectricBath,
    SweepError,
    SweepPoint,
    SweepSpec,
    TrajectoryTooShortError,
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
    time_grid,
)
from dqdsim import analysis
from dqdsim.redfield import StepSizeError


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
        assert isinstance(err.value.cause, StepSizeError)
        assert len(err.value.partial.points) == 1
        assert err.value.partial.points[0].value == 0.5

    def test_zero_coupling_point_aborts(self):
        spec = _sweep(
            OhmicBath(eta=0.0), "temperature", [0.03, 1.0], tunneling_Tc=0.05
        )
        with pytest.raises(SweepError) as err:
            run_sweep(spec)
        assert isinstance(err.value.cause, NoDecoherenceError)

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

        def recording(prep, powers):
            events.append(("evaluate", prep.temperature))
            # earlier points' trajectories are released before the next is evaluated
            assert all(ref() is None for ref in handed_out)
            return finish(prep, powers)

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

    def test_grid_built_once_and_powers_once_per_stack(self, monkeypatch):
        stacks, grids = [], []
        stride_powers, time_grid_ = analysis.stride_powers, analysis.time_grid

        def counting_powers(generators, *args):
            stacks.append(len(generators))
            return stride_powers(generators, *args)

        def counting_grid(*args):
            grids.append(args)
            return time_grid_(*args)

        monkeypatch.setattr(analysis, "stride_powers", counting_powers)
        monkeypatch.setattr(analysis, "time_grid", counting_grid)
        spec = _sweep(
            PiezoelectricBath(),
            "temperature",
            np.geomspace(0.02, 1.0, 40).tolist(),
            t_end=500.0,
            n_steps=1000,
            engine="numeric",
        )
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
        propagate = analysis.propagate_powers

        def counting(*args):
            propagated.append(args)
            return propagate(*args)

        monkeypatch.setattr(analysis, "propagate_powers", counting)
        seen = []
        with pytest.raises(SweepError) as err:
            run_sweep(spec, lambda point, run: seen.append(point))
        assert [p.index for p in seen] == list(range(17))
        assert err.value.partial.points == tuple(seen)
        assert err.value.value == value
        assert isinstance(err.value.cause, cause)
        assert str(err.value).startswith(f"sweep failed at {spec.swept_parameter}={value}: ")
        assert len(propagated) == trajectories


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
