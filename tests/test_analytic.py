import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import FIGURE_SETS, MiB, allocation_peak
from dqdsim import (
    ChiRate,
    OhmicBath,
    PiezoelectricBath,
    QubitParams,
    TimeGrid,
    chi_rate,
    closed_form_derivative,
    closed_form_rdm,
    closed_form_trajectory,
    diagonalize,
    initial_state,
)
from dqdsim import analytic
from dqdsim.redfield import SAMPLE_BLOCK
from test_redfield import DAMPING_REGIMES, REPLAY_LENGTHS, REPLAY_SAMPLES, WINDOW_EDGES
from test_redfield import LAZY_GRIDS, check_one_pass, count_calls, count_full_slices, oracle_jn
from test_redfield import window_lengths


def oracle_rate(bath, temperature, tc):
    eig = diagonalize(QubitParams(tc))
    j, n = oracle_jn(bath, eig.omega_21, temperature)
    return 0.5 * j * (1.0 + 2.0 * n), n


class TestChiRate:
    @pytest.mark.parametrize("label,bath,temperature,tc", FIGURE_SETS)
    def test_figure_parameter_sets(self, label, bath, temperature, tc):
        eig = diagonalize(QubitParams(tc))
        rate = chi_rate(eig, bath, temperature)
        chi_expected, n_expected = oracle_rate(bath, temperature, tc)
        assert rate.chi == pytest.approx(chi_expected, rel=1e-12)
        assert rate.n_occ == pytest.approx(n_expected, rel=1e-12)
        assert rate.omega_21 == 2.0 * tc

    @pytest.mark.parametrize("temperature", [0.2, 0.3, 1.0])
    def test_temperature_dependence(self, eig_default, temperature):
        rate = chi_rate(eig_default, PiezoelectricBath(), temperature)
        chi_expected, _ = oracle_rate(PiezoelectricBath(), temperature, 0.05)
        assert rate.chi == pytest.approx(chi_expected, rel=1e-12)

    def test_zero_coupling(self, eig_default):
        assert chi_rate(eig_default, OhmicBath(eta=0.0), 0.030).chi == 0.0

    def test_chirate_validation(self):
        with pytest.raises(ValueError):
            ChiRate(chi=-1.0, n_occ=0.0, omega_21=0.1)
        with pytest.raises(ValueError):
            ChiRate(chi=0.1, n_occ=-0.5, omega_21=0.1)
        with pytest.raises(ValueError):
            ChiRate(chi=0.1, n_occ=0.0, omega_21=0.0)


class TestClosedForm:
    def test_t0_is_exactly_the_initial_state(self):
        for chi, n, w in [(2e-3, 0.0, 0.1), (2e-3, 0.87, 0.1), (0.5, 3.0, 0.1), (1e-6, 0.1, 0.9)]:
            rho = closed_form_rdm(ChiRate(chi=chi, n_occ=n, omega_21=w), 0.0)
            assert rho.rho11 == 0.5 and rho.rho22 == 0.5
            assert rho.rho12 == 0.5 and rho.rho21 == 0.5
            assert rho == initial_state()

    def test_long_time_equilibrium(self, eig_default):
        rate = chi_rate(eig_default, PiezoelectricBath(), 1.0)
        rho = closed_form_rdm(rate, 50.0 / rate.chi)
        expected = float((1 + oracle.bose(0.1, 1.0)) / (1 + 2 * oracle.bose(0.1, 1.0)))
        assert rho.rho11.real == pytest.approx(expected, abs=1e-9)
        assert abs(rho.rho12) < 1e-12

    def test_critical_damping_value(self):
        rate = ChiRate(chi=0.1, n_occ=0.0, omega_21=0.1)
        rho = closed_form_rdm(rate, 10.0)  # t = 1/chi
        expected = math.exp(-1.0) * (2.0 + 1.0j) / 2.0
        assert rho.rho12 == pytest.approx(expected, rel=1e-12)

    def test_critical_damping_continuity(self):
        # complex-s evaluation just off criticality agrees with the s -> 0 limit
        t = 10.0
        at_critical = closed_form_rdm(ChiRate(chi=0.1, n_occ=0.0, omega_21=0.1), t).rho12
        for eps in (-1e-6, 1e-6):
            nearby = closed_form_rdm(
                ChiRate(chi=0.1 * (1.0 + eps), n_occ=0.0, omega_21=0.1), t
            ).rho12
            assert abs(nearby - at_critical) < 1e-5

    def test_series_switch_continuity(self):
        # |s t| crossing the 1e-4 series threshold, against the oracle
        chi, w = 0.3, 0.1  # overdamped: s = sqrt(0.08)
        s = math.sqrt(chi * chi - w * w)
        rate = ChiRate(chi=chi, n_occ=0.2, omega_21=w)
        for factor in (0.99, 1.0, 1.01):
            t = 1e-4 * factor / s
            got = closed_form_rdm(rate, t).rho12
            expected = complex(oracle.rho12_closed(chi, w, t))
            assert got == pytest.approx(expected, rel=1e-11)

    def test_against_oracle_across_regimes(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            w = float(rng.uniform(0.01, 1.0))
            chi = float(w * rng.uniform(0.001, 3.0))  # under-, over- and near-critical
            n = float(rng.uniform(0.0, 2.0))
            horizon = min(30.0 / chi, 30.0 / w) if chi > 0 else 10.0 / w
            t = float(rng.uniform(0.0, horizon))
            rate = ChiRate(chi=chi, n_occ=n, omega_21=w)
            got = closed_form_rdm(rate, t)
            exp12 = complex(oracle.rho12_closed(chi, w, t))
            exp11 = float(oracle.rho11_closed(n, chi, t))
            assert got.rho12 == pytest.approx(exp12, rel=1e-10, abs=1e-13)
            assert got.rho11.real == pytest.approx(exp11, rel=1e-12)

    def test_trace_and_hermiticity_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rate = ChiRate(
                chi=float(rng.uniform(1e-5, 0.5)),
                n_occ=float(rng.uniform(0.0, 3.0)),
                omega_21=float(rng.uniform(0.01, 1.0)),
            )
            rho = closed_form_rdm(rate, float(rng.uniform(0.0, 100.0)))
            assert rho.rho11 + rho.rho22 == 1.0
            assert rho.rho21 == rho.rho12.conjugate()

    @pytest.mark.parametrize("label,bath,temperature,tc", FIGURE_SETS)
    def test_envelope_bound(self, label, bath, temperature, tc):
        eig = diagonalize(QubitParams(tc))
        rate = chi_rate(eig, bath, temperature)
        omega_r = math.sqrt(rate.omega_21**2 - rate.chi**2)
        times = np.linspace(0.0, 5.0 / rate.chi, 2000)
        traj = closed_form_trajectory(rate, times)
        bound = 0.5 * np.exp(-rate.chi * times) * (1.0 + rate.chi / omega_r)
        assert np.all(traj.abs_rho12 <= bound * (1.0 + 1e-12))

    def test_population_growth_is_monotone(self, eig_default):
        rate = chi_rate(eig_default, PiezoelectricBath(), 1.0)
        times = np.linspace(0.0, 6.0 / rate.chi, 500)
        traj = closed_form_trajectory(rate, times)
        assert np.all(np.diff(traj.rho11) > 0)

    def test_overdamped_large_time_stays_finite(self):
        rate = ChiRate(chi=0.5, n_occ=0.1, omega_21=0.1)
        rho = closed_form_rdm(rate, 5000.0)
        assert np.isfinite(rho.rho12.real) and np.isfinite(rho.rho12.imag)
        assert abs(rho.rho12) < 1e-12

    def test_vectorized_matches_scalar(self, eig_default):
        rate = chi_rate(eig_default, OhmicBath(eta=0.08), 0.030)
        times = np.linspace(0.0, 2000.0, 101)
        traj = closed_form_trajectory(rate, times)
        for i in (0, 13, 50, 100):
            assert traj.state(i) == closed_form_rdm(rate, float(times[i]))

    def test_negative_time_rejected(self):
        rate = ChiRate(chi=0.1, n_occ=0.0, omega_21=0.1)
        with pytest.raises(ValueError):
            closed_form_rdm(rate, -1.0)
        with pytest.raises(ValueError):
            closed_form_derivative(rate, -1.0)


def two_exponential_closed_form(chi: float, w: float, n: float, t: np.ndarray) -> np.ndarray:
    """The closed form with both exponentials evaluated in every regime, series under its mask."""
    one_plus_2n = 1.0 + 2.0 * n
    s2 = chi * chi - w * w
    s = cmath.sqrt(complex(s2, 0.0))
    data = np.empty((len(t), 4), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho11 = 0.5 - np.expm1(-2.0 * chi * t) / (2.0 * one_plus_2n)
        a = np.exp((-chi + s) * t)
        b = np.exp((-chi - s) * t)
        rho12 = (a + b) / 4.0 + (chi + 1j * w) * (a - b) / (4.0 * s)
        z2 = s2 * t * t
        small = np.abs(z2) < 1e-4**2
        ts, z2 = t[small], z2[small]
        cosh_ser = 1.0 + z2 / 2.0 + z2 * z2 / 24.0
        sinhc_ser = 1.0 + z2 / 6.0 + z2 * z2 / 120.0
        rho12[small] = np.exp(-chi * ts) * (cosh_ser + (chi + 1j * w) * ts * sinhc_ser) / 2.0
    data[:, 0] = rho11
    data[:, 1] = rho12
    data[:, 2] = np.conj(rho12)
    data[:, 3] = 1.0 - rho11
    return data


@st.composite
def damped_rates(draw):
    """(chi, w, n): underdamped, critically damped (s2 == 0) or overdamped, chi = 0 and inf too."""
    w = draw(st.floats(1e-3, 10.0))
    regime = draw(st.sampled_from(["under", "critical", "over"]))
    if regime == "under":
        chi = w * draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
    elif regime == "critical":
        chi = w
    else:
        overdamped = st.floats(1.0, 1e3, exclude_min=True).map(lambda f: w * f)
        chi = draw(st.one_of(overdamped, st.just(1e300), st.just(math.inf)))
    return chi, w, draw(st.floats(0.0, 10.0))


class TestConjugatePairBitForBit:
    """The closed form equals its two-exponential evaluation byte for byte, in every regime."""

    @given(
        rate=damped_rates(),
        n_series=st.integers(1, 8),
        n_wide=st.integers(0, 300),
        span=st.floats(1e-3, 50.0),
    )
    @settings(max_examples=300)
    # chi = 1e300: a ufunc writing into a strided column of out gave a NaN of the other sign
    @example(rate=(1e300, 1.0, 0.0), n_series=1, n_wide=3, span=1.0)
    def test_generated_rates_and_grids(self, rate, n_series, n_wide, span):
        chi, w, n = rate
        s2 = chi * chi - w * w
        scale = 1.0 / math.sqrt(abs(s2)) if 0.0 < abs(s2) < math.inf else 1.0 / w
        # t = 0 and samples with |s*t| inside the series region, then a wide stretch
        series = np.arange(n_series) * (1e-5 * scale)
        wide = 1e-4 * scale + np.arange(1, n_wide + 1) * (span * scale / max(n_wide, 1))
        times = np.concatenate([series, wide])
        got = closed_form_trajectory(ChiRate(chi=chi, n_occ=n, omega_21=w), times)
        assert got.data.tobytes() == two_exponential_closed_form(chi, w, n, times).tobytes()

    @pytest.mark.parametrize("label,bath,temperature,tc", FIGURE_SETS)
    def test_figure_sets_on_a_time_grid(self, label, bath, temperature, tc):
        rate = chi_rate(diagonalize(QubitParams(tc)), bath, temperature)
        grid = TimeGrid(5.0 / rate.chi, 2500)
        got = closed_form_trajectory(rate, grid)
        expected = two_exponential_closed_form(rate.chi, rate.omega_21, rate.n_occ, grid[:])
        assert got.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "chi,w", [(0.01, 0.1), (0.5, 0.1), (0.1, 0.1)],
        ids=["underdamped", "overdamped", "critical"],
    )
    def test_two_full_blocks_and_a_ragged_tail(self, chi, w):
        times = np.arange(2 * SAMPLE_BLOCK + 77) * (20.0 / chi / (2 * SAMPLE_BLOCK))
        got = closed_form_trajectory(ChiRate(chi=chi, n_occ=0.3, omega_21=w), times)
        assert got.data.tobytes() == two_exponential_closed_form(chi, w, 0.3, times).tobytes()

    def test_series_region_across_a_block_boundary(self):
        chi, w = 0.05, 0.1
        times = series_across_a_block_boundary()
        got = closed_form_trajectory(ChiRate(chi=chi, n_occ=0.3, omega_21=w), times)
        assert got.data.tobytes() == two_exponential_closed_form(chi, w, 0.3, times).tobytes()


def series_across_a_block_boundary() -> np.ndarray:
    """Times whose first SAMPLE_BLOCK + 100 samples have |s*t| < 1e-4 (chi = 0.05, w = 0.1)."""
    s = math.sqrt(0.1 * 0.1 - 0.05 * 0.05)
    series = np.arange(SAMPLE_BLOCK + 100) * (0.99e-4 / s / (SAMPLE_BLOCK + 100))
    wide = series[-1] + np.arange(1, SAMPLE_BLOCK + 78) * (100.0 / SAMPLE_BLOCK)
    times = np.concatenate([series, wide])
    assert s * times[SAMPLE_BLOCK] < 1e-4 <= s * times[SAMPLE_BLOCK + 100]
    return times


def replay_times(regime: str) -> tuple[float, float, np.ndarray]:
    if regime == "series":
        return 0.05, 0.1, series_across_a_block_boundary()
    chi, w = DAMPING_REGIMES[regime]
    return chi, w, np.arange(REPLAY_SAMPLES) * (20.0 / chi / (2 * SAMPLE_BLOCK))


class TestReplayedClosedForm:
    """closed_form_trajectory's blocks are the whole-grid closed form, bit for bit, at any grid
    and thinning."""

    @pytest.mark.parametrize("n_samples", REPLAY_LENGTHS)
    @pytest.mark.parametrize("every", [1, 3, 80])
    @pytest.mark.parametrize("regime", [*DAMPING_REGIMES, "series"])
    def test_blocks_are_the_stored_rows(self, regime, every, n_samples):
        chi, w, times = replay_times(regime)
        times = times[:n_samples]
        traj = closed_form_trajectory(ChiRate(chi=chi, n_occ=0.3, omega_21=w), times)
        blocks = [block.copy() for block in traj.blocks(every)]
        assert [len(block) for block in blocks] == window_lengths(n_samples, every)
        expected = two_exponential_closed_form(chi, w, 0.3, times)[::every]
        assert np.concatenate(blocks).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_samples", WINDOW_EDGES)
    @pytest.mark.parametrize("every", [1, 3, 80])
    @pytest.mark.parametrize("regime", [*DAMPING_REGIMES, "series"])
    def test_window_edges(self, regime, every, n_samples):
        chi, w, times = replay_times(regime)
        times = times[:n_samples]
        traj = closed_form_trajectory(ChiRate(chi=chi, n_occ=0.3, omega_21=w), times)
        blocks = []
        for block in traj.blocks(every):
            blocks.append(block.copy())
            block[...] = math.nan  # a reader may overwrite each block
        assert [len(block) for block in blocks] == window_lengths(n_samples, every)
        expected = two_exponential_closed_form(chi, w, 0.3, times)[::every]
        assert np.concatenate(blocks).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("regime", [*DAMPING_REGIMES, "series"])
    def test_one_source_pass_serves_every_accessor(self, monkeypatch, regime):
        chi, w, times = replay_times(regime)
        passes = count_calls(monkeypatch, analytic, "_closed_form_blocks")
        traj = closed_form_trajectory(ChiRate(chi=chi, n_occ=0.3, omega_21=w), times)
        check_one_pass(traj, passes, two_exponential_closed_form(chi, w, 0.3, times))

    @pytest.mark.parametrize("grid", LAZY_GRIDS)
    @pytest.mark.parametrize("every", [1, 3, 80])
    @pytest.mark.parametrize("regime", list(DAMPING_REGIMES))
    def test_a_time_grid_replays_as_its_built_times(self, monkeypatch, regime, every, grid):
        chi, w = DAMPING_REGIMES[regime]
        rate, checked = ChiRate(chi=chi, n_occ=0.3, omega_21=w), TimeGrid(*grid)
        built = closed_form_trajectory(rate, checked[:])
        expected = [block.copy() for block in built.blocks(every)]
        full = count_full_slices(monkeypatch)
        traj = closed_form_trajectory(rate, checked)
        got = [block.copy() for block in traj.blocks(every)]
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
        assert traj._times is checked and full == []  # taken as it is, not built


def test_closed_form_holds_little_beyond_its_output():
    rate = ChiRate(chi=1.0 / 59000.0, n_occ=0.3, omega_21=0.1)
    traj = closed_form_trajectory(rate, TimeGrid(2.0e5, 200000))
    data, peak = allocation_peak(lambda: traj.data)
    assert peak <= data.nbytes + 2 * MiB


# What _fill_block may allocate beside out on one window, in window-sized complex arrays:
# the exponential pair takes three; under critical damping every sample takes the series
# instead, whose four float arrays and one complex one meet numpy's float-to-complex cast
# buffer (3.5 measured)
FILL_BLOCK_WINDOWS = {"underdamped": 3.25, "overdamped": 3.25, "critical": 3.75}


@pytest.mark.parametrize("regime", DAMPING_REGIMES)
def test_fill_block_allocates_a_few_windows_beside_out(regime):
    chi, w = DAMPING_REGIMES[regime]
    rate = ChiRate(chi=chi, n_occ=0.3, omega_21=w)
    t = np.arange(SAMPLE_BLOCK) * (20.0 / chi / SAMPLE_BLOCK)
    out = np.empty((SAMPLE_BLOCK, 4), dtype=complex)
    analytic._fill_block(rate, t, out)  # anything made once per process is made here
    _, peak = allocation_peak(lambda: analytic._fill_block(rate, t, out))
    assert peak <= FILL_BLOCK_WINDOWS[regime] * SAMPLE_BLOCK * out.itemsize


def _series_edge(fraction: float, n_samples: int) -> tuple[float, float, np.ndarray]:
    """Near-critical (chi, w) and n_samples times whose largest |s2 t^2| is fraction of the
    series threshold: below 1 every sample takes the series, above it only the last does."""
    chi, w = 0.1, 0.1 * (1.0 - 1e-9)
    edge = math.sqrt(1e-4**2 / abs(chi * chi - w * w))
    times = np.append(np.linspace(0.0, 0.5 * edge, n_samples - 1), math.sqrt(fraction) * edge)
    return chi, w, times


@pytest.mark.parametrize(
    "chi, w, t",
    [
        (*DAMPING_REGIMES["critical"], np.arange(SAMPLE_BLOCK) * (20.0 / 0.1 / SAMPLE_BLOCK)),
        (*DAMPING_REGIMES["critical"], np.array([0.0, 1e300])),
        _series_edge(0.999, 100),
        _series_edge(1.001, 100),
        _series_edge(1.001, 1),
        (*DAMPING_REGIMES["critical"], np.array([])),
    ],
    ids=["critical", "critical-huge-t", "all-series", "last-leaves", "one-leaves", "empty"],
)
def test_fill_block_is_the_formula_with_or_without_the_pair(chi, w, t):
    # the pair is skipped only where the series covers every sample; the bits are the same
    rate = ChiRate(chi=chi, n_occ=0.3, omega_21=w)
    out = np.empty((len(t), 4), dtype=complex)
    analytic._fill_block(rate, t, out)
    assert out.tobytes() == two_exponential_closed_form(chi, w, 0.3, t).tobytes()


# chi = 0.1 = omega_21 is critical damping, s = 0 exactly
INFINITE_TIME_REGIMES = pytest.mark.parametrize(
    "chi", [0.01, 0.5, 0.1], ids=["underdamped", "overdamped", "critical"]
)


@INFINITE_TIME_REGIMES
def test_infinite_time_is_the_equilibrium_state(chi):
    rate = ChiRate(chi=chi, n_occ=0.3, omega_21=0.1)
    state = closed_form_trajectory(rate, [0.0, 1.0, math.inf]).state(2)
    assert state == closed_form_rdm(rate, math.inf)
    assert (state.rho11, state.rho12, state.rho22) == (0.8125, 0.0, 0.1875)  # (1+n)/(1+2n)


@INFINITE_TIME_REGIMES
def test_nothing_moves_at_infinite_time(chi):
    derivative = closed_form_derivative(ChiRate(chi=chi, n_occ=0.3, omega_21=0.1), math.inf)
    assert derivative.tolist() == [0.0] * 4


class TestDerivative:
    @pytest.mark.parametrize(
        "chi,w", [(2.0443e-3, 0.1), (0.5, 0.1), (0.1, 0.1), (0.0999999, 0.1)]
    )
    def test_against_finite_differences(self, chi, w):
        rate = ChiRate(chi=chi, n_occ=0.4, omega_21=w)
        for t in (0.5, 5.0, 50.0):
            h = 1e-4 * max(1.0, t)
            plus = closed_form_rdm(rate, t + h).as_vector()
            minus = closed_form_rdm(rate, t - h).as_vector()
            fd = (plus - minus) / (2.0 * h)
            exact = closed_form_derivative(rate, t)
            assert np.max(np.abs(fd - exact)) < 1e-6 * max(1.0, np.max(np.abs(exact)))

    def test_initial_slope(self):
        # d rho12/dt at t=0 is +i w/2; populations start at rate chi/(1+2n)
        rate = ChiRate(chi=0.01, n_occ=0.5, omega_21=0.2)
        deriv = closed_form_derivative(rate, 0.0)
        assert deriv[1] == pytest.approx(1j * 0.1, rel=1e-12)
        assert deriv[0] == pytest.approx(0.01 / 2.0, rel=1e-12)
