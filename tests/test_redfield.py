import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import FIGURE_SETS
from dqdsim import (
    DeformationBath,
    DensityMatrix,
    OhmicBath,
    PiezoelectricBath,
    QubitParams,
    StepSizeError,
    TimeGrid,
    Trajectory,
    build_tensor,
    chi_rate,
    closed_form_trajectory,
    diagonalize,
    gamma_minus,
    gamma_plus,
    initial_state,
    liouvillian,
    propagate_numeric,
)
from dqdsim import redfield
from dqdsim.redfield import _POWER_BLOCK, SAMPLE_BLOCK, _rk4_blocks, replay_powers, replay_stack
from dqdsim.redfield import stride_powers

INDICES = (1, 2)

bath_st = st.one_of(
    st.builds(
        PiezoelectricBath,
        g=st.floats(min_value=1e-4, max_value=1.0),
        omega_d=st.floats(min_value=0.005, max_value=0.1),
        omega_l=st.floats(min_value=0.1, max_value=2.0),
    ),
    st.builds(
        DeformationBath,
        g=st.floats(min_value=1e-4, max_value=1.0),
        omega_d=st.floats(min_value=0.005, max_value=0.1),
        omega_l=st.floats(min_value=0.1, max_value=2.0),
    ),
    st.builds(
        OhmicBath,
        eta=st.floats(min_value=1e-4, max_value=1.0),
        omega_c=st.floats(min_value=0.01, max_value=0.5),
    ),
)
tc_st = st.floats(min_value=0.01, max_value=0.5)
temp_st = st.floats(min_value=0.01, max_value=2.0)


def oracle_jn(bath, omega, temperature):
    """(J, n) at a transition frequency, from the high-precision oracle."""
    if isinstance(bath, PiezoelectricBath):
        j = oracle.j_pcpb(omega, g=bath.g, omega_d=bath.omega_d, omega_l=bath.omega_l)
    elif isinstance(bath, DeformationBath):
        j = oracle.j_dcpb(omega, g=bath.g, omega_d=bath.omega_d, omega_l=bath.omega_l)
    else:
        j = oracle.j_ohmic(omega, eta=bath.eta, omega_c=bath.omega_c, s=bath.s_exponent)
    return float(j), float(oracle.bose(omega, temperature))


def reference_tensor(eig, bath, temperature):
    """R entry by entry: the module docstring's formula over the public Gp/Gm rates."""
    gp = lambda *tup: gamma_plus(eig, bath, temperature, *tup)
    gm = lambda *tup: gamma_minus(eig, bath, temperature, *tup)
    r = np.zeros((2, 2, 2, 2))
    for m, n, k, l in itertools.product(INDICES, repeat=4):
        val = gp(l, n, m, k) + gm(l, n, m, k)
        if n == l:
            val -= sum(gp(m, a, a, k) for a in INDICES)
        if m == k:
            val -= sum(gm(l, a, a, n) for a in INDICES)
        r[m - 1, n - 1, k - 1, l - 1] = val
    return r


def reference_liouvillian(tensor, eig):
    """The textbook loop over the level pairs (rho11, rho12, rho21, rho22)."""
    L = np.zeros((4, 4), dtype=complex)
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for i, (mu, nu) in enumerate(pairs):
        L[i, i] = -1j * eig.omega(mu, nu)
        for j, (kappa, lam) in enumerate(pairs):
            L[i, j] += tensor.element(mu, nu, kappa, lam)
    return L


class TestGammaRates:
    def test_emission_tuple(self, eig_default):
        bath = PiezoelectricBath()
        j, n = oracle_jn(bath, 0.1, 0.030)
        expected = 0.5 * j * (1.0 + n)
        assert gamma_plus(eig_default, bath, 0.030, 2, 1, 1, 2) == pytest.approx(
            expected, rel=1e-12
        )
        assert gamma_minus(eig_default, bath, 0.030, 2, 1, 1, 2) == pytest.approx(
            expected, rel=1e-12
        )

    def test_absorption_tuple(self, eig_default):
        bath = PiezoelectricBath()
        j, n = oracle_jn(bath, 0.1, 0.030)
        expected = 0.5 * j * n  # ~1.79e-14: thermal absorption at 30 mK
        assert gamma_plus(eig_default, bath, 0.030, 1, 2, 2, 1) == pytest.approx(
            expected, rel=1e-12
        )

    def test_zero_frequency_and_zero_element_tuples(self, eig_default):
        bath = PiezoelectricBath()
        for lam, nu, mu, kappa in [(2, 1, 1, 1), (1, 1, 1, 2), (2, 2, 2, 1), (1, 2, 2, 2)]:
            assert gamma_plus(eig_default, bath, 0.030, lam, nu, mu, kappa) == 0.0
            assert gamma_minus(eig_default, bath, 0.030, lam, nu, mu, kappa) == 0.0

    def test_minus_mirrors_plus_frequency_roles(self, eig_default):
        # Gm takes its frequency from the (lam, nu) pair where Gp uses (mu, kappa)
        for bath in (PiezoelectricBath(), OhmicBath(eta=0.08)):
            for temperature in (0.030, 1.0):
                for lam in INDICES:
                    for nu in INDICES:
                        for mu in INDICES:
                            for kappa in INDICES:
                                got = gamma_minus(
                                    eig_default, bath, temperature, lam, nu, mu, kappa
                                )
                                j, n = oracle_jn(bath, 0.1, temperature)
                                sz = eig_default.sz(lam, nu) * eig_default.sz(mu, kappa)
                                if lam > nu:
                                    expected = 0.5 * sz * j * (1.0 + n)
                                elif nu > lam:
                                    expected = 0.5 * sz * j * n
                                else:
                                    expected = 0.0
                                assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


class TestBuildTensor:
    @pytest.mark.parametrize("label,bath,temperature,tc", FIGURE_SETS)
    def test_population_and_coherence_blocks(self, label, bath, temperature, tc):
        eig = diagonalize(QubitParams(tc))
        tensor = build_tensor(eig, bath, temperature)
        j, n = oracle_jn(bath, eig.omega_21, temperature)
        chi = 0.5 * j * (1.0 + 2.0 * n)
        approx = lambda x: pytest.approx(x, rel=1e-12, abs=1e-300)
        assert tensor.element(1, 1, 1, 1) == approx(-j * n)
        assert tensor.element(1, 1, 2, 2) == approx(j * (1.0 + n))
        assert tensor.element(2, 2, 2, 2) == approx(-j * (1.0 + n))
        assert tensor.element(2, 2, 1, 1) == approx(j * n)
        assert tensor.element(1, 2, 1, 2) == approx(-chi)
        assert tensor.element(2, 1, 2, 1) == approx(-chi)
        assert tensor.element(1, 2, 2, 1) == approx(chi)
        assert tensor.element(2, 1, 1, 2) == approx(chi)

    def test_population_coherence_cross_terms_vanish(self, eig_default):
        tensor = build_tensor(eig_default, PiezoelectricBath(), 0.030)
        for mu, nu in [(1, 1), (2, 2)]:
            for kappa, lam in [(1, 2), (2, 1)]:
                assert tensor.element(mu, nu, kappa, lam) == 0.0
                assert tensor.element(kappa, lam, mu, nu) == 0.0

    def test_chi_effective_matches_chi_rate(self, eig_default):
        bath = PiezoelectricBath()
        tensor = build_tensor(eig_default, bath, 0.030)
        rate = chi_rate(eig_default, bath, 0.030)
        assert tensor.chi_effective == pytest.approx(rate.chi, rel=1e-14)

    @given(bath=bath_st, tc=tc_st, temperature=temp_st)
    @settings(max_examples=150)
    def test_trace_preservation_identity(self, bath, tc, temperature):
        eig = diagonalize(QubitParams(tc))
        tensor = build_tensor(eig, bath, temperature)
        for kappa in INDICES:
            for lam in INDICES:
                column_sum = sum(tensor.element(mu, mu, kappa, lam) for mu in INDICES)
                assert abs(column_sum) < 1e-12

    def test_zero_coupling_gives_zero_tensor(self, eig_default):
        tensor = build_tensor(eig_default, OhmicBath(eta=0.0), 0.030)
        assert np.all(tensor.r == 0.0)

    def test_overflowing_rates_fill_only_the_formula_entries(self, eig_default):
        # J(1+n) and Jn both overflow to inf; the entries the formula leaves
        # empty must stay an exact +0.0, not the NaN of 0 * inf
        tensor = build_tensor(eig_default, PiezoelectricBath(g=1e307), 1e4)
        expected = np.zeros((2, 2, 2, 2))
        for (mu, nu, kappa, lam), sign in {
            (1, 1, 1, 1): -1, (1, 1, 2, 2): 1, (2, 2, 1, 1): 1, (2, 2, 2, 2): -1,
            (1, 2, 1, 2): -1, (1, 2, 2, 1): 1, (2, 1, 1, 2): 1, (2, 1, 2, 1): -1,
        }.items():
            expected[mu - 1, nu - 1, kappa - 1, lam - 1] = sign * np.inf
        assert tensor.r.tobytes() == expected.tobytes()
        with pytest.raises(StepSizeError):
            propagate_numeric(tensor, eig_default, initial_state(), TimeGrid(100.0, 1000))


class TestLiouvillian:
    def test_structure(self, eig_default):
        bath = PiezoelectricBath()
        tensor = build_tensor(eig_default, bath, 0.030)
        rate = chi_rate(eig_default, bath, 0.030)
        L = liouvillian(tensor, eig_default)
        w, chi = eig_default.omega_21, rate.chi
        j, n = oracle_jn(bath, w, 0.030)
        assert L[1, 1] == pytest.approx(1j * w - chi, rel=1e-12)
        assert L[2, 2] == pytest.approx(-1j * w - chi, rel=1e-12)
        assert L[1, 2] == pytest.approx(chi, rel=1e-12)
        assert L[2, 1] == pytest.approx(chi, rel=1e-12)
        assert L[0, 0] == pytest.approx(-j * n, rel=1e-12, abs=1e-300)
        assert L[0, 3] == pytest.approx(j * (1 + n), rel=1e-12)
        # populations and coherences evolve independently
        for i in (0, 3):
            for k in (1, 2):
                assert L[i, k] == 0.0 and L[k, i] == 0.0


class TestAgainstTheLoops:
    """R and L equal, bit for bit, the entry loops they are assembled without."""

    @staticmethod
    def check(bath, tc, temperature):
        eig = diagonalize(QubitParams(tc))
        tensor = build_tensor(eig, bath, temperature)
        assert tensor.r.tobytes() == reference_tensor(eig, bath, temperature).tobytes()
        assert liouvillian(tensor, eig).tobytes() == reference_liouvillian(tensor, eig).tobytes()

    @pytest.mark.parametrize("label,bath,temperature,tc", FIGURE_SETS)
    def test_figure_sets(self, label, bath, temperature, tc):
        self.check(bath, tc, temperature)

    @given(bath=bath_st, tc=tc_st, temperature=temp_st)
    @settings(max_examples=100)
    def test_generated_points(self, bath, tc, temperature):
        self.check(bath, tc, temperature)



def reference_propagation(tensor, eig, rho0, t_end, n_steps, store_every):
    """Per-point RK4 as one 2-D matmul at a time: stride powers, then blocks of samples."""
    h = t_end / n_steps
    L = liouvillian(tensor, eig)
    eye = np.eye(4, dtype=complex)
    k1 = L @ eye
    k2 = L @ (eye + 0.5 * h * k1)
    k3 = L @ (eye + 0.5 * h * k2)
    k4 = L @ (eye + h * k3)
    stride = np.linalg.matrix_power(eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), store_every)
    n_stored = n_steps // store_every
    block = min(64, n_stored)
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
    return data


class TestStackAgainstThePerPointLoop:
    """The stacked RK4 set-up propagates bit for bit as the per-point loop."""

    @staticmethod
    def check(bath, tc, temperature, n_stored, store_every):
        eig = diagonalize(QubitParams(tc))
        tensor = build_tensor(eig, bath, temperature)
        n_steps = n_stored * store_every
        # a step at 90 % of the guard's limit
        t_end = 0.09 * n_steps / max(eig.omega_21, 2.0 * tensor.chi_effective)
        expected = reference_propagation(tensor, eig, initial_state(), t_end, n_steps, store_every)
        got = propagate_numeric(tensor, eig, initial_state(), TimeGrid(t_end, n_steps, store_every))
        assert got.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("label,bath,temperature,tc", FIGURE_SETS)
    @pytest.mark.parametrize("n_stored,store_every", [(1, 1), (63, 3), (64, 1), (1000, 2)])
    def test_figure_sets(self, label, bath, temperature, tc, n_stored, store_every):
        self.check(bath, tc, temperature, n_stored, store_every)

    @given(
        bath=bath_st,
        tc=tc_st,
        temperature=temp_st,
        n_stored=st.integers(1, 300),
        store_every=st.integers(1, 9),
    )
    @settings(max_examples=100)
    def test_generated_points(self, bath, tc, temperature, n_stored, store_every):
        self.check(bath, tc, temperature, n_stored, store_every)


class TestCoherenceNeverRises:
    """|rho12| never rises: d|rho12|^2/dt = -4 chi (Im rho12)^2 for every Hermitian state.

    This is why the T2 extractor fits stationary samples and looks for no maxima.
    """

    @given(
        bath=bath_st,
        tc=tc_st,
        temperature=temp_st,
        rho11=st.floats(min_value=0.0, max_value=1.0),
        modulus=st.floats(min_value=0.0, max_value=1.0),
        phase=st.floats(min_value=-np.pi, max_value=np.pi),
        n_stored=st.integers(1, 400),
        store_every=st.integers(1, 9),
    )
    @settings(max_examples=100)
    def test_generated_points(
        self, bath, tc, temperature, rho11, modulus, phase, n_stored, store_every
    ):
        eig = diagonalize(QubitParams(tc))
        tensor = build_tensor(eig, bath, temperature)
        n_steps = n_stored * store_every
        # a step at 90 % of the guard's limit
        t_end = 0.09 * n_steps / max(eig.omega_21, 2.0 * tensor.chi_effective)
        rho12 = modulus * np.sqrt(rho11 * (1.0 - rho11)) * np.exp(1j * phase)
        rho0 = DensityMatrix(rho11, rho12, np.conj(rho12), 1.0 - rho11)
        grid = TimeGrid(t_end, n_steps, store_every)
        numeric = propagate_numeric(tensor, eig, rho0, grid)
        closed = closed_form_trajectory(chi_rate(eig, bath, temperature), grid)
        # rounding is relative for normal doubles and absolute among the subnormals
        slack = 1e-12 * np.finfo(float).tiny
        for amps in (numeric.abs_rho12, closed.abs_rho12):
            assert np.all(amps[1:] <= amps[:-1] * (1 + 1e-12) + slack)


def per_matrix_blocks(powers: np.ndarray, y: np.ndarray, n_stored: int) -> np.ndarray:
    """Samples 1..n_stored as one (4, 4) @ (4,) product per power, block after block."""
    data = [y]
    for filled in range(0, n_stored, len(powers)):
        vals = powers[: min(len(powers), n_stored - filled)] @ data[-1]
        data.extend(vals)
    return np.array(data)


class TestOneProductPerBlock:
    """replay_powers' one matrix-vector product per block equals the per-matrix products."""

    @pytest.mark.parametrize("n_stored", [1, 37, 64, 65, 3 * 64 + 17])
    def test_ragged_last_block(self, eig_default, n_stored):
        L = liouvillian(build_tensor(eig_default, PiezoelectricBath(), 0.030), eig_default)
        grid = TimeGrid(1.5 * n_stored, 3 * n_stored, 3)  # h = 0.5
        powers = stride_powers(L[None], grid)[0]
        got = replay_powers(powers, initial_state(), grid)
        expected = per_matrix_blocks(powers, initial_state().as_vector(), n_stored)
        assert got.data.tobytes() == expected.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n_stored=st.integers(1, 400))
    @settings(max_examples=100)
    def test_random_powers(self, seed, n_stored):
        rng = np.random.default_rng(seed)
        shape = (min(64, n_stored), 4, 4)
        powers = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 4.0
        rho0 = initial_state()
        got = replay_powers(powers, rho0, TimeGrid(float(n_stored), n_stored))
        expected = per_matrix_blocks(powers, rho0.as_vector(), n_stored)
        assert got.data.tobytes() == expected.tobytes()


# (chi, omega_21) of the three damping regimes, n = 0.3 throughout
DAMPING_REGIMES = {"underdamped": (0.01, 0.1), "overdamped": (0.5, 0.1), "critical": (0.1, 0.1)}
# two full sample windows and a ragged tail
REPLAY_SAMPLES = 2 * SAMPLE_BLOCK + 77
# grid lengths: one that is not a multiple of the 64 power blocks, one that is, both within
# a window, and one past two windows with a ragged tail
REPLAY_LENGTHS = [100, 1024, 2 * SAMPLE_BLOCK + 37]
# the samples in each window of a grid longer than SAMPLE_BLOCK
LONG_WINDOW = SAMPLE_BLOCK // 4
# grid lengths around the window boundaries: where the rule switches from one window to long
# windows, and a long grid ending on a long window's edge and one sample past it
WINDOW_EDGES = [SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                5 * LONG_WINDOW, 5 * LONG_WINDOW + 1, 2 * SAMPLE_BLOCK + 1]


def window_lengths(n_samples: int, every: int) -> list[int]:
    """The number of every-th samples in each window of an n_samples grid: a grid of at most
    SAMPLE_BLOCK samples is one window, a longer one is read LONG_WINDOW samples at a time."""
    size = n_samples if n_samples <= SAMPLE_BLOCK else LONG_WINDOW
    return [len(range(lo + (-lo) % every, min(lo + size, n_samples), every))
            for lo in range(0, n_samples, size)]


def decay_generator(chi: float, w: float, n: float) -> np.ndarray:
    """A 4x4 Liouvillian with this model's structure: populations relax at 2 chi toward
    (1+n)/(1+2n), coherences decay at -chi +- sqrt(chi^2 - w^2), so chi picks the regime."""
    down, up = 2.0 * chi * (1.0 + n) / (1.0 + 2.0 * n), 2.0 * chi * n / (1.0 + 2.0 * n)
    return np.array(
        [
            [-up, 0.0, 0.0, down],
            [0.0, 1j * w - chi, chi, 0.0],
            [0.0, chi, -1j * w - chi, 0.0],
            [up, 0.0, 0.0, -down],
        ]
    )


@functools.cache
def replay_case(regime: str, n_samples: int = REPLAY_SAMPLES):
    """Stride powers, grid and per-matrix reference samples of one damping regime."""
    chi, w = DAMPING_REGIMES[regime]
    n_stored = n_samples - 1
    grid = TimeGrid(20.0 / chi, n_stored)
    powers = stride_powers(decay_generator(chi, w, 0.3)[None], grid)[0]
    return powers, grid, per_matrix_blocks(powers, initial_state().as_vector(), n_stored)


def count_calls(monkeypatch, module, name: str) -> list:
    """Patch module.name to record the arguments of each call from now on; the record."""
    calls, call = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return call(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def check_one_pass(traj: Trajectory, passes: list, expected: np.ndarray) -> None:
    """A fresh replay's data, read-only, is kept: every accessor, however many calls, costs one
    source pass (recorded in passes), and blocks() still replays the same bytes."""
    assert passes == []
    data = traj.data
    assert data.tobytes() == expected.tobytes() and not data.flags.writeable
    states = [traj.state(i) for i in range(len(traj))]
    assert states == traj.states
    assert np.array([state.as_vector() for state in states]).tobytes() == expected.tobytes()
    columns = [traj.rho11, traj.rho22, traj.rho12, traj.abs_rho12]
    reference = [expected[:, 0].real, expected[:, 3].real, expected[:, 1], np.abs(expected[:, 1])]
    assert [c.tobytes() for c in columns] == [r.tobytes() for r in reference]
    assert traj.data is data and len(passes) == 1
    again = np.concatenate([block.copy() for block in traj.blocks()])
    assert again.tobytes() == expected.tobytes() and len(passes) == 2
    assert traj.data is data


class TestReplayedRecurrence:
    """replay_powers' blocks are the stored samples, bit for bit, at any grid and thinning."""

    @pytest.mark.parametrize("n_samples", REPLAY_LENGTHS)
    @pytest.mark.parametrize("every", [1, 3, 80])
    @pytest.mark.parametrize("regime", list(DAMPING_REGIMES))
    def test_blocks_are_the_stored_rows(self, regime, every, n_samples):
        powers, grid, expected = replay_case(regime, n_samples)
        traj = replay_powers(powers, initial_state(), grid)
        blocks = [block.copy() for block in traj.blocks(every)]
        assert [len(block) for block in blocks] == window_lengths(n_samples, every)
        assert np.concatenate(blocks).tobytes() == expected[::every].tobytes()

    @pytest.mark.parametrize("regime", list(DAMPING_REGIMES))
    def test_one_source_pass_serves_every_accessor(self, monkeypatch, regime):
        powers, grid, expected = replay_case(regime)
        passes = count_calls(monkeypatch, redfield, "_rk4_blocks")
        traj = replay_powers(powers, initial_state(), grid)
        assert len(traj) == REPLAY_SAMPLES
        check_one_pass(traj, passes, expected)

    @pytest.mark.parametrize("n_stored", [1, 63, 64, 65])
    @pytest.mark.parametrize("every", [1, 2, 64])
    def test_short_grids_and_small_blocks(self, eig_default, n_stored, every):
        L = liouvillian(build_tensor(eig_default, PiezoelectricBath(), 0.030), eig_default)
        grid = TimeGrid(0.5 * n_stored, n_stored)  # h = 0.5
        powers = stride_powers(L[None], grid)[0]
        expected = per_matrix_blocks(powers, initial_state().as_vector(), n_stored)
        (block,) = replay_powers(powers, initial_state(), grid).blocks(every)
        assert block.tobytes() == expected[::every].tobytes()

    def test_block_arguments_are_checked(self):
        powers, grid, _ = replay_case("underdamped", 100)
        stored = Trajectory(np.arange(3.0), np.arange(12.0).reshape(3, 4) + 0j)
        rate = chi_rate(diagonalize(QubitParams(0.05)), PiezoelectricBath(), 0.030)
        replays = (replay_powers(powers, initial_state(), grid), closed_form_trajectory(rate, grid))
        for traj in (stored, *replays):
            for every in (0, -1, np.int64(0)):
                with pytest.raises(ValueError, match="every must be >= 1"):
                    traj.blocks(every)
            for every in (2.0, 1.0, True, np.float64(2.0), "2", None):
                message = re.escape(f"every must be an integer, got {every!r}")
                with pytest.raises(ValueError, match=f"^{message}$"):
                    traj.blocks(every)
            (block,) = traj.blocks(np.int64(2))  # numpy integers are counts
            assert block.tobytes() == traj.data[::2].tobytes()


# within one window, with a ragged last power block of 13
STACK_SAMPLES = 3 * 1024 + 78


@functools.cache
def stack_case(stack: int, n_samples: int = STACK_SAMPLES):
    """Stride powers (stack, 64, 4, 4) cycling through the damping regimes, and each one's
    per-matrix reference samples; generator j is its regime's scaled by 1 + j/8."""
    regimes = list(DAMPING_REGIMES.values())
    generators = np.stack(
        [decay_generator(chi * (1 + j / 8), w * (1 + j / 8), 0.3)
         for j, (chi, w) in zip(range(stack), itertools.cycle(regimes))]
    )
    n_stored = n_samples - 1
    # a step of 0.03 to within an ulp: the references are made from these powers
    powers = stride_powers(generators, TimeGrid(0.03 * n_stored, n_stored))
    return powers, [per_matrix_blocks(p, initial_state().as_vector(), n_stored) for p in powers]


class TestStackedRecurrence:
    """The recurrence of a stack of generators gives each one's per-matrix samples, bit for bit."""

    @pytest.mark.parametrize("n_samples", [100, 1024 + 37])
    @pytest.mark.parametrize("every", [1, 3, 80])
    @pytest.mark.parametrize("stack", [1, 2, 3, 16])
    def test_blocks_are_each_generators_reference(self, stack, every, n_samples):
        powers, expected = stack_case(stack, n_samples)
        y0 = initial_state().as_vector()
        (block,) = _rk4_blocks(powers, y0, n_samples - 1, every)
        assert block.shape == (stack, len(range(0, n_samples, every)), 4)
        for samples, reference in zip(block, expected, strict=True):
            assert samples.tobytes() == reference[::every].tobytes()

    @pytest.mark.parametrize("stack", [1, 2, 3, 16])
    def test_replay_stack_fills_its_buffer(self, stack):
        powers, expected = stack_case(stack)
        out = np.empty((stack, STACK_SAMPLES, 4), dtype=complex)
        got = replay_stack(powers, initial_state(), out)
        assert got.shape == out.shape and np.shares_memory(got, out)
        assert got.tobytes() == np.stack(expected).tobytes()
        alone = replay_powers(powers[-1], initial_state(), TimeGrid(1.0, STACK_SAMPLES - 1))
        assert alone.data.tobytes() == expected[-1].tobytes()


class TestWindowBoundaries:
    """Every read walks the same windows, one up to SAMPLE_BLOCK samples and LONG_WINDOW
    samples each beyond; their edges change no bit."""

    def test_windows_start_on_power_blocks(self):
        # the replay matches the stored recurrence only if each window starts a power block
        assert SAMPLE_BLOCK % _POWER_BLOCK == 0 and LONG_WINDOW % _POWER_BLOCK == 0

    @pytest.mark.parametrize("n_samples", WINDOW_EDGES)
    @pytest.mark.parametrize("every", [1, 3, 80])
    @pytest.mark.parametrize("stack", [1, 3])
    def test_overwritten_blocks_are_each_generators_reference(self, stack, every, n_samples):
        # the sample pass writes the cross-engine difference over each numeric block, so
        # overwriting one must leave the later ones as they are
        powers, expected = stack_case(stack, n_samples)
        y0 = initial_state().as_vector()
        blocks = []
        for block in _rk4_blocks(powers, y0, n_samples - 1, every):
            blocks.append(block.copy())
            block[...] = math.nan
        assert [block.shape for block in blocks] == [
            (stack, n, 4) for n in window_lengths(n_samples, every)
        ]
        for samples, reference in zip(np.concatenate(blocks, axis=1), expected, strict=True):
            assert samples.tobytes() == reference[::every].tobytes()

    def test_the_rule_in_numbers(self):
        cases = [(8192, 1, [8192]), (8192, 80, [103]), (8193, 1, [2048] * 4 + [1]),
                 (8193, 80, [26, 26, 25, 26, 0]), (5 * 2048, 3, [683, 683, 682, 683, 683])]
        for n_samples, every, lengths in cases:
            assert window_lengths(n_samples, every) == lengths
            windows = redfield.sample_windows(n_samples, every)
            assert [len(range(*kept.indices(n_samples))) for kept in windows] == lengths

    def test_windows_of_a_stored_trajectory(self):
        for n_samples in WINDOW_EDGES:
            data = np.arange(4 * n_samples, dtype=complex).reshape(-1, 4)
            traj = Trajectory(np.arange(n_samples, dtype=float), data)
            for every in (1, 3, 80):
                blocks = list(traj.blocks(every))
                assert [len(block) for block in blocks] == window_lengths(n_samples, every)
                assert np.concatenate(blocks).tobytes() == data[::every].tobytes()


class TestPropagation:
    def test_isolated_system_phase(self, eig_default):
        # zero tensor: rho12(t) = exp(+i w21 t)/2 since omega_12 = -omega_21
        tensor = build_tensor(eig_default, OhmicBath(eta=0.0), 0.030)
        traj = propagate_numeric(tensor, eig_default, initial_state(), TimeGrid(200.0, 4000))
        expected = 0.5 * np.exp(1j * eig_default.omega_21 * traj.times)
        assert np.max(np.abs(traj.data[:, 1] - expected)) < 1e-9
        assert np.max(np.abs(traj.data[:, 0] - 0.5)) < 1e-12
        assert np.max(np.abs(traj.data[:, 3] - 0.5)) < 1e-12

    def test_matches_textbook_rk4_loop(self, eig_default):
        bath = PiezoelectricBath()
        tensor = build_tensor(eig_default, bath, 1.0)
        L = liouvillian(tensor, eig_default)
        grid = TimeGrid(150.0, 200)
        h = grid.h
        y = initial_state().as_vector()
        reference = [y.copy()]
        for _ in range(grid.n_steps):
            k1 = L @ y
            k2 = L @ (y + 0.5 * h * k1)
            k3 = L @ (y + 0.5 * h * k2)
            k4 = L @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            reference.append(y.copy())
        traj = propagate_numeric(tensor, eig_default, initial_state(), grid)
        assert np.max(np.abs(traj.data - np.array(reference))) < 1e-12

    def test_store_every_thins_the_same_run(self, eig_default):
        tensor = build_tensor(eig_default, PiezoelectricBath(), 0.030)
        dense = propagate_numeric(tensor, eig_default, initial_state(), TimeGrid(100.0, 400))
        strided = propagate_numeric(
            tensor, eig_default, initial_state(), TimeGrid(100.0, 400, store_every=8)
        )
        assert np.array_equal(dense.times[::8], strided.times)
        assert np.max(np.abs(dense.data[::8] - strided.data)) < 1e-12

    def test_store_every_must_divide(self, eig_default):
        tensor = build_tensor(eig_default, PiezoelectricBath(), 0.030)
        with pytest.raises(ValueError, match="store_every"):
            propagate_numeric(
                tensor, eig_default, initial_state(), TimeGrid(100.0, 401, store_every=8)
            )

    def test_step_guard_names_minimum(self, eig_default):
        tensor = build_tensor(eig_default, PiezoelectricBath(), 0.030)
        with pytest.raises(StepSizeError) as err:
            propagate_numeric(tensor, eig_default, initial_state(), TimeGrid(2000.0, 1000))
        match = re.search(r"at least (\d+)", str(err.value))
        assert match, str(err.value)
        n_min = int(match.group(1))
        propagate_numeric(tensor, eig_default, initial_state(), TimeGrid(2000.0, n_min))

    def test_matches_closed_form(self, eig_default):
        bath = PiezoelectricBath()
        tensor = build_tensor(eig_default, bath, 0.030)
        rate = chi_rate(eig_default, bath, 0.030)
        grid = TimeGrid(2000.0, 40000)
        traj = propagate_numeric(tensor, eig_default, initial_state(), grid)
        closed = closed_form_trajectory(rate, grid)
        assert np.max(np.abs(traj.data - closed.data)) < 1e-6

    def test_fourth_order_convergence_over_a_decade(self, eig_default):
        bath = PiezoelectricBath()
        tensor = build_tensor(eig_default, bath, 0.030)
        rate = chi_rate(eig_default, bath, 0.030)
        errors = []
        for n_steps in (2500, 5000, 10000, 20000):
            grid = TimeGrid(2000.0, n_steps)
            traj = propagate_numeric(tensor, eig_default, initial_state(), grid)
            closed = closed_form_trajectory(rate, grid)
            errors.append(np.max(np.abs(traj.data - closed.data)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 < coarse / fine < 20.0

    def test_trace_and_hermiticity_preserved(self, eig_default):
        bath = PiezoelectricBath()
        tensor = build_tensor(eig_default, bath, 1.0)
        traj = propagate_numeric(tensor, eig_default, initial_state(), TimeGrid(20000.0, 200000))
        assert np.max(np.abs(traj.data[:, 0] + traj.data[:, 3] - 1.0)) < 1e-10
        assert np.max(np.abs(traj.data[:, 2] - np.conj(traj.data[:, 1]))) < 1e-10
        assert np.max(np.abs(traj.data[:, 0].imag)) < 1e-10

    @pytest.mark.parametrize(
        "bath", [PiezoelectricBath(), DeformationBath(), OhmicBath(eta=0.04)]
    )
    def test_detailed_balance_at_equilibrium(self, eig_default, bath):
        temperature = 1.0
        tensor = build_tensor(eig_default, bath, temperature)
        rate = chi_rate(eig_default, bath, temperature)
        t_end = 10.0 / rate.chi
        n_steps = int(np.ceil(t_end * eig_default.omega_21 / 0.1 / 1000.0)) * 1000
        grid = TimeGrid(t_end, n_steps, store_every=n_steps // 100)
        traj = propagate_numeric(tensor, eig_default, initial_state(), grid)
        n = rate.n_occ
        rho11_end = traj.data[-1, 0].real
        rho22_end = traj.data[-1, 3].real
        assert rho11_end == pytest.approx((1.0 + n) / (1.0 + 2.0 * n), abs=1e-6)
        boltzmann = float(oracle.mp.e ** (-oracle.thermal_ratio(0.1, temperature)))
        assert rho22_end / rho11_end == pytest.approx(boltzmann, rel=1e-6)


class TestTrajectory:
    def test_invariants(self, eig_default):
        tensor = build_tensor(eig_default, PiezoelectricBath(), 0.030)
        rho0 = initial_state()
        traj = propagate_numeric(tensor, eig_default, rho0, TimeGrid(50.0, 100))
        assert len(traj) == 101
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        assert traj.state(0) == rho0
        assert traj.states[0] == rho0

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([]), data=np.empty((0, 4), dtype=complex))
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), data=np.zeros((3, 4), dtype=complex))
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), data=np.zeros((2, 4), dtype=complex))
        with pytest.raises(ValueError, match="times must be a 1-d array"):
            Trajectory(times=np.zeros((2, 2)), data=np.zeros((2, 4), dtype=complex))
        with pytest.raises(ValueError, match="times must be a 1-d array"):
            Trajectory(times=np.float64(0.0), data=np.zeros((1, 4), dtype=complex))
        for shape in [(3, 3), (3, 4, 1), (3,)]:
            with pytest.raises(ValueError, match=r"data must have shape \(len\(times\), 4\)"):
                Trajectory(times=np.arange(3.0), data=np.zeros(shape, dtype=complex))
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            Trajectory(times=[0.0, 2.0, 1.0], data=np.zeros((3, 4), dtype=complex))

    def test_times_may_be_a_list_and_data_keeps_its_dtype(self):
        data = np.zeros((3, 4), dtype=np.complex64)
        traj = Trajectory([0.0, 1.0, 2.0], data)
        assert traj.times.dtype == float and traj.times.tolist() == [0.0, 1.0, 2.0]
        assert traj.data is data

    def test_only_the_time_grid_itself_skips_the_order_check(self):
        times = TimeGrid(10.0, 10)[:]
        data = np.zeros((11, 4), dtype=complex)
        assert len(Trajectory(times=times, data=data)) == 11
        for unordered in (times[::-1], times[::-1].copy()):
            with pytest.raises(ValueError, match="strictly increasing"):
                Trajectory(times=unordered, data=data)

    def test_time_grid_values(self):
        times = TimeGrid(10.0, 10, 2)[:]
        assert times.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]


# (t_end, n_steps, store_every): a stride that is not a power of two, over several windows
LAZY_GRIDS = [(10.0, 10, 2), (2500.0, 2 * SAMPLE_BLOCK + 76, 1), (3000.0, 12000 * 6, 6)]


def built_times(t_end: float, n_steps: int, store_every: int = 1) -> np.ndarray:
    """The whole grid, written out: t = 0 and every store_every-th step of t_end / n_steps."""
    return np.arange(n_steps // store_every + 1) * (store_every * (t_end / n_steps))


# indices of a grid of n samples: in range from either end, just beyond each end, and none
# (T2 extraction reads the times of no sample when it finds no stationary one)
INDEX_AT = {"-1": lambda n: [-1], "0": lambda n: [0], "n-1": lambda n: [n - 1],
            "n": lambda n: [n], "-n-1": lambda n: [-n - 1], "none": lambda n: []}
# indices that are not integer arrays: integer scalars and lists, which select, floats, which
# are refused, and boolean masks, which select at the grid's length and are refused at n - 1
OTHER_INDEX_AT = {
    "int": lambda n: 2, "numpy-int": lambda n: np.int64(-1), "0-d-int": lambda n: np.array(5),
    "int-list": lambda n: [0, n - 1], "float": lambda n: 2.0, "0-d-float": lambda n: np.array(3.0),
    "1-d-float": lambda n: np.array([0.5]), "empty-float": lambda n: np.array([]),
    "mask": lambda n: np.arange(n) % 7 == 3, "short-mask": lambda n: np.ones(n - 1, dtype=bool),
}


def count_full_slices(monkeypatch) -> list:
    """Record from now on each TimeGrid read whole, grid[:], the way a grid is built."""
    full, index_grid = [], redfield.TimeGrid.__getitem__

    def indexing(grid, index):
        if isinstance(index, slice) and index == slice(None):
            full.append(grid)
        return index_grid(grid, index)

    monkeypatch.setattr(redfield.TimeGrid, "__getitem__", indexing)
    return full


class TestTimeGrid:
    """A TimeGrid computes the times a built grid holds, bit for bit, where they are read."""

    @pytest.mark.parametrize("grid", LAZY_GRIDS)
    def test_slices_and_indices_are_the_built_grid(self, grid):
        built, lazy = built_times(*grid), redfield.TimeGrid(*grid)
        n = len(built)
        assert len(lazy) == n
        for index in (slice(None), slice(3, None, 7), slice(n - 2, n + 9, 3), slice(n, None),
                      slice(0, 1)):
            assert lazy[index].tobytes() == built[index].tobytes()
        for every in (1, 3, 80):
            for kept in redfield.sample_windows(n, every):
                assert lazy[kept].tobytes() == built[kept].tobytes()
        index = np.array([0, 1, n // 2, n - 2, n - 1])
        assert lazy[index].tobytes() == built[index].tobytes()

    @pytest.mark.parametrize("grid", [(100.0, 1000, 1), (3000.0, 12000 * 6, 6)])
    @pytest.mark.parametrize("at", list(INDEX_AT.values()), ids=list(INDEX_AT))
    def test_a_replay_reads_an_index_as_a_stored_trajectory_does(self, eig_default, grid, at):
        tensor = build_tensor(eig_default, PiezoelectricBath(), 0.030)
        replay = propagate_numeric(tensor, eig_default, initial_state(), TimeGrid(*grid))
        stored = Trajectory(built_times(*grid), replay.data)
        n = len(stored)
        index = np.array(at(n), dtype=np.intp)
        try:
            expected = stored.times_at(index)
        except IndexError:
            with pytest.raises(IndexError):
                replay.times_at(index)
            with pytest.raises(IndexError):  # among in-range indices too
                replay.times_at(np.array([0, index[0], n - 1]))
        else:
            assert replay.times_at(index).tobytes() == expected.tobytes()
        assert isinstance(replay._times, redfield.TimeGrid)  # nothing above built the grid

    @pytest.mark.parametrize("grid", [(100.0, 1000, 1), (3000.0, 12000 * 6, 6)])
    @pytest.mark.parametrize("at", list(OTHER_INDEX_AT.values()), ids=list(OTHER_INDEX_AT))
    def test_a_replay_reads_any_other_index_as_a_stored_trajectory_does(
        self, eig_default, grid, at
    ):
        tensor = build_tensor(eig_default, PiezoelectricBath(), 0.030)
        replay = propagate_numeric(tensor, eig_default, initial_state(), TimeGrid(*grid))
        stored = Trajectory(built_times(*grid), replay.data)
        index = at(len(stored))
        try:
            expected = stored.times_at(index)
        except IndexError:
            with pytest.raises(IndexError):
                replay.times_at(index)
        else:
            got = replay.times_at(index)
            assert np.shape(got) == np.shape(expected) and got.tobytes() == expected.tobytes()
        assert isinstance(replay._times, redfield.TimeGrid)  # nothing above built the grid

    @pytest.mark.parametrize("every", [1, 3, 80])
    def test_a_replay_reads_its_times_without_building_them(self, eig_default, every):
        tensor = build_tensor(eig_default, PiezoelectricBath(), 0.030)
        grid = (2500.0, 2 * SAMPLE_BLOCK + 76)
        traj = propagate_numeric(tensor, eig_default, initial_state(), TimeGrid(*grid))
        built = built_times(*grid)
        stored = Trajectory(built, traj.data)
        for reader in (traj, stored):
            windows = [t.tobytes() for t in reader.time_blocks(every)]
            assert windows == [built[kept].tobytes() for kept in
                               redfield.sample_windows(len(built), every)]
            assert [len(t) for t in reader.time_blocks(every)] == [
                len(block) for block in reader.blocks(every)]
            index = np.array([0, SAMPLE_BLOCK, len(built) - 1])
            assert reader.times_at(index).tobytes() == built[index].tobytes()
        assert isinstance(traj._times, redfield.TimeGrid)  # nothing above built the grid
        times = traj.times  # built on first access, then kept read-only
        assert times.tobytes() == built.tobytes() and not times.flags.writeable
        assert traj.times is times
        with pytest.raises(ValueError, match="every must be an integer"):
            traj.time_blocks(2.0)

    @pytest.mark.parametrize("grid", LAZY_GRIDS)
    def test_both_engines_take_the_grid_and_build_it_only_for_times(
        self, monkeypatch, eig_default, grid
    ):
        bath, checked = PiezoelectricBath(), TimeGrid(*grid)
        full = count_full_slices(monkeypatch)
        tensor = build_tensor(eig_default, bath, 0.030)
        numeric = propagate_numeric(tensor, eig_default, initial_state(), checked)
        closed = closed_form_trajectory(chi_rate(eig_default, bath, 0.030), checked)
        for traj in (numeric, closed):
            assert traj._times is checked and len(traj.data) == len(checked)
            assert [len(t) for t in traj.time_blocks(3)] == [len(b) for b in traj.blocks(3)]
            traj.times_at(np.array([0, len(checked) - 1]))
        assert full == []
        built = built_times(*grid)
        assert numeric.times.tobytes() == built.tobytes() and full == [checked]
        assert closed.times.tobytes() == built.tobytes() and full == [checked] * 2
