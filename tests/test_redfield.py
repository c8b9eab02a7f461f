import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import FIGURE_SETS
from dqdsim import (
    DeformationBath,
    OhmicBath,
    PiezoelectricBath,
    QubitParams,
    StepSizeError,
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
    time_grid,
)

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
            propagate_numeric(tensor, eig_default, initial_state(), 100.0, 1000)


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
        args = (tensor, eig, initial_state(), t_end, n_steps, store_every)
        expected = reference_propagation(*args)
        assert propagate_numeric(*args).data.tobytes() == expected.tobytes()

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


class TestPropagation:
    def test_isolated_system_phase(self, eig_default):
        # zero tensor: rho12(t) = exp(+i w21 t)/2 since omega_12 = -omega_21
        tensor = build_tensor(eig_default, OhmicBath(eta=0.0), 0.030)
        traj = propagate_numeric(tensor, eig_default, initial_state(), 200.0, 4000)
        expected = 0.5 * np.exp(1j * eig_default.omega_21 * traj.times)
        assert np.max(np.abs(traj.data[:, 1] - expected)) < 1e-9
        assert np.max(np.abs(traj.data[:, 0] - 0.5)) < 1e-12
        assert np.max(np.abs(traj.data[:, 3] - 0.5)) < 1e-12

    def test_matches_textbook_rk4_loop(self, eig_default):
        bath = PiezoelectricBath()
        tensor = build_tensor(eig_default, bath, 1.0)
        L = liouvillian(tensor, eig_default)
        n_steps, t_end = 200, 150.0
        h = t_end / n_steps
        y = initial_state().as_vector()
        reference = [y.copy()]
        for _ in range(n_steps):
            k1 = L @ y
            k2 = L @ (y + 0.5 * h * k1)
            k3 = L @ (y + 0.5 * h * k2)
            k4 = L @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            reference.append(y.copy())
        traj = propagate_numeric(tensor, eig_default, initial_state(), t_end, n_steps)
        assert np.max(np.abs(traj.data - np.array(reference))) < 1e-12

    def test_store_every_thins_the_same_run(self, eig_default):
        tensor = build_tensor(eig_default, PiezoelectricBath(), 0.030)
        dense = propagate_numeric(tensor, eig_default, initial_state(), 100.0, 400)
        strided = propagate_numeric(
            tensor, eig_default, initial_state(), 100.0, 400, store_every=8
        )
        assert np.array_equal(dense.times[::8], strided.times)
        assert np.max(np.abs(dense.data[::8] - strided.data)) < 1e-12

    def test_store_every_must_divide(self, eig_default):
        tensor = build_tensor(eig_default, PiezoelectricBath(), 0.030)
        with pytest.raises(ValueError, match="store_every"):
            propagate_numeric(tensor, eig_default, initial_state(), 100.0, 401, store_every=8)

    def test_step_guard_names_minimum(self, eig_default):
        tensor = build_tensor(eig_default, PiezoelectricBath(), 0.030)
        with pytest.raises(StepSizeError) as err:
            propagate_numeric(tensor, eig_default, initial_state(), 2000.0, 1000)
        match = re.search(r"at least (\d+)", str(err.value))
        assert match, str(err.value)
        n_min = int(match.group(1))
        propagate_numeric(tensor, eig_default, initial_state(), 2000.0, n_min)

    def test_matches_closed_form(self, eig_default):
        bath = PiezoelectricBath()
        tensor = build_tensor(eig_default, bath, 0.030)
        rate = chi_rate(eig_default, bath, 0.030)
        traj = propagate_numeric(tensor, eig_default, initial_state(), 2000.0, 40000)
        closed = closed_form_trajectory(rate, traj.times)
        assert np.max(np.abs(traj.data - closed.data)) < 1e-6

    def test_fourth_order_convergence_over_a_decade(self, eig_default):
        bath = PiezoelectricBath()
        tensor = build_tensor(eig_default, bath, 0.030)
        rate = chi_rate(eig_default, bath, 0.030)
        errors = []
        for n_steps in (2500, 5000, 10000, 20000):
            traj = propagate_numeric(tensor, eig_default, initial_state(), 2000.0, n_steps)
            closed = closed_form_trajectory(rate, traj.times)
            errors.append(np.max(np.abs(traj.data - closed.data)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 < coarse / fine < 20.0

    def test_trace_and_hermiticity_preserved(self, eig_default):
        bath = PiezoelectricBath()
        tensor = build_tensor(eig_default, bath, 1.0)
        traj = propagate_numeric(tensor, eig_default, initial_state(), 20000.0, 200000)
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
        traj = propagate_numeric(
            tensor, eig_default, initial_state(), t_end, n_steps, store_every=n_steps // 100
        )
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
        traj = propagate_numeric(tensor, eig_default, rho0, 50.0, 100)
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

    def test_time_grid_values(self):
        times = time_grid(10.0, 10, 2)
        assert times.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
