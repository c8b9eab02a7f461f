"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  The golden numbers are frozen outputs of the independent
high-precision oracle in tests/oracle.py (mpmath at 50 digits); they are
cross-checked against that oracle here so a drift in either side fails.
"""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import FIGURE_SETS, REPO_ROOT
from dqdsim import (
    DeformationBath,
    OhmicBath,
    PiezoelectricBath,
    QubitParams,
    TimeGrid,
    bose_occupation,
    build_tensor,
    chi_rate,
    closed_form_derivative,
    closed_form_rdm,
    closed_form_trajectory,
    decoherence_time_analytic,
    diagonalize,
    equilibrium_populations,
    initial_state,
    liouvillian,
    propagate_numeric,
    spectral_density,
)
from dqdsim.cli import main

ORACLE_EQUIV_TOL = 1e-6
RESIDUAL_TOL_FACTOR = 1e-9
GOLDEN_REL_TOL = 1e-5  # well inside 5-significant-digit agreement
EQUILIBRIUM_TOL = 1e-6
EMPIRICAL_T2_REL_TOL = 0.02
PROPERTY_DRAWS = 1000

# Frozen from tests/oracle.py (mpmath, 50 digits):
GOLDEN = {
    "j_pz_0.1": 4.08865076785e-3,  # ps^-1, omega_l = 0.5
    "j_df_0.1": 3.38773920765e-5,
    "j_ohm_0.1": 5.41341132946e-4,  # eta = 0.04, omega_c = 0.05
    "chi_pcpb_30mK": 2.04432538396e-3,  # ps^-1
    "t2_ohmic_30mK": 3694.5280494,  # ps
    "rho11_equilibrium_1K": 0.682183237436,
}


def _steps_for_accuracy(chi: float, omega: float, t_end: float) -> tuple[int, int]:
    """Step count targeting ~3e-7 max-abs RK4 error, and a storage stride.

    The dominant RK4 error for the coherences is the accumulated phase slip
    t * h^4 * omega^5 / 120 under the decaying envelope, maximal near
    t = 1/chi; inverting that for h keeps every set within tolerance.
    """
    h_accuracy = (3e-7 * 120.0 * chi / (0.5 * math.exp(-1.0) * omega**5)) ** 0.25
    h_guard = 0.095 / max(omega, 2.0 * chi)
    h = min(h_accuracy, h_guard)
    n = max(1000, math.ceil(t_end / h))
    store = max(1, n // 10000)
    n = math.ceil(n / store) * store
    return n, store


def _max_abs_error(bath, temperature, tc, n_steps, store):
    eig = diagonalize(QubitParams(tc))
    rate = chi_rate(eig, bath, temperature)
    tensor = build_tensor(eig, bath, temperature)
    grid = TimeGrid(5.0 / rate.chi, n_steps, store)
    numeric = propagate_numeric(tensor, eig, initial_state(), grid)
    closed = closed_form_trajectory(rate, grid)
    return float(np.max(np.abs(numeric.data - closed.data)))


def test_criterion_1_oracle_equivalence_and_rk4_order():
    """Numeric tensor propagation matches the closed form on every figure set."""
    for label, bath, temperature, tc in FIGURE_SETS:
        eig = diagonalize(QubitParams(tc))
        rate = chi_rate(eig, bath, temperature)
        t_end = 5.0 / rate.chi
        n, store = _steps_for_accuracy(rate.chi, eig.omega_21, t_end)
        err = _max_abs_error(bath, temperature, tc, n, store)
        assert err < ORACLE_EQUIV_TOL, f"{label}: max-abs error {err:.3e}"
        err_half = _max_abs_error(bath, temperature, tc, 2 * n, 2 * store)
        ratio = err / err_half
        assert 12.0 < ratio < 20.0, f"{label}: halving improved only {ratio:.1f}x"
    print("criterion 1 PASS: oracle equivalence < 1e-6 and ~16x step-halving on 7 sets")


def test_criterion_2_ode_residual():
    """The closed form satisfies the master equation built from the tensor."""
    rng = np.random.default_rng(20260810)
    for label, bath, temperature, tc in FIGURE_SETS:
        eig = diagonalize(QubitParams(tc))
        rate = chi_rate(eig, bath, temperature)
        L = liouvillian(build_tensor(eig, bath, temperature), eig)
        tolerance = RESIDUAL_TOL_FACTOR * max(eig.omega_21, rate.chi)
        worst = 0.0
        for t in rng.uniform(0.0, 5.0 / rate.chi, size=100):
            state = closed_form_rdm(rate, float(t)).as_vector()
            residual = closed_form_derivative(rate, float(t)) - L @ state
            worst = max(worst, float(np.max(np.abs(residual))))
        assert worst < tolerance, f"{label}: residual {worst:.3e} >= {tolerance:.3e}"
    print("criterion 2 PASS: ODE residual < 1e-9 * max(omega_21, chi) on 7 sets")


def test_criterion_3_derived_golden_values(eig_default):
    """Spectral densities, chi and T2 match the independent oracle values."""
    # freeze-time cross-check: the literals are what the oracle still produces
    assert GOLDEN["j_pz_0.1"] == pytest.approx(float(oracle.j_pcpb(0.1)), rel=1e-11)
    assert GOLDEN["j_df_0.1"] == pytest.approx(float(oracle.j_dcpb(0.1)), rel=1e-11)
    assert GOLDEN["j_ohm_0.1"] == pytest.approx(float(oracle.j_ohmic(0.1)), rel=1e-11)
    assert GOLDEN["chi_pcpb_30mK"] == pytest.approx(
        float(oracle.chi_from(oracle.j_pcpb(0.1), oracle.bose(0.1, 0.030))), rel=1e-11
    )

    assert spectral_density(PiezoelectricBath(), 0.1) == pytest.approx(
        GOLDEN["j_pz_0.1"], rel=GOLDEN_REL_TOL
    )
    assert spectral_density(DeformationBath(), 0.1) == pytest.approx(
        GOLDEN["j_df_0.1"], rel=GOLDEN_REL_TOL
    )
    assert spectral_density(OhmicBath(eta=0.04), 0.1) == pytest.approx(
        GOLDEN["j_ohm_0.1"], rel=GOLDEN_REL_TOL
    )
    assert chi_rate(eig_default, PiezoelectricBath(), 0.030).chi == pytest.approx(
        GOLDEN["chi_pcpb_30mK"], rel=GOLDEN_REL_TOL
    )
    t2_ohmic = decoherence_time_analytic(chi_rate(eig_default, OhmicBath(eta=0.04), 0.030))
    assert t2_ohmic == pytest.approx(GOLDEN["t2_ohmic_30mK"], rel=GOLDEN_REL_TOL)
    assert 1.0e3 < t2_ohmic < 1.0e4  # nanosecond scale
    print("criterion 3 PASS: golden J/chi/T2 values reproduced to 5 significant digits")


@pytest.mark.parametrize(
    "bath", [PiezoelectricBath(), DeformationBath(), OhmicBath(eta=0.04)], ids=type
)
def test_criterion_4_equilibrium_and_detailed_balance(eig_default, bath):
    """Long-time populations thermalize with the Boltzmann ratio at 1 K."""
    temperature = 1.0
    rate = chi_rate(eig_default, bath, temperature)
    tensor = build_tensor(eig_default, bath, temperature)
    t_end = 10.0 / rate.chi
    n_steps = math.ceil(t_end * eig_default.omega_21 / 0.095 / 100) * 100
    grid = TimeGrid(t_end, n_steps, store_every=n_steps // 100)
    traj = propagate_numeric(tensor, eig_default, initial_state(), grid)
    rho11_end = float(traj.data[-1, 0].real)
    rho22_end = float(traj.data[-1, 3].real)

    expected_lower, _ = equilibrium_populations(rate.n_occ)
    assert abs(rho11_end - expected_lower) < EQUILIBRIUM_TOL
    assert abs(rho11_end - GOLDEN["rho11_equilibrium_1K"]) < EQUILIBRIUM_TOL

    boltzmann = math.exp(-7.638233 * eig_default.omega_21 / temperature)
    assert rho22_end / rho11_end == pytest.approx(boltzmann, rel=EQUILIBRIUM_TOL)
    print(f"criterion 4 PASS ({type(bath).__name__}): rho11(inf) and detailed balance at 1e-6")


@pytest.fixture(scope="session")
def figure_suite(tmp_path_factory, configs_dir):
    """Run all six shipped configs once; returns the output directory."""
    out_dir = tmp_path_factory.mktemp("figure_suite")
    for i in range(1, 7):
        code = main(
            ["sweep", "--config", str(configs_dir / f"fig{i}.json"), "--out", str(out_dir / f"fig{i}.csv")]
        )
        assert code == 0, f"fig{i} run failed with exit code {code}"
    return out_dir


def _read_summary(out_dir: Path, name: str) -> list[dict]:
    lines = (out_dir / name).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_5_figure_trends(figure_suite):
    """The shipped configs reproduce the expected physical trends and 2% T2 agreement."""
    t2 = {}
    for i in range(1, 7):
        rows = _read_summary(figure_suite, f"fig{i}.csv")
        t2[i] = [float(r["t2_analytic"]) for r in rows]
        for r in rows:
            analytic = float(r["t2_analytic"])
            empirical = float(r["t2_empirical"])
            assert abs(empirical - analytic) / analytic < EMPIRICAL_T2_REL_TOL, (
                f"fig{i} {r['parameter']}={r['value']}: "
                f"empirical {empirical} vs analytic {analytic}"
            )

    # decoherence time falls as omega_l grows (both phonon couplings)
    assert t2[1][0] > t2[1][1]
    assert t2[2][0] > t2[2][1]
    # exact 1/eta scaling on the Ohmic damping grid
    rows3 = _read_summary(figure_suite, "fig3.csv")
    products = [float(r["t2_analytic"]) * float(r["value"]) for r in rows3]
    for p in products[1:]:
        assert p == pytest.approx(products[0], rel=1e-12)
    assert t2[3] == sorted(t2[3], reverse=True)
    # decoherence time falls as temperature grows, for every bath family
    for i in (4, 5, 6):
        assert all(a > b for a, b in zip(t2[i], t2[i][1:])), f"fig{i}: {t2[i]}"
    print("criterion 5 PASS: all six bundled configs reproduce the expected trends")


def test_criterion_6_structural_property_suite():
    """Invariants over 1000 random valid parameter draws."""
    rng = np.random.default_rng(987654321)
    families = ("pcpb", "dcpb", "ohmic")
    for draw in range(PROPERTY_DRAWS):
        family = families[int(rng.integers(3))]
        if family == "pcpb":
            bath = PiezoelectricBath(
                g=float(10 ** rng.uniform(-4, 0)),
                omega_d=float(rng.uniform(0.005, 0.1)),
                omega_l=float(rng.uniform(0.1, 2.0)),
            )
        elif family == "dcpb":
            bath = DeformationBath(
                g=float(10 ** rng.uniform(-4, 0)),
                omega_d=float(rng.uniform(0.005, 0.1)),
                omega_l=float(rng.uniform(0.1, 2.0)),
            )
        else:
            bath = OhmicBath(
                eta=float(10 ** rng.uniform(-4, 0)),
                omega_c=float(rng.uniform(0.01, 0.5)),
                s_exponent=float(rng.uniform(0.5, 2.0)),
            )
        temperature = float(rng.uniform(0.01, 2.0))
        tc = float(rng.uniform(0.01, 0.5))
        eig = diagonalize(QubitParams(tc))

        for w in rng.uniform(0.0, 3.0, size=3):
            assert spectral_density(bath, float(w)) >= 0.0

        tensor = build_tensor(eig, bath, temperature)
        for kappa in (1, 2):
            for lam in (1, 2):
                column = tensor.element(1, 1, kappa, lam) + tensor.element(2, 2, kappa, lam)
                assert abs(column) < 1e-12

        # short propagation: trace and hermiticity to 1e-10
        t_end = 20.0 / eig.omega_21
        n_steps = math.ceil(t_end * max(eig.omega_21, 2.0 * tensor.chi_effective) / 0.095)
        traj = propagate_numeric(tensor, eig, initial_state(), TimeGrid(t_end, n_steps))
        assert np.max(np.abs(traj.data[:, 0] + traj.data[:, 3] - 1.0)) < 1e-10
        assert np.max(np.abs(traj.data[:, 2] - np.conj(traj.data[:, 1]))) < 1e-10

    # Bose-function branch consistency at the switch points, 1e-10 relative
    assert math.exp(-700.0) == pytest.approx(1.0 / math.expm1(700.0), rel=1e-10)
    assert 1.0 / 1e-8 - 0.5 == pytest.approx(1.0 / math.expm1(1e-8), rel=1e-10)
    temp = 0.1
    for x in (699.999, 700.001, 0.99e-8, 1.01e-8):
        omega = x * temp / 7.638233
        assert bose_occupation(omega, temp) == pytest.approx(
            float(oracle.bose(omega, temp)), rel=1e-10
        )
    print(f"criterion 6 PASS: invariants hold over {PROPERTY_DRAWS} random draws")


def test_criterion_7_determinism(figure_suite, configs_dir, tmp_path):
    """A second run of the full figure suite is byte-identical to the first."""
    for i in range(1, 7):
        code = main(
            ["sweep", "--config", str(configs_dir / f"fig{i}.json"), "--out", str(tmp_path / f"fig{i}.csv")]
        )
        assert code == 0
    first = sorted(p.name for p in figure_suite.iterdir())
    second = sorted(p.name for p in tmp_path.iterdir())
    assert first == second
    for name in first:
        assert (figure_suite / name).read_bytes() == (tmp_path / name).read_bytes(), name
    print("criterion 7 PASS: figure-suite outputs byte-identical across runs")


def test_figure_outputs_match_reference_hashes(figure_suite):
    """The figure suite reproduces, byte for byte, the outputs the benchmark pinned."""
    reference = json.loads((REPO_ROOT / "bench" / "reference_hashes.json").read_text())["figs"]
    assert sorted(p.name for p in figure_suite.iterdir()) == sorted(reference)
    for name, digest in reference.items():
        assert hashlib.sha256((figure_suite / name).read_bytes()).hexdigest() == digest, name


def _run_bench_workload(name, tmp_path, monkeypatch, *args):
    """Run a benchmark workload in-process in tmp_path; return its pinned sha256s.

    The invocations and their configs come from bench/workloads.py, the
    digests from bench/reference_hashes.json; both are only read.  --out is
    relative, as JSON outputs echo it in their meta block.
    """
    bench = REPO_ROOT / "bench"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up there
    spec.loader.exec_module(workloads)
    workload = getattr(workloads, name)(*args)
    workload.write_configs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for invocation in workload.invocations:
        assert main(invocation.argv()) == 0, invocation.name
    return json.loads((bench / "reference_hashes.json").read_text())[name]


def test_evolve_json_outputs_match_reference_hashes(tmp_path, monkeypatch):
    """evolve and t2 in JSON write, byte for byte, the outputs the benchmark pinned."""
    reference = _run_bench_workload("evolve_json", tmp_path, monkeypatch)
    for name, digest in reference.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_scan_outputs_match_reference_hashes(tmp_path, monkeypatch):
    """The scan workload's slot 0, 2400 varied points through both engines, is pinned too."""
    reference = _run_bench_workload("scan", tmp_path, monkeypatch, 0)["0"]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(reference)
    for name, digest in reference.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
