"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

import importlib
import json

import pytest

import run
import tracing
import workloads
from checks import TRAJECTORY_COLUMNS, OutputChecker, check_bytes, sha256
from tracing import Span, Tracer, layer_stats, self_times


def _span(id, name, parent, start, end):
    return Span(id, name, parent, start, "w", "i", end=end)


def test_self_time_nested_and_adjacent_spans():
    spans = [
        _span(0, "cli.main", None, 0.0, 10.0),
        _span(1, "analysis.run_sweep", 0, 1.0, 3.0),
        _span(2, "redfield.propagate_numeric", 0, 3.0, 6.0),  # adjacent to span 1
        _span(3, "redfield.build_tensor", 2, 4.0, 5.0),  # nested in span 2
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0}
    assert sum(own.values()) == 10.0


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span(0, "analysis.run_sweep", None, 0.0, 10.0),
        _span(1, "analytic.chi_rate", 0, 1.0, 5.0),
        _span(2, "analytic.chi_rate", 0, 4.0, 8.0),  # overlaps span 1 (another thread)
        _span(3, "analytic.chi_rate", 0, 9.0, 12.0),  # ends after its parent
    ]
    assert self_times(spans)[0] == 2.0


def test_layer_stats_account_for_the_root_span():
    spans = [
        _span(0, "cli.main", None, 0.0, 10.0),
        _span(1, "cli._run_engines", 0, 1.0, 7.0),
        _span(2, "analytic.closed_form_trajectory", 1, 2.0, 3.0),
        _span(3, "redfield.propagate_numeric", 1, 3.0, 6.0),
    ]
    spans[1].attrs["points"] = 1
    spans[2].attrs["samples"] = 5
    stats = layer_stats(spans, {"bath.spectral_density": 4})
    assert sum(stats[f"{layer}.self_s"] for layer in tracing.LAYERS) == 10.0
    assert stats["analysis.run_sweep.s"] == 6.0  # the CLI's inline pipeline counts as one
    assert stats["analysis.points"] == 1
    assert stats["analytic.closed_form_trajectory.bytes"] == 5 * 4 * 16
    assert stats["bath.spectral_density.calls"] == 4


def test_generator_is_deterministic_and_periodic_in_the_reference_slot():
    root = run.ROOT
    assert workloads.build("scan", 5, root) == workloads.build("scan", 5, root)
    assert workloads.build("scan", 5, root) == workloads.build("scan", 5 + workloads.REFERENCE_SLOTS, root)
    assert workloads.build("scan", 5, root) != workloads.build("scan", 6, root)
    for inv in workloads.build("scan", 5, root).invocations:
        values = inv.config["sweep"]["values"]
        assert len(values) == workloads.SCAN_POINTS
        assert all(b > a for a, b in zip(values, values[1:]))


def test_checks_name_non_finite_fields_and_wrong_row_counts():
    out = workloads.Output("fig1_point0.csv", "trajectory_csv", 2)
    rows = [",".join([str(v)] * len(TRAJECTORY_COLUMNS)) for v in (0.5, 0.25)]
    good = "\n".join([",".join(TRAJECTORY_COLUMNS), *rows, "# max_abs_diff=1e-09", ""])
    assert check_bytes(out, good.encode()).errors == []
    assert check_bytes(out, good.replace("0.25", "nan", 1).encode()).errors
    assert check_bytes(out, good.replace("1e-09", "inf").encode()).errors
    assert check_bytes(workloads.Output(out.name, out.kind, 3), good.encode()).errors

    t2 = workloads.Output("t2.json", "t2_json", 1)
    row = {"omega_21": 0.1, "temperature_K": 0.03, "chi": 0.002, "n_occ": 0.0,
           "t2_analytic": 500.0, "t2_empirical": 501.0}
    assert check_bytes(t2, json.dumps({"meta": {}, "rows": [row]}).encode()).errors == []
    row["t2_empirical"] = None
    assert check_bytes(t2, json.dumps({"meta": {}, "rows": [row]}).encode()).errors


@pytest.fixture(scope="module")
def cli():
    return run._import_checkout_cli()


def _small_workload() -> workloads.Workload:
    fig1 = json.loads((run.ROOT / "configs" / "fig1.json").read_text())
    evolve = dict(workloads.evolve_json().invocations[0].config, n_steps=4000, t_end=2000.0)
    return workloads.Workload(
        "small",
        None,
        (
            workloads._sweep_invocation("fig1", fig1),
            workloads.Invocation(
                "evolve", "evolve", evolve, (workloads.Output("evolve.json", "evolve_json", 4001),), 1
            ),
        ),
    )


def _run_pass(cli, workload, workdir, tracer=None) -> dict:
    workdir.mkdir()
    workload.write_configs(workdir)
    wall, statuses = run.in_process_pass(cli, workload, workdir, tracer)
    outcome = run.evaluate(workload, workdir, statuses, OutputChecker(), {}, wall)
    assert outcome.failures == []
    return {
        out.name: (workdir / out.name).read_bytes()
        for inv in workload.invocations
        for out in inv.outputs
    }


def test_traced_outputs_are_byte_identical_to_untraced(cli, tmp_path):
    workload = _small_workload()
    untraced = _run_pass(cli, workload, tmp_path / "untraced")
    tracer = Tracer("small")
    with tracer.installed():
        traced = _run_pass(cli, workload, tmp_path / "traced", tracer)
    assert tracer.missing == []
    assert {n: sha256(b) for n, b in traced.items()} == {n: sha256(b) for n, b in untraced.items()}
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "analysis.run_sweep", "cli._run_engines", "redfield.propagate_numeric"} <= names
    assert tracer.counts["bath.bose_occupation"] > 0


def _targets():
    return [(m, a) for m, a, *_ in tracing.SPANS + tracing.COUNTS]


def test_wrappers_are_removed_after_the_traced_pass(cli):
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a in _targets()}
    tracer = Tracer("w")
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(getattr(importlib.import_module(m), a) is not fn for (m, a), fn in before.items())
            raise RuntimeError("a failed pass still restores the originals")
    assert all(getattr(importlib.import_module(m), a) is fn for (m, a), fn in before.items())


@pytest.mark.parametrize("name, seed", [("scan", 7), ("scan", 19), ("scan", 42), ("evolve_json", 0)])
def test_generated_configs_pass_the_simulate_guards(cli, tmp_path, name, seed):
    workload = workloads.build(name, seed, run.ROOT)
    workload.write_configs(tmp_path)
    wall, statuses = run.in_process_pass(cli, workload, tmp_path)
    outcome = run.evaluate(workload, tmp_path, statuses, OutputChecker(), {}, wall)
    assert outcome.failures == []
    assert outcome.points == sum(inv.points for inv in workload.invocations)
