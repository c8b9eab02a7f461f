"""A sweep of two stacks or more, with no trajectory files, is evaluated by two processes.

The tests force the two-process path whatever the machine's CPU count, by
patching split_writer.usable_cpus, and compare every summary, every error
line and every exit code with one process's, also where the child, the fork
or either half fails.  Each run_sweep call is logged with the process that
makes it, which pins the cut at the stack boundary at or before the middle.
After each test no child process is left, and no temporary file.
"""

import errno
import json
import os
import tempfile
import time

import pytest

from dqdsim import cli, split_writer
from dqdsim.analysis import _STACK_POINTS, SweepError
from dqdsim.cli import main
from test_cli import _RUN_ALL, GRID, OHMIC, SWEEP_CFG, _python, write_config
from test_table_halves import assert_no_child_left, in_child

pytestmark = pytest.mark.skipif(
    not all(hasattr(os, name) for name in ("fork", "sched_getaffinity")),
    reason="a sweep is split only where fork and sched_getaffinity exist",
)

FORMATS = pytest.mark.parametrize("fmt", ["csv", "json"])
# 40 points: cut at 16, the first stack boundary at or before the middle (20)
VALUES = [0.3 + 0.005 * i for i in range(40)]
# GRID's step guard refuses omega_l above 0.8: at index 11, before the cut at 16, and at
# index 51, past the cut at 32
EARLY_FAILURE = [0.7 + 0.01 * i for i in range(40)]
LATE_FAILURE = [0.3 + 0.01 * i for i in range(70)]
SWEEPS = {
    "both": {**SWEEP_CFG, **GRID},
    "closed_form": {**SWEEP_CFG, **GRID, "engine": "closed_form"},
    "numeric": {**SWEEP_CFG, **GRID, "engine": "numeric"},
    "no-grid": SWEEP_CFG,
    "temperature": {
        "bath": OHMIC, "qubit": {"tunneling_Tc": 0.05}, **GRID,
        "sweep": {"parameter": "temperature", "values": [0.01 + 0.001 * i for i in range(40)]},
    },
}


def sweep_config(tmp_path, name: str, values=None, **fields) -> str:
    payload = {**SWEEPS[name], **fields}
    if values is not None:
        payload["sweep"] = {"parameter": "omega_l", "values": values}
    return write_config(tmp_path, payload)


@pytest.fixture
def cpus(monkeypatch, tmp_path_factory):
    """Set the CPU count and a fault; return a reader of the run_sweep calls from then on.

    Every run_sweep call through cli logs, in whichever process makes it, the
    process, the spec's first value and its point count; fail(values) is
    called next and may raise.  The calls are read back sorted, as
    ("parent"|"child", first value, count), since parent and child log at
    about the same time.  The temporary directory is a fresh one, which must
    be empty after the test, as no child may be left.
    """
    log = tmp_path_factory.mktemp("sweeps") / "log"
    scratch = tmp_path_factory.mktemp("scratch")
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    sweep, parent = cli.run_sweep, os.getpid()
    fault = [None]

    def logging_run_sweep(spec, each=None):
        with open(log, "a") as calls:
            who = "child" if in_child(parent) else "parent"
            calls.write(f"{who} {spec.values[0]!r} {len(spec.values)}\n")
        if fault[0] is not None:
            fault[0](spec.values)
        return sweep(spec, each)

    monkeypatch.setattr(cli, "run_sweep", logging_run_sweep)

    def calls() -> list:
        lines = map(str.split, log.read_text().splitlines())
        return sorted((who, float(first), int(count)) for who, first, count in lines)

    def set_count(n: int, fail=None):
        monkeypatch.setattr(split_writer, "usable_cpus", lambda: n)
        fault[0] = fail
        log.write_text("")
        return calls

    yield set_count
    assert list(scratch.iterdir()) == []
    assert_no_child_left()


def split_calls(values, child_failed: bool = False) -> list:
    """The run_sweep calls of a sweep of values with two usable CPUs, sorted."""
    cut = len(values) // 2 // _STACK_POINTS * _STACK_POINTS
    if cut == 0:
        return [("parent", values[0], len(values))]
    rest = ("parent", values[cut], len(values) - cut)
    calls = [("child",) + rest[1:], ("parent", values[0], cut)] + [rest] * child_failed
    return sorted(calls)


def run_main(argv, capfdbinary, out=None) -> tuple:
    """main's exit code, stderr and output (the file out, or stdout)."""
    code = main(argv)
    captured = capfdbinary.readouterr()
    return code, captured.err, captured.out if out is None else out.read_bytes()


@FORMATS
@pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_a_summary_is_the_one_process_ones(tmp_path, capfdbinary, cpus, sweep, fmt, to_stdout):
    values = None if sweep == "temperature" else VALUES
    cfg = sweep_config(tmp_path, sweep, values, format=fmt)
    out = None if to_stdout else tmp_path / f"s.{fmt}"
    argv = ["sweep", "--config", cfg] + ([] if to_stdout else ["--out", str(out)])
    cpus(1)
    one = run_main(argv, capfdbinary, out)
    calls = cpus(2)
    two = run_main(argv, capfdbinary, out)
    assert calls() == split_calls(values or SWEEPS[sweep]["sweep"]["values"])
    assert one[:2] == (0, b"")
    assert two == one


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_the_points_are_the_one_process_ones_bit_for_bit(tmp_path, cpus, sweep):
    cfg = sweep_config(tmp_path, sweep, None if sweep == "temperature" else VALUES)
    captured = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_emit_table", lambda *args: captured.append(list(args[5](0))))
        for n in (1, 2):
            cpus(n)
            cli.cmd_sweep(cli._load_config(cfg), None, SWEEPS[sweep].get("engine", "both"), "csv")
    one, two = captured
    assert [tuple(map(type, row)) for row in two] == [tuple(map(type, row)) for row in one]
    # float.hex tells 0.0 from -0.0 and keeps every bit
    hexed = [[c.hex() if type(c) is float else c for c in row] for row in one]
    assert [[c.hex() if type(c) is float else c for c in row] for row in two] == hexed


def test_only_a_sweep_of_two_stacks_without_trajectory_files_is_split(tmp_path, cpus):
    # one CPU; one stack short of two; trajectory files: one process, one run_sweep call
    for n, values, trajectories in [
        (1, VALUES, None),
        (2, VALUES[: 2 * _STACK_POINTS - 1], None),
        (2, VALUES, {"write": True, "every": 1000}),
    ]:
        calls = cpus(n)
        cfg = sweep_config(tmp_path, "both", values, trajectories=trajectories)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
        assert calls() == [("parent", values[0], len(values))]
    calls = cpus(2)
    cfg = sweep_config(tmp_path, "both", VALUES[: 2 * _STACK_POINTS])
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    assert calls() == split_calls(VALUES[: 2 * _STACK_POINTS])


def _no_fork():  # as under a process limit
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@FORMATS
def test_a_child_that_fails_leaves_its_points_to_the_parent(tmp_path, capfdbinary, cpus, fmt):
    parent = os.getpid()

    def fail(values):
        if in_child(parent):
            raise ZeroDivisionError("injected")

    cfg = sweep_config(tmp_path, "both", VALUES, format=fmt)
    out = tmp_path / f"s.{fmt}"
    argv = ["sweep", "--config", cfg, "--out", str(out)]
    cpus(1)
    one = run_main(argv, capfdbinary, out)
    calls = cpus(2, fail)
    two = run_main(argv, capfdbinary, out)
    assert calls() == split_calls(VALUES, child_failed=True)
    assert one[:2] == (0, b"")
    assert two == one


def test_a_fork_that_fails_leaves_every_point_to_this_process(
    tmp_path, capfdbinary, monkeypatch, cpus
):
    cfg = sweep_config(tmp_path, "both", VALUES)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--config", cfg, "--out", str(out)]
    cpus(1)
    one = run_main(argv, capfdbinary, out)
    monkeypatch.setattr(os, "fork", _no_fork)
    calls = cpus(2)
    two = run_main(argv, capfdbinary, out)
    assert calls() == [("parent", VALUES[0], len(VALUES))]
    assert one[:2] == (0, b"")
    assert two == one


def _sweep_error(cfg: str) -> SweepError:
    with pytest.raises(SweepError) as caught:
        cli.cmd_sweep(cli._load_config(cfg), None, "both", "csv")
    return caught.value


@pytest.mark.parametrize(
    "values, failed_at, child_failed",
    [(EARLY_FAILURE, 11, False), (LATE_FAILURE, 51, True)],
    ids=["before-the-cut", "past-the-cut"],
)
def test_a_failing_point_is_reported_as_by_one_process(
    tmp_path, capfdbinary, cpus, values, failed_at, child_failed
):
    # before the cut, the parent's SweepError is raised as it is, its child killed; past it,
    # the child fails at the point, and the parent's own SweepError of that half is re-raised
    cfg = sweep_config(tmp_path, "both", values)
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]
    results = []
    for n in (1, 2):
        calls = cpus(n)
        code, err, _ = run_main(argv, capfdbinary)
        made = calls()
        results.append((code, err, _sweep_error(cfg)))
    if child_failed:
        assert made == split_calls(values, child_failed)
    else:  # the child may be killed before it logs its call
        assert [call for call in made if call[0] == "parent"] == [("parent", values[0], 16)]
    (one_code, one_err, one), (two_code, two_err, two) = results
    assert one_code == two_code == cli.EXIT_GUARD
    assert one_err.startswith(f"sweep aborted after {failed_at} completed point(s): ".encode())
    assert two_err == one_err
    assert (str(two), two.value, type(two.__cause__)) == (str(one), one.value, type(one.__cause__))
    assert str(two.__cause__) == str(one.__cause__)
    assert two.partial.points == one.partial.points
    assert [p.index for p in two.partial.points] == list(range(failed_at))
    # past the cut, under the whole spec; before it, run_sweep's error on the first half as it is
    assert one.partial.spec.values == tuple(values)
    assert two.partial.spec.values == tuple(values if child_failed else values[:16])
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "error, code", [(MemoryError("injected"), cli.EXIT_CONFIG), (KeyboardInterrupt(), None)],
    ids=["MemoryError", "interrupt"],
)
def test_a_failing_parent_kills_and_reaps_a_child_that_would_run_on(
    tmp_path, capfdbinary, cpus, error, code
):
    parent = os.getpid()

    def fail(values):
        if in_child(parent):
            time.sleep(30)  # a child that is not killed keeps the parent waiting this long
        else:
            raise error

    cfg = sweep_config(tmp_path, "both", VALUES)
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]
    calls = cpus(2, fail)
    start = time.monotonic()
    if code is None:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == code
        err = capfdbinary.readouterr().err
        assert err == b"config error: not enough memory for this run (injected)\n"
    assert time.monotonic() - start < 20
    # the child may be killed before it logs its call
    assert [call for call in calls() if call[0] == "parent"] == [("parent", VALUES[0], 16)]
    assert not (tmp_path / "s.csv").exists()


def test_the_split_writer_is_imported_for_a_split_sweep(tmp_path):
    # in a fresh interpreter each: a sweep of one stack short of two, then one of two
    imported = []
    for values in (VALUES[: 2 * _STACK_POINTS - 1], VALUES[: 2 * _STACK_POINTS]):
        cfg = sweep_config(tmp_path, "no-grid", values)
        script = _RUN_ALL + "print('dqdsim.split_writer' in sys.modules)\n"
        runs = json.dumps([["sweep", "--config", cfg, "--out", "s.csv"]])
        run = _python(["-c", script, runs], tmp_path)
        assert (run.returncode, run.stderr) == (0, b""), run.stderr.decode()
        imported.append(run.stdout)
    assert imported == [b"False\n", b"True\n"]
