"""A table of more than cli._SPLIT_ROWS rows is formatted by two processes, byte for byte as by one.

The tests force the two-process path whatever the machine's CPU count, by
patching split_writer.usable_cpus, and compare every output with the one-process
writer's, also where the child, or the fork, fails and the parent writes the
child's rows.  Every table's rows_from calls are logged with the process that
makes them, which pins the cut and shows where the child starts.  After each
test, no child process is left: os.waitpid(-1, WNOHANG) finds none.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings

import pytest

from dqdsim import cli, split_writer
from dqdsim.cli import _SPLIT_ROWS, main
from test_cli import _RUN_ALL, _SRC, EVOLVE_CFG, GRID, PCPB, SWEEP_CFG, _python, write_config

pytestmark = pytest.mark.skipif(
    not all(hasattr(os, name) for name in ("fork", "sched_getaffinity")),
    reason="a table is split only where fork and sched_getaffinity exist",
)

COLUMNS = ("t", "x", "name", "none", "index")
META = {"command": "test", "note": "ü"}
# one window; one more row; past three windows, with a last slice of 77 rows in each half
COUNTS = pytest.mark.parametrize(
    "count",
    [_SPLIT_ROWS, _SPLIT_ROWS + 1, 3 * _SPLIT_ROWS + 77],
    ids=["one-window", "one-window-and-a-row", "ragged-last-slice"],
)
FORMATS = pytest.mark.parametrize("fmt", ["csv", "json"])


def table(count: int, fail=None) -> tuple:
    """count and rows_from of rows of every cell kind the writer renders.

    fail(i) is called before row i is made, in whichever process makes it, and may raise.
    """

    def rows_from(start: int):
        for i in range(start, count):
            if fail is not None:
                fail(i)
            yield (i / 7.0, -1.0 / (i + 1), f'p"{i},ü', None, i)

    return count, rows_from


def in_child(parent: int):
    """True in a process forked from parent, which is the caller's process."""
    return os.getpid() != parent


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch, tmp_path_factory):
    """Set the CPU count the writer sees; return a reader of the tables' starts from then on.

    Every table cli._emit_table writes logs each rows_from(start) call to a file, in
    whichever process makes it; the reader returns them in order, as ("parent", start) or
    ("child", start).
    """
    log = tmp_path_factory.mktemp("starts") / "log"
    emit_table, parent = cli._emit_table, os.getpid()

    def logging_emit_table(fmt, out, meta, columns, count, rows_from, *rest):
        def logged(start: int):
            with open(log, "a") as calls:
                calls.write(f"{'child' if in_child(parent) else 'parent'} {start}\n")
            return rows_from(start)

        emit_table(fmt, out, meta, columns, count, logged, *rest)

    monkeypatch.setattr(cli, "_emit_table", logging_emit_table)

    def starts() -> list:
        return [(who, int(start)) for who, start in map(str.split, log.read_text().splitlines())]

    def set_count(n: int):
        monkeypatch.setattr(split_writer, "usable_cpus", lambda: n)
        log.write_text("")
        return starts

    return set_count


def split_starts(count: int, child_failed: bool = False) -> list:
    """The rows_from calls of a table of count rows written with two usable CPUs.

    The parent draws its rows from 0, the child from its cut, the 128-row slice boundary
    at or before the middle, and the parent from the cut again only after a failed child.
    """
    if count <= _SPLIT_ROWS:
        return [("parent", 0)]
    cut = count // 2 // 128 * 128
    return [("parent", 0), ("child", cut)] + [("parent", cut)] * child_failed


@FORMATS
@COUNTS
def test_a_file_is_the_one_process_writers(tmp_path, cpus, fmt, count):
    one, two = tmp_path / "one", tmp_path / "two"
    cpus(1)
    cli._emit_table(fmt, str(one), META, COLUMNS, *table(count), 0.25)
    starts = cpus(2)
    cli._emit_table(fmt, str(two), META, COLUMNS, *table(count), 0.25)
    assert starts() == split_starts(count)
    assert two.read_bytes() == one.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["one", "two"]
    assert_no_child_left()


@FORMATS
@COUNTS
def test_stdout_is_the_one_process_writers(capfdbinary, cpus, fmt, count):
    cpus(1)
    cli._emit_table(fmt, None, META, COLUMNS, *table(count))
    one = capfdbinary.readouterr().out
    starts = cpus(2)
    cli._emit_table(fmt, None, META, COLUMNS, *table(count))
    assert starts() == split_starts(count)
    assert capfdbinary.readouterr().out == one
    assert_no_child_left()


def test_usable_cpus_is_the_affinity_mask():
    # every other test sets the count, so this is the one that sees the machine's
    assert split_writer.usable_cpus() == len(os.sched_getaffinity(0))


def test_the_row_count_alone_decides(tmp_path, cpus):
    # one CPU, or a table of one window: one process
    starts = cpus(1)
    cli._emit_table("csv", str(tmp_path / "a"), None, COLUMNS, *table(2 * _SPLIT_ROWS))
    assert starts() == [("parent", 0)]
    starts = cpus(2)
    cli._emit_table("csv", str(tmp_path / "b"), None, COLUMNS, *table(_SPLIT_ROWS))
    assert starts() == [("parent", 0)]
    cli._emit_table("csv", str(tmp_path / "c"), None, COLUMNS, *table(_SPLIT_ROWS + 1))
    assert starts() == [("parent", 0)] + split_starts(_SPLIT_ROWS + 1)


def test_the_child_makes_only_the_rows_from_its_cut(tmp_path, cpus):
    # 20 000 rows, cut at 9984: the child's first row is the cut, and it makes no row before
    parent, made = os.getpid(), tmp_path / "made"

    def log_child_rows(i):
        if in_child(parent) and i <= 9984:
            with open(made, "a") as rows:
                rows.write(f"{i}\n")

    starts = cpus(2)
    cli._emit_table("csv", str(tmp_path / "t.csv"), None, COLUMNS, *table(20000, log_child_rows))
    assert starts() == [("parent", 0), ("child", 9984)]
    assert made.read_text() == "9984\n"
    assert_no_child_left()


@FORMATS
@pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
def test_evolve_of_both_engines_is_the_one_process_writers(
    tmp_path, capfdbinary, cpus, fmt, to_stdout
):
    # 10 001 rows: the child replays both engines, the numeric one through BLAS, after fork
    cfg = write_config(tmp_path, {**EVOLVE_CFG, "engine": "both", "n_steps": 10000})
    out = tmp_path / f"e.{fmt}"
    argv = ["evolve", "--config", cfg, "--format", fmt] + ([] if to_stdout else ["--out", str(out)])
    outputs = []
    for n in (1, 2):
        starts = cpus(n)
        assert main(argv) == 0
        captured = capfdbinary.readouterr()
        assert captured.err == b""
        outputs.append(captured.out if to_stdout else out.read_bytes())
    assert starts() == split_starts(10001)
    assert outputs[1] == outputs[0]
    assert_no_child_left()


def _spectral_run(tmp_path, monkeypatch, capsys, fmt, fail) -> tuple:
    """main's exit status, stderr and output for a spectral table of two windows.

    fail(i) is called before row i is made, in whichever process makes it.
    """
    count = 2 * _SPLIT_ROWS
    array_rows = cli._array_rows

    def failing_rows(*columns):
        _, rows_from = array_rows(*columns)

        def failing_rows_from(start: int):
            for i, row in enumerate(rows_from(start), start):
                fail(i)
                yield row

        return count, failing_rows_from

    grid = {"omega_min": 0.0, "omega_max": 2.0, "count": count}
    cfg = write_config(tmp_path, {"bath": PCPB, "grid": grid})
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_array_rows", failing_rows)
        code = main(["spectral", "--config", cfg, "--format", fmt, "--out", str(tmp_path / "j")])
    return code, capsys.readouterr().err, (tmp_path / "j").read_bytes()


def _no_space(i):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), "scratch")


@FORMATS
def test_an_oserror_past_the_cut_exits_4_as_by_one_process(
    tmp_path, monkeypatch, capsys, cpus, fmt
):
    def fail(i):
        if i == 2 * _SPLIT_ROWS - 1:  # the last row: made by the child, then by the parent
            _no_space(i)

    cpus(1)
    one = _spectral_run(tmp_path, monkeypatch, capsys, fmt, fail)
    starts = cpus(2)
    two = _spectral_run(tmp_path, monkeypatch, capsys, fmt, fail)
    assert starts() == split_starts(2 * _SPLIT_ROWS, child_failed=True)
    assert one[:2] == (4, "i/o error: [Errno 28] No space left on device: 'scratch'\n")
    assert two == one
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "j"]
    assert_no_child_left()


@FORMATS
def test_a_fork_that_fails_leaves_every_row_to_this_process(
    tmp_path, monkeypatch, capsys, cpus, fmt
):
    def no_fork():  # as under a process limit
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    cpus(1)
    one = _spectral_run(tmp_path, monkeypatch, capsys, fmt, lambda i: None)
    monkeypatch.setattr(os, "fork", no_fork)
    starts = cpus(2)
    two = _spectral_run(tmp_path, monkeypatch, capsys, fmt, lambda i: None)
    assert starts() == [("parent", 0)]
    assert one[:2] == (0, "")
    assert two == one
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "j"]
    assert_no_child_left()


@pytest.mark.parametrize(
    "error", [OSError(errno.EIO, "injected"), KeyboardInterrupt()], ids=["OSError", "interrupt"]
)
def test_a_failing_parent_kills_and_reaps_a_child_that_would_run_on(tmp_path, cpus, error):
    parent = os.getpid()

    def fail(i):
        if in_child(parent) and i == 15000:  # past the cut at 9984, where the child starts
            time.sleep(30)  # a child that is not killed keeps the parent waiting this long
        elif i == 100 and not in_child(parent):
            raise error

    cpus(2)
    start = time.monotonic()
    with pytest.raises(type(error)):
        cli._emit_table("csv", str(tmp_path / "t.csv"), None, COLUMNS, *table(20000, fail))
    assert time.monotonic() - start < 20
    assert_no_child_left()
    assert [path.name for path in tmp_path.iterdir()] == ["t.csv"]


def _divide_by_zero(i):
    raise ZeroDivisionError(f"row {i}")


def _killed(i):
    os.kill(os.getpid(), signal.SIGKILL)


@FORMATS
@pytest.mark.parametrize(
    "fault", [_divide_by_zero, _no_space, _killed], ids=["ZeroDivisionError", "OSError", "SIGKILL"]
)
def test_a_child_that_fails_leaves_its_rows_to_the_parent(tmp_path, cpus, fmt, fault):
    # row 15 000 is past the cut at 9984: the child has written part of its half when it fails
    parent = os.getpid()

    def fail(i):
        if in_child(parent) and i == 15000:
            fault(i)

    one, two = tmp_path / "one", tmp_path / "two"
    cpus(1)
    cli._emit_table(fmt, str(one), META, COLUMNS, *table(20000), 0.25)
    starts = cpus(2)
    cli._emit_table(fmt, str(two), META, COLUMNS, *table(20000, fail), 0.25)
    assert starts() == split_starts(20000, child_failed=True)
    assert two.read_bytes() == one.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["one", "two"]
    assert_no_child_left()


def test_a_fault_past_the_cut_is_raised_as_by_one_process(tmp_path, cpus):
    # a real fault raises in the child and again in the parent, which makes the same row;
    # test_an_oserror_past_the_cut_exits_4_as_by_one_process does this for an OSError
    def fail(i):
        if i == 15000:
            _divide_by_zero(i)

    outputs = []
    for n in (1, 2):
        starts = cpus(n)
        path = tmp_path / f"t{n}.json"
        with pytest.raises(ZeroDivisionError, match="^row 15000$"):
            cli._emit_table("json", str(path), {}, COLUMNS, *table(20000, fail))
        outputs.append(path.read_bytes())
    assert starts() == split_starts(20000, child_failed=True)
    assert outputs[1] == outputs[0]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["t1.json", "t2.json"]
    assert_no_child_left()


def test_the_python_3_12_fork_warning_is_silenced(tmp_path, monkeypatch, cpus):
    # Python 3.12 gives this warning on fork() in any process with more than one thread, as
    # numpy's OpenBLAS makes this one; 3.11 gives none, so the test gives it the same way
    fork = os.fork

    def warning_fork():
        message = (
            f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to "
            "deadlocks in the child."
        )
        warnings.warn(message, DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    starts = cpus(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli._emit_table("csv", str(tmp_path / "t.csv"), None, COLUMNS, *table(_SPLIT_ROWS + 1))
    assert starts() == split_starts(_SPLIT_ROWS + 1)
    assert_no_child_left()


@pytest.mark.parametrize("case", ["O_APPEND", "short-writes"])
def test_append_copies_after_what_the_handle_wrote(tmp_path, monkeypatch, case):
    # a file opened for appending, as stdout under a >> redirect; and writes that take at most
    # 4096 bytes a call, as a pipe or a raw unbuffered stdout may
    body = bytes(range(256)) * 5000
    path = tmp_path / "log"
    path.write_bytes(b"before\n")
    mode = "a"
    if case == "short-writes":
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:4096]))
        mode = "r+"
    with tempfile.TemporaryFile(dir=tmp_path) as scratch:
        scratch.write(body)
        scratch.flush()
        with open(path, mode, encoding="utf-8") as out:
            out.seek(0, os.SEEK_END)
            out.write("head\n")
            split_writer.append(out, scratch)
            out.write("tail\n")
    assert path.read_bytes() == b"before\nhead\n" + body + b"tail\n"


# main with the two-process path forced; each rows_from call logged to the file starts
_SPLIT_MAIN = """
import os, sys
from dqdsim import cli, split_writer
split_writer.usable_cpus = lambda: 2
emit_table, parent = cli._emit_table, os.getpid()
def logging_emit_table(fmt, out, meta, columns, count, rows_from, *rest):
    def logged(start):
        with open("starts", "a") as calls:
            calls.write(f"{'parent' if os.getpid() == parent else 'child'} {start}\\n")
        return rows_from(start)
    emit_table(fmt, out, meta, columns, count, logged, *rest)
cli._emit_table = logging_emit_table
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("redirect", ["pipe", "append", "unbuffered"])
def test_a_real_stdout_is_written_as_a_captured_one(tmp_path, capfdbinary, cpus, redirect):
    # stdout as a pipe, as a >> redirect (O_APPEND), and as a pipe under python -u, where
    # sys.stdout.buffer is a raw FileIO whose writes may be short
    cfg = write_config(tmp_path, {**EVOLVE_CFG, "n_steps": 10000, "format": "json"})
    cpus(1)
    assert main(["evolve", "--config", cfg]) == 0
    expected = capfdbinary.readouterr().out
    argv = [sys.executable, "-c", _SPLIT_MAIN, "evolve", "--config", cfg]
    if redirect == "unbuffered":
        argv.insert(1, "-u")
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    if redirect != "append":
        run = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True)
        assert (run.returncode, run.stderr) == (0, b""), run.stderr.decode()
        assert run.stdout == expected
    else:
        log = tmp_path / "log"
        log.write_bytes(b"earlier\n")
        with open(log, "ab") as stdout:
            run = subprocess.run(argv, cwd=tmp_path, env=env, stdout=stdout, stderr=subprocess.PIPE)
        assert (run.returncode, run.stderr) == (0, b""), run.stderr.decode()
        assert log.read_bytes() == b"earlier\n" + expected
    assert (tmp_path / "starts").read_text() == "parent 0\nchild 4992\n"


@FORMATS
def test_a_long_sweep_summary_is_the_one_process_writers(tmp_path, cpus, fmt):
    # 8193 points without a time grid: a summary one row longer than a window, cut at 4096
    values = [0.3 + i * 1e-5 for i in range(_SPLIT_ROWS + 1)]
    payload = {**SWEEP_CFG, "sweep": {"parameter": "omega_l", "values": values}, "format": fmt}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / f"s.{fmt}"
    outputs = []
    for n in (1, 2):
        starts = cpus(n)
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert starts() == split_starts(_SPLIT_ROWS + 1)
    assert outputs[1] == outputs[0]
    assert_no_child_left()


def test_the_split_writer_is_imported_only_for_a_table_longer_than_one_window(tmp_path):
    # in a fresh interpreter each: a 5001-row evolve and a sweep with trajectory files, then a
    # 50 001-row evolve; importing the module raises a run's peak memory (see split_writer)
    evolve = write_config(tmp_path, EVOLVE_CFG, "evolve.json")
    long_evolve = write_config(tmp_path, {**EVOLVE_CFG, "n_steps": 50000}, "long.json")
    sweep = write_config(tmp_path, {**SWEEP_CFG, **GRID, "trajectories": {"write": True}})
    short = [
        ["evolve", "--config", evolve, "--out", "e.csv"],
        ["sweep", "--config", sweep, "--out", "s.csv"],
    ]
    imported = []
    for runs in (short, [["evolve", "--config", long_evolve, "--out", "l.csv"]]):
        script = _RUN_ALL + "print('dqdsim.split_writer' in sys.modules)\n"
        run = _python(["-c", script, json.dumps(runs)], tmp_path)
        assert (run.returncode, run.stderr) == (0, b""), run.stderr.decode()
        imported.append(run.stdout)
    assert imported == [b"False\n", b"True\n"]
    assert (tmp_path / "s_point1.csv").exists()
