"""A table longer than one sample window is formatted by two processes, byte for byte as by one.

The tests force the two-process path whatever the machine's CPU count, by
patching split_writer.usable_cpus, and compare every output with the one-process
writer's.  After each, no child process is left: os.waitpid(-1, WNOHANG)
finds none.
"""

import errno
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings

import pytest

from dqdsim import cli, split_writer
from dqdsim.cli import main
from dqdsim.redfield import SAMPLE_BLOCK
from test_cli import _SRC, EVOLVE_CFG, PCPB, write_config

pytestmark = pytest.mark.skipif(
    not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "sendfile")),
    reason="a table is split only where fork, sched_getaffinity and sendfile exist",
)

COLUMNS = ("t", "x", "name", "none", "index")
META = {"command": "test", "note": "ü"}
# one window; one more row; past three windows, with a last slice of 77 rows in each half
COUNTS = pytest.mark.parametrize(
    "count",
    [SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 3 * SAMPLE_BLOCK + 77],
    ids=["one-window", "one-window-and-a-row", "ragged-last-slice"],
)
FORMATS = pytest.mark.parametrize("fmt", ["csv", "json"])


def table(count: int, fail=None):
    """count rows of every cell kind the writer renders; fail(i) may raise before row i."""

    def rows():
        for i in range(count):
            if fail is not None:
                fail(i)
            yield (i / 7.0, -1.0 / (i + 1), f'p"{i},ü', None, i)

    return cli._Rows(count, rows())


def in_child(parent: int):
    """True in a process forked from parent, which is the caller's process."""
    return os.getpid() != parent


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the writer sees; return the cut of every two-process write."""
    cuts = []
    write_halves = split_writer.write_halves

    def spy(handle, scratch, rows, cut, *rest):
        cuts.append(cut)
        write_halves(handle, scratch, rows, cut, *rest)

    monkeypatch.setattr(split_writer, "write_halves", spy)

    def set_count(n: int) -> list:
        monkeypatch.setattr(split_writer, "usable_cpus", lambda: n)
        return cuts

    return set_count


def expected_cuts(count: int) -> list:
    if count <= SAMPLE_BLOCK:
        return []
    return [count // 2 // cli._ROWS_PER_WRITE * cli._ROWS_PER_WRITE]


@FORMATS
@COUNTS
def test_a_file_is_the_one_process_writers(tmp_path, cpus, fmt, count):
    one, two = tmp_path / "one", tmp_path / "two"
    cpus(1)
    cli._emit_table(fmt, str(one), META, COLUMNS, table(count), 0.25)
    cuts = cpus(2)
    cli._emit_table(fmt, str(two), META, COLUMNS, table(count), 0.25)
    assert cuts == expected_cuts(count)
    assert two.read_bytes() == one.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["one", "two"]
    assert_no_child_left()


@FORMATS
@COUNTS
def test_stdout_is_the_one_process_writers(capfdbinary, cpus, fmt, count):
    cpus(1)
    cli._emit_table(fmt, None, META, COLUMNS, table(count))
    one = capfdbinary.readouterr().out
    cuts = cpus(2)
    cli._emit_table(fmt, None, META, COLUMNS, table(count))
    assert cuts == expected_cuts(count)
    assert capfdbinary.readouterr().out == one
    assert_no_child_left()


def test_the_row_count_alone_decides(tmp_path, cpus):
    # one CPU, or a table of one window, or one whose length is not known: one process
    cuts = cpus(1)
    cli._emit_table("csv", str(tmp_path / "a"), None, COLUMNS, table(2 * SAMPLE_BLOCK))
    cpus(2)
    cli._emit_table("csv", str(tmp_path / "b"), None, COLUMNS, table(SAMPLE_BLOCK))
    cli._emit_table("csv", str(tmp_path / "c"), None, COLUMNS, iter(table(2 * SAMPLE_BLOCK)))
    assert cuts == []
    cli._emit_table("csv", str(tmp_path / "d"), None, COLUMNS, list(table(SAMPLE_BLOCK + 1)))
    assert cuts == expected_cuts(SAMPLE_BLOCK + 1)


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
        cuts = cpus(n)
        assert main(argv) == 0
        captured = capfdbinary.readouterr()
        assert captured.err == b""
        outputs.append(captured.out if to_stdout else out.read_bytes())
    assert cuts == expected_cuts(10001)
    assert outputs[1] == outputs[0]
    assert_no_child_left()


def _spectral_argv(tmp_path, count: int) -> list:
    grid = {"omega_min": 0.0, "omega_max": 2.0, "count": count}
    cfg = write_config(tmp_path, {"bath": PCPB, "grid": grid})
    return ["spectral", "--config", cfg, "--out", str(tmp_path / "j.csv")]


def test_an_oserror_in_the_child_exits_4_with_the_one_process_message(
    tmp_path, monkeypatch, capsys, cpus
):
    count = 2 * SAMPLE_BLOCK
    array_rows = cli._array_rows
    parent = os.getpid()
    messages = []
    for n in (1, 2):

        def failing_rows(*columns, split=n == 2):
            def fail(i):
                # the last row: in the child's half when split, else in the only process
                if i == count - 1 and (in_child(parent) or not split):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), "scratch")

            return cli._Rows(count, (fail(i) or row for i, row in enumerate(array_rows(*columns))))

        monkeypatch.setattr(cli, "_array_rows", failing_rows)
        cuts = cpus(n)
        assert main(_spectral_argv(tmp_path, count)) == 4
        messages.append(capsys.readouterr().err)
    assert cuts == expected_cuts(count)
    assert messages[0] == "i/o error: [Errno 28] No space left on device: 'scratch'\n"
    assert messages[1] == messages[0]
    assert_no_child_left()


@pytest.mark.parametrize(
    "error", [OSError(errno.EIO, "injected"), KeyboardInterrupt()], ids=["OSError", "interrupt"]
)
def test_a_failing_parent_kills_and_reaps_a_child_that_would_run_on(tmp_path, cpus, error):
    parent = os.getpid()

    def fail(i):
        if in_child(parent) and i == 5000:
            time.sleep(30)  # a child that is not killed keeps the parent waiting this long
        elif i == 100 and not in_child(parent):
            raise error

    cpus(2)
    start = time.monotonic()
    with pytest.raises(type(error)):
        cli._emit_table("csv", str(tmp_path / "t.csv"), None, COLUMNS, table(20000, fail))
    assert time.monotonic() - start < 20
    assert_no_child_left()
    assert [path.name for path in tmp_path.iterdir()] == ["t.csv"]


def test_an_exception_in_the_child_is_raised_in_the_parent_as_it_was(tmp_path, cpus):
    parent = os.getpid()

    def fail(i):
        if in_child(parent) and i == 15000:
            raise ZeroDivisionError(f"row {i}")

    cpus(2)
    with pytest.raises(ZeroDivisionError, match="^row 15000$"):
        cli._emit_table("json", str(tmp_path / "t.json"), {}, COLUMNS, table(20000, fail))
    assert_no_child_left()


def test_a_child_killed_by_a_signal_is_an_io_error(tmp_path, cpus):
    parent = os.getpid()

    def fail(i):
        if in_child(parent):
            os.kill(os.getpid(), signal.SIGKILL)

    cpus(2)
    with pytest.raises(ChildProcessError, match="formatting rows 9984 on ended with status -9"):
        cli._emit_table("csv", str(tmp_path / "t.csv"), None, COLUMNS, table(20000, fail))
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
    cuts = cpus(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli._emit_table("csv", str(tmp_path / "t.csv"), None, COLUMNS, table(SAMPLE_BLOCK + 1))
    assert cuts == expected_cuts(SAMPLE_BLOCK + 1)
    assert_no_child_left()


@pytest.mark.parametrize("sendfile", ["kernel", "refused"])
def test_append_copies_after_what_the_handle_wrote(tmp_path, monkeypatch, sendfile):
    # a file opened for appending, as stdout under a >> redirect: sendfile refuses it (EINVAL)
    body = bytes(range(256)) * 5000
    if sendfile == "refused":

        def refuse(*args):
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))

        monkeypatch.setattr(os, "sendfile", refuse)
    path = tmp_path / "log"
    path.write_bytes(b"before\n")
    with tempfile.TemporaryFile(dir=tmp_path) as scratch:
        scratch.write(body)
        scratch.flush()
        with open(path, "a", encoding="utf-8") as out:
            out.write("head\n")
            split_writer.append(out, scratch)
            out.write("tail\n")
    assert path.read_bytes() == b"before\nhead\n" + body + b"tail\n"


# main with the two-process path forced; exit 9 if no table was split
_SPLIT_MAIN = """
import sys
from dqdsim import cli, split_writer
split_writer.usable_cpus = lambda: 2
halves, cuts = split_writer.write_halves, []
split_writer.write_halves = lambda *args: cuts.append(args[3]) or halves(*args)
sys.exit(cli.main(sys.argv[1:]) or (0 if cuts else 9))
"""


@pytest.mark.parametrize("redirect", ["pipe", "append"])
def test_a_real_stdout_is_written_as_a_captured_one(tmp_path, capfdbinary, cpus, redirect):
    # stdout as a pipe (sendfile into a pipe) and as a >> redirect (O_APPEND: the copy fallback)
    cfg = write_config(tmp_path, {**EVOLVE_CFG, "n_steps": 10000, "format": "json"})
    cpus(1)
    assert main(["evolve", "--config", cfg]) == 0
    expected = capfdbinary.readouterr().out
    argv = [sys.executable, "-c", _SPLIT_MAIN, "evolve", "--config", cfg]
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    if redirect == "pipe":
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
