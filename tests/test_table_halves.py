"""A table longer than one sample window is formatted by two processes, byte for byte as by one.

The tests force the two-process path whatever the machine's CPU count, by
patching split_writer.usable_cpus, and compare every output with the one-process
writer's, also where the child, or the fork, fails and the parent writes the
child's rows.  After each, no child process is left: os.waitpid(-1, WNOHANG)
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
    not all(hasattr(os, name) for name in ("fork", "sched_getaffinity")),
    reason="a table is split only where fork and sched_getaffinity exist",
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


def test_usable_cpus_is_the_affinity_mask():
    # every other test sets the count, so this is the one that sees the machine's
    assert split_writer.usable_cpus() == len(os.sched_getaffinity(0))


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


def _spectral_run(tmp_path, monkeypatch, capsys, fmt, fail) -> tuple:
    """main's exit status, stderr and output for a spectral table of two windows.

    fail(i) is called before row i is made, in whichever process makes it.
    """
    count = 2 * SAMPLE_BLOCK
    array_rows = cli._array_rows

    def failing_rows(*columns):
        def rows():
            for i, row in enumerate(array_rows(*columns)):
                fail(i)
                yield row

        return cli._Rows(count, rows())

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
        if i == 2 * SAMPLE_BLOCK - 1:  # the last row: made by the child, then by the parent
            _no_space(i)

    cpus(1)
    one = _spectral_run(tmp_path, monkeypatch, capsys, fmt, fail)
    cuts = cpus(2)
    two = _spectral_run(tmp_path, monkeypatch, capsys, fmt, fail)
    assert cuts == expected_cuts(2 * SAMPLE_BLOCK)
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
    cuts = cpus(2)
    two = _spectral_run(tmp_path, monkeypatch, capsys, fmt, lambda i: None)
    assert cuts == expected_cuts(2 * SAMPLE_BLOCK)
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
    cli._emit_table(fmt, str(one), META, COLUMNS, table(20000), 0.25)
    cuts = cpus(2)
    cli._emit_table(fmt, str(two), META, COLUMNS, table(20000, fail), 0.25)
    assert cuts == expected_cuts(20000)
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
        cuts = cpus(n)
        path = tmp_path / f"t{n}.json"
        with pytest.raises(ZeroDivisionError, match="^row 15000$"):
            cli._emit_table("json", str(path), {}, COLUMNS, table(20000, fail))
        outputs.append(path.read_bytes())
    assert cuts == expected_cuts(20000)
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
    cuts = cpus(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli._emit_table("csv", str(tmp_path / "t.csv"), None, COLUMNS, table(SAMPLE_BLOCK + 1))
    assert cuts == expected_cuts(SAMPLE_BLOCK + 1)
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


# main with the two-process path forced; exit 9 if no table was split
_SPLIT_MAIN = """
import sys
from dqdsim import cli, split_writer
split_writer.usable_cpus = lambda: 2
halves, cuts = split_writer.write_halves, []
split_writer.write_halves = lambda *args: cuts.append(args[3]) or halves(*args)
sys.exit(cli.main(sys.argv[1:]) or (0 if cuts else 9))
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
