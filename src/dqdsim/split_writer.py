"""The second process of a long table: rows from a cut on, formatted by a forked child.

cli._emit_table hands the rows of a table longer than one sample window to
write_split.  Where more than one CPU is usable, write_halves formats the
rows before the cut into the output here while a forked child formats the
rest into an unlinked temporary file beside it, and then appends the
child's bytes, so the output is byte for byte what one process writes.

cli imports this module only for such a table: without a bytecode cache
(PYTHONDONTWRITEBYTECODE) every run compiles what it imports, and compiling
this code with cli raised the peak memory of runs that split no table by
about 0.4 MB.
"""

from __future__ import annotations

import errno
import io
import itertools
import os
import pickle
import tempfile
import warnings
from typing import Iterator, NoReturn, Optional


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where a table is never split (no fork or sendfile)."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "sendfile")):
        return 1
    return len(os.sched_getaffinity(0))


def write_split(handle, out: Optional[str], rows: Iterator[tuple], cut: int, write_rows) -> None:
    """Every row to handle, those from cut on formatted by a forked child where that can help.

    One process writes them all on one usable CPU, where the platform lacks
    fork, sched_getaffinity or sendfile, and where no temporary file can be
    made or handle has no file descriptor to append it to (a stand-in for
    stdout).  out is handle's path, None for stdout, whose temporary file
    goes to the temporary directory.
    """
    scratch = None
    if usable_cpus() > 1:
        try:
            handle.fileno()
            directory = None if out is None else os.path.dirname(out) or "."
            scratch = tempfile.TemporaryFile(dir=directory)
        except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
            pass
    if scratch is None:
        write_rows(handle.write, rows, "\n")
        return
    with scratch:
        write_halves(handle, scratch, rows, cut, write_rows)


def write_halves(handle, scratch, rows: Iterator[tuple], cut: int, write_rows) -> None:
    """Rows [0, cut) formatted into handle here, the rest by a forked child into scratch.

    write_rows(write, rows, lead) formats and writes an iterator of rows,
    each slice opened by lead, the first one's by the table's separator when
    lead is not given.  The child skips the first cut rows (made, not
    formatted), formats the others into scratch with handle's encoding and
    error handler, and sends its outcome through a pipe: None, or the
    exception it raised, pickled, so the parent raises the same type with
    the same message.  The child always leaves by os._exit: it runs no
    finally block, atexit hook or buffer flush of the parent's, so the text
    it inherits unflushed in handle is written once, by the parent.  The
    parent reaps the child on every path, killing it first when its own half
    fails or is interrupted, and then appends the child's bytes to handle.

    Forking is safe here although numpy's OpenBLAS keeps a worker thread:
    the CLI starts no thread of its own; OpenBLAS quiesces its pool in a
    pthread_atfork handler, and the child's only BLAS use is the 4x4
    products of an RK4 replay; the child touches no lock another thread
    may hold, writes only its own file and pipe, and ends with os._exit.
    Python 3.12 warns on fork() in any process with more than one thread,
    so that warning, and only that one, is silenced around this fork.
    """
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*multi-threaded.*fork", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        _child_writes(handle, scratch, write_rows, itertools.islice(rows, cut, None), write_end)
    os.close(write_end)
    reaped = False
    try:
        write_rows(handle.write, itertools.islice(rows, cut), "\n")
        with open(read_end, "rb", closefd=False) as pipe:
            outcome = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
    finally:
        if not reaped:
            import signal  # only here: importing it costs about a millisecond

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(read_end)
    if not outcome:  # it ended before it sent one: killed, or its exception did not pickle
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"the process formatting rows {cut} on ended with status {code}")
    error = pickle.loads(outcome)  # written by the child above, never read from outside
    if error is not None:
        raise error
    append(handle, scratch)


def _child_writes(handle, scratch, write_rows, rows: Iterator[tuple], write_end: int) -> NoReturn:
    """The forked child of write_halves: format rows into scratch, send the outcome, exit."""
    status = 1
    try:
        try:
            text = io.TextIOWrapper(
                scratch, encoding=handle.encoding, errors=handle.errors, newline=""
            )
            write_rows(text.write, rows)
            text.flush()
            outcome = pickle.dumps(None)
        # every exception, KeyboardInterrupt too, is sent to the parent, which raises it
        except BaseException as exc:
            outcome = pickle.dumps(exc)
        with open(write_end, "wb") as pipe:
            pipe.write(outcome)
        status = 0
    finally:
        os._exit(status)


def append(handle, scratch) -> None:
    """Copy scratch's bytes to the end of handle's file, by sendfile where it can be used."""
    handle.flush()
    out_fd, in_fd = handle.fileno(), scratch.fileno()
    size, offset = os.fstat(in_fd).st_size, 0
    while offset < size:
        try:
            sent = os.sendfile(out_fd, in_fd, offset, size - offset)
        except OSError as exc:
            if exc.errno != errno.EINVAL:  # EINVAL: out is opened for appending (a >> redirect)
                raise
            sent = os.write(out_fd, os.pread(in_fd, min(size - offset, 1 << 20), offset))
        offset += sent
