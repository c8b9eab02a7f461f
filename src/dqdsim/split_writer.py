"""The second process of a long table: rows from a cut on, formatted by a forked child.

cli._emit_table hands the rows of a table longer than one sample window to
write_split.  Where more than one CPU is usable, write_halves formats the
rows before the cut into the output here while a forked child formats the
rest into an unlinked temporary file beside it, and then appends the
child's bytes, so the output is byte for byte what one process writes.  A
child or a fork that fails costs only time: this process writes the rest.

cli imports this module only for such a table: without a bytecode cache
(PYTHONDONTWRITEBYTECODE) every run compiles what it imports, and compiling
this code with cli raised the peak memory of runs that split no table by
about 0.4 MB.
"""

from __future__ import annotations

import io
import itertools
import os
import tempfile
import warnings
from typing import Iterator, Optional


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where a table is never split (no fork)."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def write_split(handle, out: Optional[str], rows: Iterator[tuple], cut: int, write_rows) -> None:
    """Every row to handle, those from cut on formatted by a forked child where that can help.

    One process writes them all on one usable CPU, where the platform lacks
    fork or sched_getaffinity, and where no temporary file can be made or
    handle has no file descriptor to append it to (a stand-in for stdout).
    out is handle's path, None for stdout, whose temporary file goes to the
    temporary directory.
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
    error handler, and reports only by its exit status: 0 once its text is
    flushed, 1 on any exception.  It leaves by os._exit, running no finally
    block, atexit hook or buffer flush of the parent's, so the text it
    inherits unflushed in handle is written once, by the parent.  The parent
    reaps the child, killing it first when its own half fails or is
    interrupted.  On status 0 it appends the child's bytes; otherwise its
    own iterator stands at the cut and it formats the rest itself, so every
    error is raised, and every byte written, as by one process.

    Forking is safe here although numpy's OpenBLAS keeps a worker thread:
    the CLI starts no thread of its own; OpenBLAS quiesces its pool in a
    pthread_atfork handler, and the child's only BLAS use is the 4x4
    products of an RK4 replay; the child touches no lock another thread
    may hold, writes only its own file, and ends with os._exit.  Python
    3.12 warns on fork() in any process with more than one thread, so that
    warning, and only that one, is silenced around this fork.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*multi-threaded.*fork", DeprecationWarning)
            pid = os.fork()
    except OSError:  # EAGAIN under a process limit, or ENOMEM: one process can write it all
        write_rows(handle.write, rows, "\n")
        return
    if pid == 0:
        status = 1
        try:
            text = io.TextIOWrapper(
                scratch, encoding=handle.encoding, errors=handle.errors, newline=""
            )
            write_rows(text.write, itertools.islice(rows, cut, None))
            text.flush()
            status = 0
        finally:
            os._exit(status)
    try:
        write_rows(handle.write, itertools.islice(rows, cut), "\n")
        _, status = os.waitpid(pid, 0)
    except BaseException:
        import signal  # only here: importing it costs about a millisecond

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status == 0:
        append(handle, scratch)
    else:
        write_rows(handle.write, rows)


def append(handle, scratch) -> None:
    """Copy scratch's bytes to the end of handle's file, 64 KiB at a time."""
    handle.flush()
    out_fd, in_fd, offset = handle.fileno(), scratch.fileno(), 0
    # a short write (a pipe, or a raw unbuffered stdout) is read again from where it stopped
    while chunk := os.pread(in_fd, 1 << 16, offset):
        offset += os.write(out_fd, chunk)
