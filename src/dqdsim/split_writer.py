"""The second process of a long table: one part of its text, written by a forked child.

cli._emit_table splits a table of more than cli._SPLIT_ROWS rows in two parts
and hands write_split the writing of each.  Where more than one CPU is usable,
this process writes the first part into the output while a forked child
writes the second into an unlinked temporary file beside it, and then
appends the child's bytes, so the output is byte for byte what one process
writes.  A child that fails costs only time: this process writes its part.

cli imports this module only for such a table: without a bytecode cache
(PYTHONDONTWRITEBYTECODE) every run compiles what it imports, and compiling
this code with cli raised the peak memory of runs that split no table by
about 0.4 MB.
"""

from __future__ import annotations

import io
import os
import tempfile
import warnings


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where a table is never split (no fork)."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def write_split(handle, out: str | None, here, there) -> bool:
    """Text of here(write) to handle from this process, then of there(write) from a forked child.

    Returns False, having written nothing, where no child can be forked: on
    one usable CPU, without fork or sched_getaffinity, where handle has no
    file descriptor to append to (a stand-in for stdout), where no temporary
    file can be made, and where os.fork fails.  out is handle's path, None
    for stdout, whose temporary file goes to the temporary directory.

    The child writes there's text into the temporary file with handle's
    encoding and error handler, and reports only by its exit status: 0 once
    its text is flushed, 1 on any exception.  It leaves by os._exit, running
    no finally block, atexit hook or buffer flush of the parent's, so the
    text it inherits unflushed in handle is written once, by the parent.
    The parent reaps the child, killing it first when here fails or is
    interrupted.  On status 0 it appends the child's bytes; otherwise it
    calls there itself, so every error is raised, and every byte written,
    as by one process.

    Forking is safe here although numpy's OpenBLAS keeps a worker thread:
    the CLI starts no thread of its own; OpenBLAS quiesces its pool in a
    pthread_atfork handler, and the child's only BLAS use is the 4x4
    products of an RK4 replay; the child touches no lock another thread
    may hold, writes only its own file, and ends with os._exit.  Python
    3.12 warns on fork() in any process with more than one thread, so that
    warning, and only that one, is silenced around this fork.
    """
    if usable_cpus() < 2:
        return False
    try:
        handle.fileno()
        directory = None if out is None else os.path.dirname(out) or "."
        scratch = tempfile.TemporaryFile(dir=directory)
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return False
    with scratch:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", ".*multi-threaded.*fork", DeprecationWarning)
                pid = os.fork()
        except OSError:  # EAGAIN under a process limit, or ENOMEM: one process can write it all
            return False
        if pid == 0:
            status = 1
            try:
                text = io.TextIOWrapper(
                    scratch, encoding=handle.encoding, errors=handle.errors, newline=""
                )
                there(text.write)
                text.flush()
                status = 0
            finally:
                os._exit(status)
        try:
            here(handle.write)
            _, status = os.waitpid(pid, 0)
        except BaseException:
            import signal  # only here: importing it costs about a millisecond

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if status == 0:
            append(handle, scratch)
        else:
            there(handle.write)
    return True


def append(handle, scratch) -> None:
    """Copy scratch's bytes to the end of handle's file, 64 KiB at a time."""
    handle.flush()
    out_fd, in_fd, offset = handle.fileno(), scratch.fileno(), 0
    # a short write (a pipe, or a raw unbuffered stdout) is read again from where it stopped
    while chunk := os.pread(in_fd, 1 << 16, offset):
        offset += os.write(out_fd, chunk)
