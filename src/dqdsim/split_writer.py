"""Two processes for one job: a forked child does its later part, the same bytes as one process.

run_halves is the one fork protocol, and it has two users in cli.  A table
of more than cli._SPLIT_ROWS rows (cli._emit_table, through write_split):
this process writes the rows before a cut into the output while a forked
child writes the rest into an unlinked temporary file, whose bytes are then
appended.  A sweep that writes no trajectory files and has at least two
stacks of points (cli.cmd_sweep, through sweep_split): this process
evaluates the points before a cut on a stack boundary while a forked child
evaluates the rest and sends their float fields back through a temporary
file.  Either way the output is byte for byte, and every error as raised,
what one process makes: a child that fails costs only time, as this process
then does its part.

cli imports this module only for such a table or sweep: without a bytecode
cache (PYTHONDONTWRITEBYTECODE) every run compiles what it imports, and
compiling this code with cli raised the peak memory of runs that split no
table by about 0.4 MB; the sweep's part alone, compiled with cli, raised the
peak of every run by about 0.3 MB.
"""

from __future__ import annotations

import dataclasses
import io
import os
import tempfile
import warnings

import numpy as np

from .analysis import SweepError, SweepPoint, SweepResult, SweepSpec


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where nothing is ever split (no fork)."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def run_halves(here, there, take, redo, directory=None) -> bool:
    """here() here while a forked child calls there(scratch); then take(scratch), or redo().

    Returns False, having called none of them, where no child can be forked:
    on one usable CPU, without fork or sched_getaffinity, where no temporary
    file can be made in directory (the temporary directory for None), and
    where os.fork fails.  Otherwise returns True once here() and then either
    take(scratch) or redo() have run.

    The child calls there(scratch) with scratch an unlinked temporary binary
    file, flushes it, and reports only by its exit status: 0 once scratch is
    flushed, 1 on any exception.  It leaves by os._exit on every path,
    running no finally block, atexit hook or buffer flush of the parent's, so
    what it inherits unflushed is written once, by the parent.  The parent
    reaps the child, killing it first when here raises anything, interrupts
    and MemoryError too, which then propagates.  On status 0 it calls
    take(scratch) with what the child wrote; otherwise (an exception, a
    signal) redo(), which does the child's part here, so every error is
    raised, and every result made, as by one process.

    Forking is safe here although numpy's OpenBLAS keeps a worker thread:
    the CLI starts no thread of its own; OpenBLAS quiesces its pool in a
    pthread_atfork handler, and the child's only BLAS use is the 4x4
    products of RK4; the child touches no lock another thread may hold,
    writes only its own file, and ends with os._exit.  Python 3.12 warns on
    fork() in any process with more than one thread, so that warning, and
    only that one, is silenced around this fork.
    """
    if usable_cpus() < 2:
        return False
    try:
        scratch = tempfile.TemporaryFile(dir=directory)
    except OSError:
        return False
    with scratch:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", ".*multi-threaded.*fork", DeprecationWarning)
                pid = os.fork()
        except OSError:  # EAGAIN under a process limit, or ENOMEM: one process can do it all
            return False
        if pid == 0:
            status = 1
            try:
                there(scratch)
                scratch.flush()
                status = 0
            finally:
                os._exit(status)
        try:
            here()
            _, status = os.waitpid(pid, 0)
        except BaseException:
            import signal  # only here: importing it costs about a millisecond

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if status == 0:
            take(scratch)
        else:
            redo()
    return True


def write_split(handle, out: str | None, here, there) -> bool:
    """Text of here(write) to handle from this process, then of there(write) from a forked child.

    Returns False, having written nothing, where run_halves forks no child,
    and where handle has no file descriptor to append to (a stand-in for
    stdout).  out is handle's path, None for stdout, whose temporary file
    goes to the temporary directory.  The child writes there's text into the
    temporary file with handle's encoding and error handler; the parent
    appends its bytes, or calls there(handle.write) itself where the child
    failed.
    """
    try:
        handle.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return False

    def write_there(scratch) -> None:
        text = io.TextIOWrapper(scratch, encoding=handle.encoding, errors=handle.errors, newline="")
        there(text.write)
        text.detach()  # flushed into scratch, which dropping text would otherwise close

    return run_halves(
        lambda: here(handle.write),
        write_there,
        lambda scratch: append(handle, scratch),
        lambda: there(handle.write),
        None if out is None else os.path.dirname(out) or ".",
    )


def append(handle, scratch) -> None:
    """Copy scratch's bytes to the end of handle's file, 64 KiB at a time."""
    handle.flush()
    out_fd, in_fd, offset = handle.fileno(), scratch.fileno(), 0
    # a short write (a pipe, or a raw unbuffered stdout) is read again from where it stopped
    while chunk := os.pread(in_fd, 1 << 16, offset):
        offset += os.write(out_fd, chunk)


def sweep_split(spec: SweepSpec, cut: int, run_sweep) -> tuple[SweepPoint, ...]:
    """The points of spec, those from cut on evaluated by a forked child where one can be.

    cut is a stack boundary (analysis._STACK_POINTS) at or before the
    middle, so each half prepares the stacks one process would; run_sweep is
    the caller's, called once per half.  This process evaluates the points
    before the cut while the child evaluates the rest and sends each point's
    seven float fields back as float64 records, bit for bit; the spec decides
    which of them are None.  Where the child fails, this process evaluates
    its points itself, and a SweepError there is raised again as one process
    raises it: its partial points follow those before the cut, indexed from
    the sweep's start, under the whole spec.  A failure before the cut is
    raised as it is, the child killed first.  Where no child can be forked,
    one run_sweep call evaluates every point.
    """
    first = dataclasses.replace(spec, values=spec.values[:cut])
    rest = dataclasses.replace(spec, values=spec.values[cut:])
    points: list[SweepPoint] = []

    def send(scratch) -> None:
        # a None field is stored as NaN, and read back as None by the spec
        scratch.write(np.array([p[3:] for p in run_sweep(rest).points], dtype=float).tobytes())

    def receive(scratch) -> None:
        scratch.seek(0)
        records = np.frombuffer(scratch.read(), dtype=float).reshape(-1, 7).tolist()
        timed = spec.grid is not None
        for i, (value, record) in enumerate(zip(rest.values, records), cut):
            *fields, t2_empirical, max_abs_diff = record
            points.append(SweepPoint(
                i, spec.swept_parameter, value, *fields, t2_empirical if timed else None,
                max_abs_diff if timed and spec.engine == "both" else None,
            ))

    def redo() -> None:
        try:
            later = run_sweep(rest).points
        except SweepError as exc:
            done = points + [p._replace(index=p.index + cut) for p in exc.partial.points]
            raise SweepError(str(exc), SweepResult(spec, tuple(done)), exc.value) from exc.__cause__
        points.extend(p._replace(index=p.index + cut) for p in later)

    if not run_halves(lambda: points.extend(run_sweep(first).points), send, receive, redo):
        return run_sweep(spec).points
    return tuple(points)
