"""Runs child commands one at a time for run.py and reports on each one.

run.py writes one JSON list of commands per line on stdin; this process runs
them in order and answers with one JSON line that gives, per command, its
wall time, exit code, max RSS and merged stdout/stderr.  It exits at end of
input.

It exists so that children are forked from a small process.  Linux carries
the RSS high-water mark of the forked copy across exec into the child's
ru_maxrss, so children forked from run.py, which holds parsed outputs, would
report run.py's size instead of their own.  It imports nothing heavy for the
same reason.
"""

import json
import os
import subprocess
import sys
import time


def run(command: list) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    with proc.stdout:
        output = proc.stdout.read()
    # wait4 gives this child's own rusage, unlike the cumulative RUSAGE_CHILDREN
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "code": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "output": output.decode("utf-8", "replace"),
    }


def main() -> None:
    for line in sys.stdin:
        results = [run(command) for command in json.loads(line)]
        sys.stdout.write(json.dumps(results) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
