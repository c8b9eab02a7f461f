"""Records the benchmark's reference hashes and its baseline.

    python3 bench/record.py reference
        Runs every workload once per reference slot, checks the outputs and
        writes the sha256 of each file to bench/reference_hashes.json.  The
        hashes are the byte-preservation record: take them only from a commit
        whose outputs are the reference.
    python3 bench/record.py baseline
        Runs every workload with --trace 0 and --trace 1 at seed 0, for the
        run_seconds that BENCHMARK.json declares, and writes the results, with
        the per-layer breakdown and the run length, to bench/BENCH_baseline.json.

Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run
import workloads
from checks import OutputChecker, sha256


def record_reference() -> None:
    checker = OutputChecker()
    reference: dict = {}
    for name in workloads.WORKLOADS:
        slots = range(workloads.REFERENCE_SLOTS) if name == "scan" else [None]
        for slot in slots:
            workload = workloads.build(name, slot or 0, run.ROOT)
            workdir = run.WORK_DIR / "reference" / name
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload.write_configs(workdir)
            with run.Launcher(workdir, run.child_env()) as launcher:
                results = launcher.run([run.SIMULATE + inv.argv() for inv in workload.invocations])
            statuses = [(r["code"], r["output"]) for r in results]
            outcome = run.evaluate(workload, workdir, statuses, checker, {}, 0.0)
            if outcome.failures:
                sys.exit(f"{name} slot {slot}: {outcome.failures}")
            hashes = {
                out.name: sha256((workdir / out.name).read_bytes())
                for inv in workload.invocations
                for out in inv.outputs
            }
            if slot is None:
                reference[name] = hashes
            else:
                reference.setdefault(name, {})[str(slot)] = hashes
            print(f"{name} slot {slot}: {len(hashes)} files", flush=True)
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def record_baseline() -> None:
    seconds = json.loads(run.SPEC_FILE.read_text())["run_seconds"]
    baseline = {"run_seconds": seconds}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=True,
            )
            print(proc.stdout, end="", flush=True)
            saved = run.WORK_DIR / "results" / f"{name}-seed0-trace{trace}.json"
            record = json.loads(saved.read_text())
            entry = baseline.setdefault(name, {"environment": record["environment"]})
            entry["end_to_end" if trace == 0 else "per_layer"] = record["metrics"]
            entry["trace0_extra" if trace == 0 else "trace1_extra"] = record["extra"]
    path = run.BENCH_DIR / "BENCH_baseline.json"
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description="record reference hashes or the baseline")
    parser.add_argument("what", choices=("reference", "baseline"))
    args = parser.parse_args()
    if args.what == "reference":
        record_reference()
    else:
        record_baseline()


if __name__ == "__main__":
    main()
