"""dqdsim benchmark: drives the `simulate` CLI and checks every output.

    python3 bench/run.py --workload figs|scan|evolve_json --seed N --seconds S --trace 0|1

Run it from the repository root; it runs the code under src/.

--trace 0  One closed-loop client runs passes over the workload's invocations
           for S seconds, one fresh `simulate` process at a time with
           SIMULATE_THREADS unset, and reports the end-to-end metrics.
--trace 1  The same invocations called in-process through dqdsim.cli.main,
           alternating untraced and traced passes, and reports the per-layer
           metrics of the traced passes (see tracing.py).

Report lines come first; the last line of stdout is one JSON object
{correct, attempted, failed, metrics}.  Outputs, the generated configs, the
result record and the spans go under bench/_work/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads
from checks import OutputChecker
from tracing import LAYERS, Tracer, layer_stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
REFERENCE_FILE = BENCH_DIR / "reference_hashes.json"
SPEC_FILE = ROOT / "BENCHMARK.json"  # declares each metric's name and unit

THREADS_ENV = "SIMULATE_THREADS"
SETUP_COMMAND = [sys.executable, "-c", "import dqdsim.cli"]
# what the `simulate` console script runs
SIMULATE = [
    sys.executable,
    "-c",
    "import sys; from dqdsim.cli import console_main; sys.argv[0] = 'simulate'; console_main()",
]
TRACEBACK = "Traceback (most recent call last)"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark; no result is printed."""


@dataclass
class PassOutcome:
    wall_s: float
    attempted: int = 0
    failures: list = field(default_factory=list)  # one entry per failed invocation
    points: int = 0
    rows: int = 0
    bytes_out: int = 0
    files: int = 0
    identical: int = 0
    max_abs_diff: float = 0.0
    t2_rel_err: float = 0.0
    peak_rss_mb: float = 0.0


def preflight(name: str) -> None:
    needed = [ROOT / "src" / "dqdsim" / "cli.py", REFERENCE_FILE, SPEC_FILE]
    if name == "figs":
        needed += [ROOT / "configs" / f"fig{i}.json" for i in range(1, 7)]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SetupError(f"not a dqdsim checkout, missing: {', '.join(missing)}")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop(THREADS_ENV, None)
    return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    import numpy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():  # never let git search above the checkout
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        THREADS_ENV: f"forced unset (was {os.environ.get(THREADS_ENV)!r})",
        "loadavg_before": _read("/proc/loadavg").strip(),
    }


def load_reference(workload: workloads.Workload) -> dict:
    refs = json.loads(REFERENCE_FILE.read_text()).get(workload.name, {})
    if workload.slot is not None:
        refs = refs.get(str(workload.slot), {})
    return refs


def clear_outputs(workload: workloads.Workload, workdir: Path) -> None:
    """Remove last pass's files, so a failed invocation cannot pass on stale ones."""
    for inv in workload.invocations:
        for out in inv.outputs:
            (workdir / out.name).unlink(missing_ok=True)


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def evaluate(workload, workdir, statuses, checker, reference, wall_s) -> PassOutcome:
    """Check one pass's outputs; statuses holds (exit code, output) per invocation."""
    outcome = PassOutcome(wall_s=wall_s)
    for inv, (code, text) in zip(workload.invocations, statuses):
        outcome.attempted += 1
        outcome.points += inv.points
        reasons = []
        if code != 0:
            reasons.append(f"exit {code}: {_last_line(text)}")
        if TRACEBACK in text:
            reasons.append("printed a traceback")
        for out in inv.outputs:
            path = workdir / out.name
            digest, result = checker.check(out, path)
            outcome.files += 1
            outcome.identical += digest == reference.get(out.name)
            outcome.rows += result.rows
            outcome.bytes_out += path.stat().st_size if digest else 0
            outcome.max_abs_diff = max(outcome.max_abs_diff, result.max_abs_diff)
            outcome.t2_rel_err = max(outcome.t2_rel_err, result.t2_rel_err)
            reasons += [f"{out.name}: {e}" for e in result.errors[:3]]
        if reasons:
            outcome.failures.append(f"{inv.name}: {'; '.join(reasons[:5])}")
    return outcome


class Launcher:
    """The closed-loop client: a small process that runs one child at a time."""

    def __init__(self, cwd: Path, env: dict) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            cwd=cwd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, commands: list) -> dict:
        self._proc.stdin.write(json.dumps(commands) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited early")
        return json.loads(line)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def run_processes(workload, workdir, seconds, checker, reference) -> dict:
    """Passes of fresh processes; each pass also times one import-only child.

    Spreading the set-up samples over the run, instead of taking them all at
    the start, makes their median see the same machine as the passes.
    """
    with Launcher(workdir, child_env()) as launcher:
        located = launcher.run(
            [[sys.executable, "-c", "import dqdsim.cli; print(dqdsim.cli.__file__)"]]
        )[0]
        expected = ROOT / "src" / "dqdsim" / "cli.py"
        if located["code"] != 0 or Path(located["output"].strip()) != expected:
            raise SetupError(f"dqdsim.cli does not import from {expected}: {located['output']}")
        commands = [SETUP_COMMAND] + [SIMULATE + inv.argv() for inv in workload.invocations]
        passes, setup = [], []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            clear_outputs(workload, workdir)
            first, *results = launcher.run(commands)
            if first["code"] != 0:
                raise SetupError(f"import dqdsim.cli failed: {_last_line(first['output'])}")
            setup.append(first["wall_s"])
            outcome = evaluate(
                workload, workdir, [(r["code"], r["output"]) for r in results],
                checker, reference, sum(r["wall_s"] for r in results),
            )
            outcome.peak_rss_mb = max(r["maxrss_kb"] for r in results) / 1024.0
            passes.append(outcome)

    files = sum(p.files for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    walls = [p.wall_s for p in passes]
    busy_s = sum(walls)
    # Pass times are the run's total over its passes, not their median: the
    # host's speed switches between a fast and a slow phase every few seconds,
    # and the median of a run's passes jumps with the share of each phase in
    # it, while the total only moves in proportion (see README.md, Noise).
    metrics = {
        "wall_s": busy_s / len(passes),
        "points_per_s": sum(p.points for p in passes) / busy_s,
        "rows_per_s": sum(p.rows for p in passes) / busy_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "success_rate": 1.0 - failed / attempted,
        "outputs_identical": sum(p.identical for p in passes) / files,
        "max_abs_diff": max(p.max_abs_diff for p in passes),
        "t2_rel_err": max(p.t2_rel_err for p in passes),
    }
    return {"metrics": metrics, "passes": passes,
            "extra": {"wall_s_median": statistics.median(walls),
                      "wall_s_tail": tail_percentile(walls),
                      "setup_samples": len(setup),
                      "error_rate": failed / attempted}}


def tail_percentile(values: list) -> dict:
    """The highest of p50..p99 that has at least ten passes beyond it."""
    if len(values) >= 2:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for p in (99, 95, 90, 75, 50):
            if sum(v > cuts[p - 1] for v in values) >= 10:
                return {"percentile": p, "value": cuts[p - 1], "passes": len(values)}
    return {"percentile": None, "value": None, "passes": len(values),
            "note": "fewer than ten passes beyond the median: p50 needs at least 20 passes"}


def _import_checkout_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import dqdsim.cli

    if Path(dqdsim.cli.__file__).resolve() != ROOT / "src" / "dqdsim" / "cli.py":
        raise SetupError(f"dqdsim.cli imported from {dqdsim.cli.__file__}, not {ROOT / 'src'}")
    return dqdsim.cli


def call_main(cli, argv: list) -> tuple[int, str]:
    captured = io.StringIO()
    try:
        with redirect_stdout(captured), redirect_stderr(captured):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed invocation, not a failed benchmark
        return 1, captured.getvalue() + traceback.format_exc()
    return code, captured.getvalue()


def in_process_pass(cli, workload, workdir, tracer=None) -> tuple[float, list]:
    clear_outputs(workload, workdir)
    statuses = []
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        for inv in workload.invocations:
            if tracer is None:
                statuses.append(call_main(cli, inv.argv()))
            else:
                with tracer.invocation_root(inv.name):
                    statuses.append(call_main(cli, inv.argv()))
        wall = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return wall, statuses


def run_traced(workload, workdir, seconds, checker, reference) -> dict:
    """Untraced and traced in-process passes, alternating, after one warm-up."""
    cli = _import_checkout_cli()
    os.environ.pop(THREADS_ENV, None)
    outcomes, pairs, tracers = [], [], []

    def one_pass(tracer=None) -> PassOutcome:
        wall, statuses = in_process_pass(cli, workload, workdir, tracer)
        outcome = evaluate(workload, workdir, statuses, checker, reference, wall)
        outcomes.append(outcome)
        return outcome

    one_pass()  # warm-up: lazy imports and first-touch allocations
    untraced_walls = []
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        traced_first = len(pairs) % 2 == 1  # alternate, so order effects cancel
        if not traced_first:
            untraced = one_pass()
        tracer = Tracer(workload.name)
        with tracer.installed():
            traced = one_pass(tracer)
        if traced_first:
            untraced = one_pass()
        untraced_walls.append(untraced.wall_s)
        tracers.append(tracer)
        stats = layer_stats(tracer.spans, tracer.counts)
        stats["cli.bytes_out"] = traced.bytes_out
        stats["cli.rows_out"] = traced.rows
        stats["traced_wall_s"] = traced.wall_s
        stats["harness_s"] = traced.wall_s - stats.get("cli.main.s", 0.0)
        stats["trace_overhead_s"] = traced.wall_s - untraced.wall_s
        pairs.append(stats)

    metrics = {name: statistics.median(s.get(name, 0.0) for s in pairs) for name in pairs[0]}
    failed = sum(len(o.failures) for o in outcomes)
    return {
        "metrics": metrics,
        "passes": outcomes,
        "tracers": tracers,
        "extra": {
            "accounting": accounting(pairs),
            "missing_patch_targets": sorted(set(tracers[0].missing)),
            "untraced_wall_s": statistics.median(untraced_walls),
            "outputs_identical": sum(o.identical for o in outcomes) / sum(o.files for o in outcomes),
            "error_rate": failed / sum(o.attempted for o in outcomes),
        },
    }


def accounting(pairs: list) -> dict:
    """Traced wall time of the median traced pass, split into layer self times."""
    stats = sorted(pairs, key=lambda s: s["traced_wall_s"])[len(pairs) // 2]
    parts = {f"{layer}.self_s": stats.get(f"{layer}.self_s", 0.0) for layer in LAYERS}
    parts["harness_s"] = stats["harness_s"]
    total = stats["traced_wall_s"]
    return {
        "traced_wall_s": total,
        "parts": parts,
        "shares": {k: v / total for k, v in parts.items()},
        "unaccounted_s": total - sum(parts.values()),
    }


def declared_units(trace: int) -> dict:
    spec = json.loads(SPEC_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(name, trace, result, env, units) -> None:
    print(f"workload {name}, trace {trace}, {len(result['passes'])} passes")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    for metric, unit in units.items():
        print(f"  {metric} = {result['metrics'].get(metric, 0.0):.6g} {unit}")
    for key, value in result["extra"].items():
        print(f"  {key}: {json.dumps(value)}")
    failures = [f for p in result["passes"] for f in p.failures]
    for failure in sorted(set(failures)):
        print(f"  FAILED ({failures.count(failure)}x) {failure}")


def save(args, workload, workdir, result, env) -> None:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "slot": workload.slot,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "configs": {inv.name: inv.config for inv in workload.invocations},
        "metrics": result["metrics"],
        "extra": result["extra"],
        "passes": [asdict(p) for p in result["passes"]],
    }
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(workdir / "spans.jsonl", "w") as handle:
            for i, tracer in enumerate(result["tracers"]):
                for span in tracer.spans:
                    handle.write(json.dumps({"pass": i, **span.as_dict()}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        preflight(args.workload)
        units = declared_units(args.trace)
        workload = workloads.build(args.workload, args.seed, ROOT)
        workdir = WORK_DIR / args.workload
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workload.write_configs(workdir)
        env = environment()
        reference = load_reference(workload)
        runner = run_traced if args.trace else run_processes
        result = runner(workload, workdir, args.seconds, OutputChecker(), reference)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    env["loadavg_after"] = _read("/proc/loadavg").strip()

    save(args, workload, workdir, result, env)
    report(args.workload, args.trace, result, env, units)
    attempted = sum(p.attempted for p in result["passes"])
    failed = sum(len(p.failures) for p in result["passes"])
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": result["metrics"].get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
