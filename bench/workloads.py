"""The benchmark's workloads: which `simulate` invocations each one runs.

figs         the six bundled configs/fig1..6.json sweeps, as they are, with
             trajectory files on: the paper-reproduction run.  CSV row
             formatting and interpreter start-up dominate it.
scan         three seeded sweeps of 800 points each on a short time grid, no
             trajectory files: compute-bound (RK4 propagation and the closed
             form), with a negligible CLI share.
evolve_json  one long `evolve --format json` (pcpb, 5e4 steps) plus a `t2` of
             the same config: the one-point commands that bypass run_sweep,
             dominated by building and dumping the JSON rows.

Every invocation uses engine `both`, so each output carries the cross-engine
discrepancy.  Only `scan` depends on the seed, and only through
seed % REFERENCE_SLOTS: the output hashes of every slot were recorded at the
commit that added the benchmark, so `outputs_identical` is defined for any
seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("figs", "scan", "evolve_json")
REFERENCE_SLOTS = 64

SCAN_POINTS = 800

# (name, base config, swept parameter, value range).  The ranges and grids keep
# every drawn point inside the RK4 guard h*max(omega_21, 2*chi) <= 0.1 and give
# each trajectory at least four decay times, which T2 extraction needs.
_SCAN_SWEEPS = (
    (
        "scan_temperature",
        {
            "bath": {"kind": "pcpb", "g": 0.035, "omega_d": 0.02, "omega_l": 0.5},
            "t_end": 2500.0,
            "n_steps": 5000,
            "store_every": 2,
        },
        "temperature",
        (0.02, 1.0),
    ),
    (
        "scan_omega_l",
        {
            "bath": {"kind": "pcpb", "g": 0.035, "omega_d": 0.02, "omega_l": 0.5},
            "t_end": 3000.0,
            "n_steps": 12000,
            "store_every": 6,
        },
        "omega_l",
        (0.4, 1.0),
    ),
    (
        "scan_eta",
        {
            "bath": {"kind": "ohmic", "eta": 0.1, "omega_c": 0.05, "s_exponent": 1},
            "qubit": {"omega_l": 0.5},
            "t_end": 7500.0,
            "n_steps": 15000,
            "store_every": 5,
        },
        "eta",
        (0.1, 0.5),
    ),
)
# fixed temperature of the omega_l and eta sweeps (kelvin)
_SCAN_TEMPERATURE_K = 0.1

# pcpb at omega_l = 0.5 and 30 mK: T2 = 489 ps, so the grid spans five decay times
_EVOLVE_CONFIG = {
    "bath": {"kind": "pcpb", "g": 0.035, "omega_d": 0.02, "omega_l": 0.5},
    "temperature_mK": 30,
    "t_end": 2500.0,
    "n_steps": 50000,
    "store_every": 1,
    "engine": "both",
    "format": "json",
}


@dataclass(frozen=True)
class Output:
    """One file an invocation writes, and what its check expects."""

    name: str
    kind: str  # "sweep_csv", "trajectory_csv", "evolve_json" or "t2_json"
    rows: int
    values: tuple[float, ...] = ()  # sweep values echoed by a sweep summary


@dataclass(frozen=True)
class Invocation:
    name: str
    command: str  # simulate subcommand
    config: dict
    outputs: tuple[Output, ...]  # outputs[0] is the file given to --out
    points: int  # parameter points the invocation evaluates

    def argv(self) -> list[str]:
        """Arguments relative to the workload directory, the invocation's cwd.

        JSON outputs echo --out in their meta block, so an absolute path would
        make the output bytes depend on where the checkout lives.
        """
        return [self.command, "--config", f"{self.name}.config.json", "--out", self.outputs[0].name]


@dataclass(frozen=True)
class Workload:
    name: str
    slot: Optional[int]  # reference slot, None when the seed does not matter
    invocations: tuple[Invocation, ...]

    def write_configs(self, workdir: Path) -> None:
        for inv in self.invocations:
            (workdir / f"{inv.name}.config.json").write_text(
                json.dumps(inv.config, indent=2, sort_keys=True) + "\n"
            )


def _stored_rows(cfg: dict) -> int:
    return cfg["n_steps"] // cfg.get("store_every", 1) + 1


def _sweep_invocation(name: str, cfg: dict) -> Invocation:
    values = tuple(float(v) for v in cfg["sweep"]["values"])
    outputs = [Output(f"{name}.csv", "sweep_csv", len(values), values)]
    traj = cfg.get("trajectories", {})
    if traj.get("write"):
        rows = len(range(0, _stored_rows(cfg), traj.get("every", 1)))
        outputs += [
            Output(f"{name}_point{i}.csv", "trajectory_csv", rows) for i in range(len(values))
        ]
    return Invocation(name, "sweep", cfg, tuple(outputs), len(values))


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal bins of [lo, hi): strictly ascending.

    Every seed covers the whole range evenly, so the largest cross-engine
    discrepancy and T2 error of a sweep barely depend on the seed.
    """
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


def figs(root: Path) -> Workload:
    invocations = []
    for i in range(1, 7):
        cfg = json.loads((root / "configs" / f"fig{i}.json").read_text())
        invocations.append(_sweep_invocation(f"fig{i}", cfg))
    return Workload("figs", None, tuple(invocations))


def scan(slot: int) -> Workload:
    rng = random.Random(f"scan-{slot}")
    invocations = []
    for name, base, parameter, (lo, hi) in _SCAN_SWEEPS:
        cfg = dict(base, engine="both", format="csv")
        cfg["sweep"] = {"parameter": parameter, "values": _stratified(rng, lo, hi, SCAN_POINTS)}
        if parameter != "temperature":
            cfg["temperature_K"] = _SCAN_TEMPERATURE_K
        invocations.append(_sweep_invocation(name, cfg))
    return Workload("scan", slot, tuple(invocations))


def evolve_json() -> Workload:
    cfg = _EVOLVE_CONFIG
    evolve = Invocation(
        "evolve", "evolve", cfg, (Output("evolve.json", "evolve_json", _stored_rows(cfg)),), 1
    )
    t2 = Invocation("t2", "t2", cfg, (Output("t2.json", "t2_json", 1),), 1)
    return Workload("evolve_json", None, (evolve, t2))


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "figs":
        return figs(root)
    if name == "scan":
        return scan(seed % REFERENCE_SLOTS)
    if name == "evolve_json":
        return evolve_json()
    raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
