"""Command-line front-end.

    simulate spectral --config cfg.json [--out file] [--format csv|json]
    simulate evolve   --config cfg.json [--out file] [--engine E] [--format F]
    simulate t2       --config cfg.json [--out file] [--engine E] [--format F]
    simulate sweep    --config cfg.json [--out file] [--engine E] [--format F]

A run is described by a single JSON config; CLI flags override config fields.
Unknown keys, booleans or non-finite values where numbers belong, and
temperatures <= 0 are config errors.  evolve and t2 evaluate one point through
analysis.evaluate_point, the pipeline of every sweep point.  Every output is a
table (column names plus one tuple of values per row) rendered by one streamed
row-template writer; CSV floats carry 17 significant digits, a CSV cell
holding a comma, a quote or a line break is quoted (RFC 4180), JSON floats are
their shortest round-trip repr (as json writes them), lines end with \\n, JSON
keys are sorted.  Exit codes: 0 success, 2 usage/config error, 3 numerical
guard (including a NaN or infinite result), 4 i/o failure.  A sweep writes
each point's trajectory file as soon as the point is evaluated and the summary
once every point has passed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import operator
import sys
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .analysis import (
    ENGINES,
    SWEPT_PARAMETERS,
    TC_BINDING,
    NoDecoherenceError,
    NonFiniteResultError,
    SweepError,
    SweepSpec,
    TrajectoryTooShortError,
    decoherence_times,
    evaluate_point,
    run_sweep,
)
from .bath import (
    BathModel,
    OhmicBath,
    bath_from_dict,
    bath_to_dict,
    finite_number,
    spectral_density,
)
from .redfield import StepSizeError, Trajectory, time_grid
from .system import QubitParams
from .units import temperature_from_millikelvin

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_IO = 4

_FORMATS = ("csv", "json")

_TRAJECTORY_COLUMNS = ("t", "rho11", "rho22", "re_rho12", "im_rho12", "abs_rho12")
_NUMERIC_COLUMNS = tuple(f"{name}_numeric" for name in _TRAJECTORY_COLUMNS[1:])
_SUMMARY_COLUMNS = (
    "index", "parameter", "value", "omega_21", "temperature_K", "chi", "n_occ",
    "t2_analytic", "t2_empirical", "max_abs_diff", "trajectory",
)
# a t2 row is the middle of a sweep-summary row
_T2_COLUMNS = _SUMMARY_COLUMNS[3:9]

_COMMON_KEYS = {"bath", "format", "out"}
_TIMEGRID_KEYS = ("t_end", "n_steps", "store_every")
_PHYSICS_KEYS = {"qubit", "temperature_K", "temperature_mK", "engine", *_TIMEGRID_KEYS}
_ALLOWED_KEYS = {
    "spectral": _COMMON_KEYS | {"grid"},
    "evolve": _COMMON_KEYS | _PHYSICS_KEYS,
    "t2": _COMMON_KEYS | _PHYSICS_KEYS,
    "sweep": _COMMON_KEYS | _PHYSICS_KEYS | {"sweep", "trajectories"},
}

# ArithmeticError: a result or an intermediate left the float range
_GUARD_ERRORS = (
    StepSizeError, NoDecoherenceError, TrajectoryTooShortError, NonFiniteResultError,
    ArithmeticError,
)
# %r of a Python float is float.__repr__, the shortest round-trip form json writes
_FLOAT_SPECS = {"csv": "%.17g", "json": "%r"}
_ROWS_PER_WRITE = 4096


class ConfigError(ValueError):
    """Invalid configuration or usage; maps to exit code 2."""


def _load_config(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _check_keys(obj: dict, allowed: set, context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _number(value, name: str) -> float:
    try:
        return finite_number(value, name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _block(cfg: dict, key: str, allowed: tuple, required: tuple = ()) -> dict:
    """A nested config object with only the allowed keys and all the required ones."""
    block = cfg.get(key)
    if not isinstance(block, dict):
        raise ConfigError(f"{key} must be an object with keys {allowed}")
    _check_keys(block, set(allowed), key)
    for name in required:
        if name not in block:
            raise ConfigError(f"{key}.{name} is required")
    return block


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _parse_bath(cfg: dict) -> BathModel:
    if "bath" not in cfg:
        raise ConfigError("config needs a 'bath' object")
    try:
        return bath_from_dict(cfg["bath"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_temperature(cfg: dict, required: bool = True) -> Optional[float]:
    keys = [key for key in ("temperature_K", "temperature_mK") if key in cfg]
    if len(keys) > 1:
        raise ConfigError("give exactly one of temperature_K and temperature_mK")
    if not keys:
        if required:
            raise ConfigError("config needs temperature_K or temperature_mK")
        return None
    key = keys[0]
    value = _number(cfg[key], f"config.{key}")
    kelvin = value
    if key == "temperature_mK" and value > 0:  # the helper itself rejects mK <= 0
        kelvin = temperature_from_millikelvin(value)
    if not kelvin > 0:  # also a subnormal mK value, which converts to 0 K
        raise ConfigError(f"config.{key} must be > 0, got {value!r}")
    return kelvin


def _parse_qubit(cfg: dict, bath: BathModel) -> Optional[float]:
    """Validated tunneling T_c from the qubit object.

    None without one: T_c then follows the bath's omega_l (TC_BINDING), which
    a sweep re-applies at every point.
    """
    qubit = cfg.get("qubit")
    if qubit is None:
        if isinstance(bath, OhmicBath):
            raise ConfigError("the Ohmic bath has no omega_l; give qubit.tunneling_Tc or omega_l")
        return None
    _block(cfg, "qubit", ("tunneling_Tc", "omega_l"))
    if ("tunneling_Tc" in qubit) == ("omega_l" in qubit):
        raise ConfigError("qubit needs exactly one of tunneling_Tc and omega_l")
    if "tunneling_Tc" in qubit:
        return _checked_tc(_number(qubit["tunneling_Tc"], "qubit.tunneling_Tc"))
    return _checked_tc(TC_BINDING * _number(qubit["omega_l"], "qubit.omega_l"))


def _checked_tc(tc: float) -> float:
    try:
        QubitParams(tunneling_Tc=tc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return tc


def _parse_time_grid(cfg: dict, required: bool) -> tuple[Optional[float], Optional[int], int]:
    if ("t_end" in cfg) != ("n_steps" in cfg):
        raise ConfigError("t_end and n_steps must be given together")
    if "t_end" not in cfg:
        if required:
            raise ConfigError("config needs t_end and n_steps")
        if "store_every" in cfg:
            raise ConfigError("store_every needs a time grid (t_end, n_steps)")
        return None, None, 1
    t_end = _number(cfg["t_end"], "config.t_end")
    n_steps = _integer(cfg["n_steps"], "config.n_steps")
    store_every = _integer(cfg["store_every"], "config.store_every") if "store_every" in cfg else 1
    try:
        time_grid(t_end, n_steps, store_every)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return t_end, n_steps, store_every


def _parse_choice(cfg: dict, key: str, override: Optional[str], choices: tuple) -> str:
    """The flag, else the config field, else the first choice."""
    value = override or cfg.get(key, choices[0])
    if value not in choices:
        raise ConfigError(f"{key} must be one of {choices}, got {value!r}")
    return value


def _parse_out(cfg: dict, override: Optional[str]) -> Optional[str]:
    out = override if override is not None else cfg.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")
    return out


def _text(fmt: str, value) -> str:
    """A cell that is not a Python float, as the format writes it."""
    if fmt == "json":
        return json.dumps(value)
    text = "" if value is None else str(value)
    if any(c in text for c in ',"\r\n'):  # quoted, quotes doubled, as RFC 4180 asks
        text = '"' + text.replace('"', '""') + '"'
    return text


def _emit_table(fmt, out, meta, columns, rows: Iterable[tuple], max_abs_diff=None) -> None:
    """Write one table to out (stdout when None) as CSV or as JSON {meta, rows}.

    CSV carries max_abs_diff as a closing comment, JSON as a key beside meta.
    One printf template formats each row, built from the column names (in key
    order for JSON) and the first row's cell types, as a column holds one type
    throughout: Python floats go in through _FLOAT_SPECS (a numpy scalar would
    print as np.float64(...) under %r), other cells are rendered first.  Rows
    are written _ROWS_PER_WRITE at a time, so the body is never held whole.
    """
    rows = iter(rows)
    first = next(rows)
    order = range(len(columns))
    if fmt == "json":
        order = sorted(order, key=columns.__getitem__)
    floats = [type(first[i]) is float for i in order]
    specs = [_FLOAT_SPECS[fmt] if is_float else "%s" for is_float in floats]
    if fmt == "csv":
        head, template, sep = ",".join(columns), ",".join(specs), "\n"
        tail = "\n" if max_abs_diff is None else f"\n# max_abs_diff={max_abs_diff:.17g}\n"
    else:
        doc = {"meta": meta}
        if max_abs_diff is not None:
            doc["max_abs_diff"] = max_abs_diff
        # "rows" sorts after both keys, so it opens where the head's closing brace was
        head = json.dumps(doc, indent=2, sort_keys=True)[:-2] + ',\n  "rows": ['
        fields = ",\n".join(f"      {json.dumps(columns[i])}: {s}" for i, s in zip(order, specs))
        template, sep, tail = f"    {{\n{fields}\n    }}", ",\n", "\n  ]\n}\n"
    pick = operator.itemgetter(*order)
    if all(floats):
        prepare = pick
    else:
        def prepare(row: tuple) -> tuple:
            return tuple(c if f else _text(fmt, c) for c, f in zip(pick(row), floats))

    rows = itertools.chain([first], rows)
    target = contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", newline="")
    with target as handle:
        handle.write(head)
        lead = "\n"
        while batch := list(itertools.islice(rows, _ROWS_PER_WRITE)):
            handle.write(lead + sep.join(map(template.__mod__, map(prepare, batch))))
            lead = sep
        handle.write(tail)


def _trajectory_table(closed: Optional[Trajectory], numeric: Optional[Trajectory], every=1):
    """Columns and every every-th row of a trajectory; numeric columns follow with both."""
    parts = [traj for traj in (closed, numeric) if traj is not None]
    columns = _TRAJECTORY_COLUMNS + (_NUMERIC_COLUMNS if len(parts) == 2 else ())
    values = [parts[0].times[::every]]
    for traj in parts:
        rho12 = traj.rho12[::every]
        re, im = rho12.real, rho12.imag
        # np.hypot gives abs(complex) bit for bit; np.abs differs in the last bit
        values += [traj.rho11[::every], traj.rho22[::every], re, im, np.hypot(re, im)]
    return columns, zip(*(v.tolist() for v in values))


def _meta(command: str, bath: BathModel, fmt: str, out: Optional[str], **fields) -> dict:
    """The meta block of a JSON output: the command and its resolved config."""
    return {"command": command, "bath": bath_to_dict(bath), "format": fmt, "out": out, **fields}


def _point_fields(tc: Optional[float], temperature, grid: tuple, engine: str) -> dict:
    """Meta fields shared by evolve, t2 and sweep."""
    qubit = None if tc is None else {"tunneling_Tc": tc}
    fields = {"qubit": qubit, "temperature_K": temperature, "engine": engine}
    return {**fields, **dict(zip(_TIMEGRID_KEYS, grid))}


def cmd_spectral(cfg: dict, out: Optional[str], fmt: str) -> None:
    bath = _parse_bath(cfg)
    keys = ("omega_min", "omega_max", "count")
    grid = _block(cfg, "grid", keys, required=keys)
    omega_min = _number(grid["omega_min"], "grid.omega_min")
    omega_max = _number(grid["omega_max"], "grid.omega_max")
    count = _integer(grid["count"], "grid.count")
    if omega_min < 0 or omega_max <= omega_min or count < 2:
        raise ConfigError("grid needs 0 <= omega_min < omega_max and count >= 2")

    omegas = np.linspace(omega_min, omega_max, count).tolist()
    rows = [(w, spectral_density(bath, w)) for w in omegas]
    grid_meta = {"omega_min": omega_min, "omega_max": omega_max, "count": count}
    _emit_table(fmt, out, _meta("spectral", bath, fmt, out, grid=grid_meta), ("omega", "J"), rows)


def cmd_point(command: str, cfg: dict, out: Optional[str], engine: str, fmt: str) -> None:
    """evolve and t2: one parameter point through the sweep's per-point pipeline."""
    bath = _parse_bath(cfg)
    temperature = _parse_temperature(cfg)
    tc = _parse_qubit(cfg, bath)
    if tc is None:
        tc = _checked_tc(TC_BINDING * bath.omega_l)
    grid = _parse_time_grid(cfg, required=command == "evolve")
    run = evaluate_point(bath, temperature, tc, engine, *grid)
    meta = _meta(command, bath, fmt, out, **_point_fields(tc, temperature, grid, engine))
    if command == "evolve":
        columns, rows = _trajectory_table(run.closed, run.numeric)
        _emit_table(fmt, out, meta, columns, rows, run.max_abs_diff)
    else:
        row = (run.eig.omega_21, temperature, run.rate.chi, run.rate.n_occ)
        _emit_table(fmt, out, meta, _T2_COLUMNS, [row + decoherence_times(run)])


def _parse_sweep_block(cfg: dict) -> tuple[str, tuple[float, ...]]:
    block = _block(cfg, "sweep", ("parameter", "values"))
    parameter = block.get("parameter")
    if parameter not in SWEPT_PARAMETERS:
        raise ConfigError(f"sweep.parameter must be one of {SWEPT_PARAMETERS}, got {parameter!r}")
    values = block.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values must be a non-empty list of numbers")
    return parameter, tuple(_number(v, f"sweep.values[{i}]") for i, v in enumerate(values))


def _parse_trajectories_block(cfg: dict) -> tuple[bool, int]:
    if cfg.get("trajectories") is None:
        return False, 1
    block = _block(cfg, "trajectories", ("write", "every"))
    write = block.get("write", False)
    if not isinstance(write, bool):
        raise ConfigError("trajectories.write must be a boolean")
    every = _integer(block["every"], "trajectories.every") if "every" in block else 1
    if every < 1:
        raise ConfigError("trajectories.every must be >= 1")
    return write, every


def cmd_sweep(cfg: dict, out: Optional[str], engine: str, fmt: str) -> None:
    bath = _parse_bath(cfg)
    parameter, values = _parse_sweep_block(cfg)
    temperature = _parse_temperature(cfg, required=(parameter != "temperature"))
    tc = _parse_qubit(cfg, bath)
    grid = _parse_time_grid(cfg, required=False)
    write_traj, every = _parse_trajectories_block(cfg)
    if write_traj and out is None:
        raise ConfigError("writing sweep trajectories requires --out (files go next to it)")
    if write_traj and grid[0] is None:
        raise ConfigError("writing sweep trajectories requires a time grid (t_end, n_steps)")

    try:  # SweepSpec fields in order
        spec = SweepSpec(parameter, values, bath, temperature, tc, *grid, engine)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    rows = []

    def write_point(p, run) -> None:
        """Write the point's trajectory file, if asked for, and keep its summary row."""
        name = None
        if write_traj:
            name = f"{Path(out).stem}_point{p.index}.csv"
            columns, traj_rows = _trajectory_table(run.closed, run.numeric, every)
            sidecar = str(Path(out).with_name(name))
            _emit_table("csv", sidecar, None, columns, traj_rows, p.max_abs_diff)
        rows.append(
            (p.index, p.parameter, p.value, p.omega_21, p.temperature, p.chi, p.n_occ)
            + (p.t2_analytic, p.t2_empirical, p.max_abs_diff, name)
        )

    run_sweep(spec, write_point)
    meta = _meta("sweep", bath, fmt, out, **_point_fields(tc, temperature, grid, engine))
    meta["sweep"] = {"parameter": parameter, "values": list(values)}
    meta["trajectories"] = {"write": write_traj, "every": every}
    _emit_table(fmt, out, meta, _SUMMARY_COLUMNS, rows)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Charge-qubit decoherence: spectral densities, Redfield dynamics, T2 sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("spectral", "tabulate the bath spectral density J(omega)"),
        ("evolve", "evolve the density matrix on a time grid"),
        ("t2", "compute decoherence times for one parameter set"),
        ("sweep", "sweep omega_l, eta or temperature"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", default=None, choices=_FORMATS, help="override config format")
        if name != "spectral":
            p.add_argument("--engine", choices=ENGINES, help="override config engine")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        cfg = _load_config(args.config)
        _check_keys(cfg, _ALLOWED_KEYS[args.command], "config")
        fmt = _parse_choice(cfg, "format", args.format, _FORMATS)
        out = _parse_out(cfg, args.out)
        if args.command == "spectral":
            cmd_spectral(cfg, out, fmt)
        else:
            engine = _parse_choice(cfg, "engine", args.engine, ENGINES)
            if args.command == "sweep":
                cmd_sweep(cfg, out, engine, fmt)
            else:
                cmd_point(args.command, cfg, out, engine, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SweepError as exc:
        done = len(exc.partial.points)
        print(f"sweep aborted after {done} completed point(s): {exc}", file=sys.stderr)
        return EXIT_GUARD
    except _GUARD_ERRORS as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
