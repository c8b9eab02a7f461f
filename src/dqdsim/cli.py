"""Command-line front-end.

    simulate spectral --config cfg.json [--out file] [--format csv|json]
    simulate evolve   --config cfg.json [--out file] [--engine E] [--format F]
    simulate t2       --config cfg.json [--out file] [--engine E] [--format F]
    simulate sweep    --config cfg.json [--out file] [--engine E] [--format F]

A run is described by a single UTF-8 JSON config; CLI flags override config
fields.  The CLI only reads JSON: unknown keys, wrong JSON types, booleans
or non-finite values where numbers belong, temperatures <= 0, t_end and
n_steps not given together, and a store_every other than 1 without them are
its config errors.  The library owns the rules on what may run
(redfield.TimeGrid, analysis.check_point, SweepSpec): any ValueError or
ArithmeticError it raises while the config is read into its objects, the
run's one TimeGrid among them, is a config error too.  evolve and t2 evaluate
one point through analysis.evaluate_point, the pipeline of every sweep point.
Every output is a table (column names, a row count and its rows from any
start) rendered by one streamed row-template writer; files are UTF-8 and a
name that is not UTF-8 is written as its own bytes, CSV floats carry 17
significant digits, a CSV cell holding a comma, a quote or a line break is
quoted (RFC 4180), JSON floats are their shortest round-trip repr (as json
writes them), lines end with \\n, JSON keys are sorted.  A table of more than
_SPLIT_ROWS rows is formatted by two processes on Linux (see split_writer),
a forked child making only the rows from a cut near the middle on: the same
bytes, through a temporary file never left behind, and a child that fails
leaves its rows to the parent.  Exit codes: 0
success, 2 usage/config error (including a file that is not UTF-8 JSON, running
out of memory, in a sweep too, and a grid or step count beyond what an array or
a float can hold), 3 numerical guard (including a NaN or infinite result), 4 i/o
failure.  A sweep writes each point's trajectory file as soon as the point is
evaluated and the summary once every point has passed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import operator
import os
import sys
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .analysis import (
    ENGINES,
    NoDecoherenceError,
    NonFiniteResultError,
    SweepError,
    SweepSpec,
    TrajectoryTooShortError,
    bound_tunneling,
    check_point,
    decoherence_times,
    evaluate_point,
    run_sweep,
)
from .bath import BathModel, bath_from_dict, bath_to_dict, finite_number, spectral_density
from .redfield import MAX_FLOATS, StepSizeError, TimeGrid, Trajectory
from .units import temperature_from_millikelvin

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_IO = 4

_FORMATS = ("csv", "json")

_TRAJECTORY_COLUMNS = ("t", "rho11", "rho22", "re_rho12", "im_rho12", "abs_rho12")
_NUMERIC_COLUMNS = tuple(f"{name}_numeric" for name in _TRAJECTORY_COLUMNS[1:])
# a sweep-summary row is a SweepPoint and its trajectory file; a t2 row is its middle
_SUMMARY_COLUMNS = (
    "index", "parameter", "value", "omega_21", "temperature_K", "chi", "n_occ",
    "t2_analytic", "t2_empirical", "max_abs_diff", "trajectory",
)
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
_ROWS_PER_WRITE = 128
# a table of more rows than this is formatted by two processes (see split_writer)
_SPLIT_ROWS = 1 << 13


class ConfigError(ValueError):
    """Invalid configuration or usage; maps to exit code 2."""


def _load_config(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    # ValueError: a JSONDecodeError or a UnicodeDecodeError; RecursionError: too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _check_keys(obj: dict, allowed: set, context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


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


@contextlib.contextmanager
def _reading_config():
    """Config values into library objects: any ValueError or ArithmeticError exits 2."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(str(exc)) from exc


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    finite_number(value, name)  # rejects an integer beyond the float range
    return value


def _parse_bath(cfg: dict) -> BathModel:
    if "bath" not in cfg:
        raise ConfigError("config needs a 'bath' object")
    return bath_from_dict(cfg["bath"])


def _parse_temperature(cfg: dict, required: bool = True) -> Optional[float]:
    keys = [key for key in ("temperature_K", "temperature_mK") if key in cfg]
    if len(keys) > 1:
        raise ConfigError("give exactly one of temperature_K and temperature_mK")
    if not keys:
        if required:
            raise ConfigError("config needs temperature_K or temperature_mK")
        return None
    key = keys[0]
    value = finite_number(cfg[key], f"config.{key}")
    kelvin = value
    if key == "temperature_mK" and value > 0:  # the helper itself rejects mK <= 0
        kelvin = temperature_from_millikelvin(value)
    if not kelvin > 0:  # also a subnormal mK value, which converts to 0 K
        raise ConfigError(f"config.{key} must be > 0, got {value!r}")
    return kelvin


def _parse_qubit(cfg: dict) -> Optional[float]:
    """The qubit object's T_c, None without one; the library owns the rules on T_c.

    analysis.check_point checks T_c and, without a qubit, binds it to the
    bath's omega_l, as a sweep of omega_l does at every point.
    """
    qubit = cfg.get("qubit")
    if qubit is None:
        return None
    _block(cfg, "qubit", ("tunneling_Tc", "omega_l"))
    if ("tunneling_Tc" in qubit) == ("omega_l" in qubit):
        raise ConfigError("qubit needs exactly one of tunneling_Tc and omega_l")
    if "tunneling_Tc" in qubit:
        return finite_number(qubit["tunneling_Tc"], "qubit.tunneling_Tc")
    return bound_tunneling(finite_number(qubit["omega_l"], "qubit.omega_l"))


def _parse_time_grid(cfg: dict, required: bool) -> Optional[TimeGrid]:
    """The run's one TimeGrid, None without one; here only the rules loose numbers can break."""
    if required and "t_end" not in cfg:
        raise ConfigError("config needs t_end and n_steps")
    t_end = finite_number(cfg["t_end"], "config.t_end") if "t_end" in cfg else None
    n_steps, store_every = cfg.get("n_steps"), cfg.get("store_every", 1)
    if (t_end is None) != (n_steps is None):
        raise ConfigError("t_end and n_steps must be given together")
    if t_end is not None:
        return TimeGrid(t_end, n_steps, store_every)
    if isinstance(store_every, (bool, float)) or store_every != 1:
        raise ConfigError(f"store_every needs a time grid (t_end, n_steps), got {store_every!r}")
    return None


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


def _emit_table(fmt, out, meta, columns, count: int, rows_from, max_abs_diff=None) -> None:
    """Write one table to out (stdout when None) as CSV or as JSON {meta, rows}.

    A table is its row count and rows_from(start), its rows (tuples) from row
    start on; count alone decides whether the work is split in two (see
    below).  CSV carries max_abs_diff as a closing comment, JSON as a key
    beside meta.  One printf template formats each row, built from the column
    names (in key order for JSON) and the first row's cell types, as a column
    holds one type throughout: Python floats go in through _FLOAT_SPECS (a
    numpy scalar would print as np.float64(...) under %r), other cells are
    rendered first.  Rows are drawn from rows_from(0) a slice of
    _ROWS_PER_WRITE at a time, and each slice is formatted, joined and
    written (encoded) before the next is drawn, so only one slice's rows and
    text are live at once: never the whole text, nor the rows of a generator
    such as _trajectory_table's, whose replayed trajectories are computed a
    window (redfield.read_window) at a time as the rows are drawn.  out is
    opened once the first row is made.  A table of more than _SPLIT_ROWS rows
    is cut at the slice boundary at or before its middle: the rows before the
    cut are formatted here, and rows_from(cut) by a forked child where
    split_writer.write_split can fork one, byte for byte as one process would
    write them; where it cannot, every row is written here.
    """
    rows = iter(rows_from(0))
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

    def write_rows(write, rows: Iterable[tuple], lead: str = "\n") -> None:
        """Each slice of rows as one write; lead opens the first, sep the others."""
        while batch := list(itertools.islice(rows, _ROWS_PER_WRITE)):
            write(lead + sep.join(map(template.__mod__, map(prepare, batch))))
            lead = sep

    rows = itertools.chain([first], rows)
    if out is None:
        target = contextlib.nullcontext(sys.stdout)
    else:  # UTF-8 whatever the locale; a name that is not UTF-8 is written as its own bytes
        target = open(out, "w", encoding="utf-8", errors="surrogateescape", newline="")
    with target as handle:
        handle.write(head)
        split = False
        if count > _SPLIT_ROWS:  # imported only for such a table: see split_writer
            from .split_writer import write_split

            cut = count // 2 // _ROWS_PER_WRITE * _ROWS_PER_WRITE  # at or before the middle
            split = write_split(
                handle,
                out,
                lambda write: write_rows(write, itertools.islice(rows, cut)),
                lambda write: write_rows(write, rows_from(cut), sep),
            )
        if not split:
            write_rows(handle.write, rows)
        handle.write(tail)


def _array_rows(*columns: np.ndarray) -> tuple:
    """The row count and rows_from of equal-length float arrays, made a slice at a time."""
    count = len(columns[0])

    def rows_from(start: int):
        for lo in range(start, count, _ROWS_PER_WRITE):
            yield from zip(*(column[lo : lo + _ROWS_PER_WRITE].tolist() for column in columns))

    return count, rows_from


def _trajectory_table(closed: Optional[Trajectory], numeric: Optional[Trajectory], every=1):
    """Columns, count and rows_from of every every-th row of a trajectory; numeric ones follow.

    rows_from(start) reads the engines' blocks and their times together, a
    window at a time from the first (the RK4 replay starts there), and
    converts each window's arrays from row start on to row tuples a slice of
    _ROWS_PER_WRITE rows at a time, the slice _emit_table writes, so a
    replayed trajectory and its times are computed as they are drawn and few
    Python floats are live at once.
    """
    parts = [traj for traj in (closed, numeric) if traj is not None]
    columns = _TRAJECTORY_COLUMNS + (_NUMERIC_COLUMNS if len(parts) == 2 else ())

    def rows_from(start: int):
        windows = parts[0].time_blocks(every)
        for window, *blocks in zip(windows, *(traj.blocks(every) for traj in parts)):
            for lo in range(max(start, 0), len(window), _ROWS_PER_WRITE):
                values = [window[lo : lo + _ROWS_PER_WRITE]]
                for block in blocks:
                    part = block[lo : lo + _ROWS_PER_WRITE]
                    re, im = part[:, 1].real, part[:, 1].imag
                    # np.hypot gives abs(complex) bit for bit; np.abs differs in the last bit
                    values += [part[:, 0].real, part[:, 3].real, re, im, np.hypot(re, im)]
                yield from zip(*(v.tolist() for v in values))
            start -= len(window)  # from the next window's first row

    return columns, len(range(0, len(parts[0]), every)), rows_from


def _meta(command: str, bath: BathModel, fmt: str, out: Optional[str], **fields) -> dict:
    """The meta block of a JSON output: the command and its resolved config."""
    return {"command": command, "bath": bath_to_dict(bath), "format": fmt, "out": out, **fields}


def _point_fields(tc: Optional[float], temperature, grid: Optional[TimeGrid], engine: str) -> dict:
    """Meta fields shared by evolve, t2 and sweep; the grid's as given, (None, None, 1) without."""
    qubit = None if tc is None else {"tunneling_Tc": tc}
    fields = {"qubit": qubit, "temperature_K": temperature, "engine": engine}
    values = (None, None, 1) if grid is None else (getattr(grid, k) for k in _TIMEGRID_KEYS)
    return {**fields, **dict(zip(_TIMEGRID_KEYS, values))}


def cmd_spectral(cfg: dict, out: Optional[str], fmt: str) -> None:
    with _reading_config():
        bath = _parse_bath(cfg)
        keys = ("omega_min", "omega_max", "count")
        grid = _block(cfg, "grid", keys, required=keys)
        omega_min = finite_number(grid["omega_min"], "grid.omega_min")
        omega_max = finite_number(grid["omega_max"], "grid.omega_max")
        count = _integer(grid["count"], "grid.count")
        if omega_min < 0 or omega_max <= omega_min or count < 2:
            raise ConfigError("grid needs 0 <= omega_min < omega_max and count >= 2")
        if count > MAX_FLOATS:
            raise ConfigError(f"grid.count={count} is more floats than an array can hold")
        omegas = np.linspace(omega_min, omega_max, count)
    # every J before out is opened: one beyond the float range leaves no file
    js = np.fromiter((spectral_density(bath, w) for w in map(float, omegas)), float, count)
    grid_meta = {"omega_min": omega_min, "omega_max": omega_max, "count": count}
    meta = _meta("spectral", bath, fmt, out, grid=grid_meta)
    _emit_table(fmt, out, meta, ("omega", "J"), *_array_rows(omegas, js))


def cmd_point(command: str, cfg: dict, out: Optional[str], engine: str, fmt: str) -> None:
    """evolve and t2: one parameter point through the sweep's per-point pipeline."""
    with _reading_config():
        bath = _parse_bath(cfg)
        temperature = _parse_temperature(cfg)
        grid = _parse_time_grid(cfg, required=command == "evolve")
        tc = check_point(bath, _parse_qubit(cfg), engine)
    run = evaluate_point(bath, temperature, tc, engine, grid)
    meta = _meta(command, bath, fmt, out, **_point_fields(tc, temperature, grid, engine))
    if command == "evolve":
        _emit_table(fmt, out, meta, *_trajectory_table(run.closed, run.numeric), run.max_abs_diff)
    else:
        row = (run.eig.omega_21, temperature, run.rate.chi, run.rate.n_occ) + decoherence_times(run)
        _emit_table(fmt, out, meta, _T2_COLUMNS, 1, lambda start: [row][start:])


def _parse_sweep_block(cfg: dict) -> tuple[str, tuple[float, ...]]:
    block = _block(cfg, "sweep", ("parameter", "values"))
    values = block.get("values")
    if not isinstance(values, list):
        raise ConfigError("sweep.values must be a list of numbers")
    values = tuple(finite_number(v, f"sweep.values[{i}]") for i, v in enumerate(values))
    return block.get("parameter"), values


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
    with _reading_config():
        bath = _parse_bath(cfg)
        parameter, values = _parse_sweep_block(cfg)
        temperature = _parse_temperature(cfg, required=(parameter != "temperature"))
        tc = _parse_qubit(cfg)
        grid = _parse_time_grid(cfg, required=False)
        write_traj, every = _parse_trajectories_block(cfg)
        if write_traj and (out is None or os.path.basename(out) in ("", ".", "..")):
            raise ConfigError(f"writing sweep trajectories requires an --out that names a file "
                              f"(files go next to it), got {out!r}")
        if write_traj and grid is None:
            raise ConfigError("writing sweep trajectories requires a time grid (t_end, n_steps)")
        spec = SweepSpec(parameter, values, bath, temperature, tc, grid, engine)  # fields in order

    def sidecar(index: int) -> Optional[str]:
        """The name of a point's trajectory file, next to out; None when none is written."""
        return f"{Path(out).stem}_point{index}.csv" if write_traj else None

    def write_trajectory(p, run) -> None:
        table = _trajectory_table(run.closed, run.numeric, every)
        path = str(Path(out).with_name(sidecar(p.index)))
        _emit_table("csv", path, None, *table, p.max_abs_diff)

    points = run_sweep(spec, write_trajectory if write_traj else None).points
    meta = _meta("sweep", bath, fmt, out, **_point_fields(tc, temperature, grid, engine))
    meta["sweep"] = {"parameter": parameter, "values": list(values)}
    meta["trajectories"] = {"write": write_traj, "every": every}
    summary_from = lambda start: ((*p, sidecar(p.index)) for p in points[start:])
    _emit_table(fmt, out, meta, _SUMMARY_COLUMNS, len(points), summary_from)


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
        fmt = args.format or cfg.get("format", _FORMATS[0])  # flags override the config
        if fmt not in _FORMATS:
            raise ConfigError(f"format must be one of {_FORMATS}, got {fmt!r}")
        out = _parse_out(cfg, args.out)
        if args.command == "spectral":
            cmd_spectral(cfg, out, fmt)
        else:
            engine = args.engine or cfg.get("engine", ENGINES[0])
            if args.command == "sweep":
                cmd_sweep(cfg, out, engine, fmt)
            else:
                cmd_point(args.command, cfg, out, engine, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        detail = str(exc) or "allocation failed"
        print(f"config error: not enough memory for this run ({detail})", file=sys.stderr)
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
