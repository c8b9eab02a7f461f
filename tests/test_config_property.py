"""Property: every generated config ends in a named exit code, never a traceback.

Configs for all four commands are drawn with ordinary values, then up to two
numeric fields are replaced by tiny, huge, zero, negative, NaN, infinite,
bool or string values.  n_steps and the spectral count are capped at 10^4;
memory-sized grids are out of scope here.  Beside them, a value of every
JSON type is put in turn at every position of a valid tiny config of each
command.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dqdsim import bath_from_dict, spectral_density
from dqdsim.cli import main

MAX_SAMPLES = 10_000
NAN = float("nan")
INF = float("inf")

ODD_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308, NAN, INF, -INF]),
    st.booleans(),
    st.sampled_from(["1", "0.5", "inf", ""]),
    st.floats(),
)


def magnitude(lo: float, hi: float):
    """Mostly ordinary positive values, sometimes tiny or huge ones."""
    ordinary = st.floats(lo, hi)
    return st.one_of(ordinary, ordinary, ordinary, st.sampled_from([1e-300, 1e-12, 1e12, 1e300]))


def baths():
    phonon = st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["pcpb", "dcpb"]),
            "g": magnitude(1e-3, 0.1),
            "omega_d": magnitude(1e-3, 0.1),
            "omega_l": magnitude(0.1, 1.0),
        }
    )
    ohmic = st.fixed_dictionaries(
        {
            "kind": st.just("ohmic"),
            "eta": magnitude(1e-3, 0.2),
            "omega_c": magnitude(1e-2, 0.2),
            "s_exponent": magnitude(0.5, 3.0),
        }
    )
    return st.one_of(phonon, ohmic)


def time_grids():
    return st.fixed_dictionaries(
        {
            "t_end": magnitude(10.0, 5000.0),
            "n_steps": st.integers(1, MAX_SAMPLES),
        },
        optional={"store_every": st.sampled_from([1, 2, 5])},
    )


def physics(draw, command: str) -> dict:
    cfg = {"bath": draw(baths())}
    if cfg["bath"]["kind"] == "ohmic" or draw(st.booleans()):
        key = draw(st.sampled_from(["tunneling_Tc", "omega_l"]))
        cfg["qubit"] = {key: draw(magnitude(0.01, 1.0))}
    cfg["engine"] = draw(st.sampled_from(["closed_form", "numeric", "both"]))
    if command == "evolve" or draw(st.booleans()):
        cfg.update(draw(time_grids()))
    return cfg


@st.composite
def configs(draw):
    command = draw(st.sampled_from(["spectral", "evolve", "t2", "sweep"]))
    if command == "spectral":
        lo = draw(magnitude(1e-3, 1.0))
        cfg = {
            "bath": draw(baths()),
            "grid": {
                "omega_min": draw(st.sampled_from([0.0, lo])),
                "omega_max": lo + draw(magnitude(1e-3, 2.0)),
                "count": draw(st.integers(2, MAX_SAMPLES)),
            },
        }
    else:
        cfg = physics(draw, command)
    if command in ("evolve", "t2") or (command == "sweep" and draw(st.booleans())):
        if draw(st.booleans()):
            cfg["temperature_K"] = draw(magnitude(0.01, 2.0))
        else:
            cfg["temperature_mK"] = draw(magnitude(10.0, 2000.0))
    if command == "sweep":
        if "temperature_K" in cfg or "temperature_mK" in cfg:
            parameter = "eta" if cfg["bath"]["kind"] == "ohmic" else "omega_l"
        else:
            parameter = "temperature"
        values = draw(st.lists(magnitude(0.01, 2.0), min_size=1, max_size=3, unique=True))
        cfg["sweep"] = {"parameter": parameter, "values": sorted(values)}
        if "t_end" in cfg and draw(st.booleans()):
            cfg["trajectories"] = {"write": True, "every": draw(st.integers(1, 50))}
    cfg["format"] = draw(st.sampled_from(["csv", "json"]))

    for path in draw(st.lists(st.sampled_from(_number_paths(cfg)), max_size=2, unique=True)):
        *parents, last = path
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = draw(ODD_NUMBERS)
    return command, cfg


def _number_paths(cfg: dict, prefix: tuple = ()) -> list:
    """Paths to every number in the config (list items included)."""
    items = enumerate(cfg) if isinstance(cfg, list) else cfg.items()
    paths = []
    for key, value in items:
        if isinstance(value, (dict, list)):
            paths += _number_paths(value, prefix + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            paths.append(prefix + (key,))
    return paths


def _non_finite_cells(path: Path) -> list:
    """Every NaN or infinite number written to a CSV or JSON output."""
    text = path.read_text()
    if path.suffix == ".json":
        bad = []
        json.loads(text, parse_constant=bad.append)
        return bad
    cells = text.replace("# max_abs_diff=", "").replace("\n", ",").split(",")
    bad = []
    for cell in cells:
        try:
            number = float(cell)
        except ValueError:
            continue
        if not math.isfinite(number):
            bad.append(cell)
    return bad


def _run(command: str, cfg: dict) -> int:
    """Run one config; check for tracebacks, warnings and non-finite numbers on exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(cfg))
        fmt = cfg.get("format", "csv") if isinstance(cfg, dict) else "csv"
        out = tmp / f"out.{fmt}"
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main([command, "--config", str(tmp / "config.json"), "--out", str(out)])
        assert code in (0, 2, 3, 4), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        assert [str(w.message) for w in caught] == []
        if code == 0:
            outputs = sorted(p for p in tmp.iterdir() if p.name != "config.json")
            assert out in outputs
            for path in outputs:
                assert _non_finite_cells(path) == [], path.name
    return code


@settings(max_examples=60, deadline=None)
@given(case=configs())
@example(  # 2*T_c overflows to inf: once a traceback, now a config error
    case=(
        "evolve",
        {
            "bath": {"kind": "ohmic", "eta": 0.125, "omega_c": 0.125, "s_exponent": 1.0},
            "qubit": {"tunneling_Tc": 1.7e308},
            "engine": "closed_form",
            "t_end": 10.0,
            "n_steps": 1,
            "temperature_mK": 10.0,
            "format": "csv",
        },
    )
)
def test_every_config_exits_with_a_named_code(case):
    command, cfg = case
    event(f"{command} exit {_run(command, cfg)}")


PCPB = {"kind": "pcpb", "g": 0.0625, "omega_d": 0.0625, "omega_l": 1.0}
HEAVY_OHMIC = {
    "bath": {"kind": "ohmic", "eta": 1e300, "omega_c": 0.125, "s_exponent": 1.0},
    "qubit": {"tunneling_Tc": 1.0},
    "temperature_K": 0.1,
    "t_end": 1e300,
    "n_steps": 10,
}
SPECTRAL_GRID = {"omega_min": 0.0, "omega_max": 2.0, "count": 2}


@pytest.mark.parametrize(
    "command, cfg, code",
    [
        ("t2", {"bath": {**PCPB, "kind": "dcpb", "omega_l": 1e300}, "temperature_mK": 10.0}, 3),
        ("t2", {"bath": {**PCPB, "omega_d": 1e-300, "omega_l": 1e12}, "temperature_mK": 10.0}, 0),
        ("spectral", {"bath": {**PCPB, "omega_l": 1e-300}, "grid": SPECTRAL_GRID}, 3),
        (
            "spectral",
            {
                "bath": {"kind": "ohmic", "eta": 0.04, "omega_c": 0.05, "s_exponent": 1e300},
                "grid": SPECTRAL_GRID,
            },
            3,
        ),
        (
            "t2",
            {"bath": PCPB, "qubit": {"tunneling_Tc": 1e-12}, "temperature_K": 1e300},
            3,
        ),
        ("evolve", {**HEAVY_OHMIC, "engine": "closed_form"}, 3),
        ("evolve", {**HEAVY_OHMIC, "engine": "numeric"}, 3),
        ("evolve", {"bath": PCPB, "temperature_mK": 10.0, "t_end": 5e-324, "n_steps": 2}, 2),
        (
            "evolve",
            {
                "bath": PCPB, "temperature_mK": 10.0,
                "t_end": 1.7976931348623157e308, "n_steps": 3, "store_every": 3,
            },
            2,
        ),
    ],
    ids=[
        "omega_l-squared-overflows", "sinc-of-inf", "omega_l-squared-underflows",
        "omega-power-overflows", "bose-overflows", "closed-form-overflow-warning",
        "step-guard-at-inf", "step-underflows", "last-time-overflows",
    ],
)
def test_float_range_edges_exit_with_a_named_code(command, cfg, code):
    assert _run(command, cfg) == code


@pytest.mark.parametrize(
    "bath",
    [
        {**PCPB, "g": 1e300},
        {**PCPB, "kind": "dcpb", "g": 1e300},
        {"kind": "ohmic", "eta": 1e300, "omega_c": 0.05, "s_exponent": 3.0},
    ],
    ids=["pcpb", "dcpb", "ohmic"],
)
def test_spectral_density_is_zero_where_the_cutoff_underflows(bath):
    """J is 0 far beyond the cutoff, even where g * omega**p alone would overflow."""
    grid = {"omega_min": 0.0, "omega_max": 1e300, "count": 3}
    assert _run("spectral", {"bath": bath, "grid": grid}) == 0
    assert spectral_density(bath_from_dict(bath), 1e300) == 0.0


# A valid config of each command, small enough that a run takes milliseconds
TINY_BATH = {"kind": "pcpb", "g": 0.035, "omega_d": 0.02, "omega_l": 0.5}
TINY_GRID = {"t_end": 50.0, "n_steps": 20}
TINY_CONFIGS = {
    "spectral": {
        "bath": TINY_BATH, "grid": {"omega_min": 0.0, "omega_max": 1.0, "count": 5},
        "format": "csv",
    },
    "evolve": {
        "bath": TINY_BATH, "qubit": {"tunneling_Tc": 0.05}, "temperature_K": 0.03,
        "engine": "both", **TINY_GRID, "store_every": 2, "format": "csv",
    },
    "t2": {
        "bath": TINY_BATH, "temperature_mK": 30, "engine": "both", **TINY_GRID, "format": "json",
    },
    "sweep": {
        "bath": TINY_BATH, "temperature_K": 0.03, "engine": "both", **TINY_GRID,
        "sweep": {"parameter": "omega_l", "values": [0.5, 0.7]},
        "trajectories": {"write": True, "every": 2}, "format": "csv",
    },
}
# null, bool, number, string, list and object; a few of them valid somewhere
JSON_VALUES = [None, True, 0, -1, 1e300, 10**400, "", "pcpb", [0.5], {"kind": "pcpb"}]


def _positions(node, prefix: tuple = ()) -> list:
    """The config itself and the path to every value inside it (list items included)."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        items = ()
    return [prefix] + [path for key, value in items for path in _positions(value, prefix + (key,))]


def _substituted(cfg, path: tuple, value):
    """A deep copy of cfg with value at path (the whole config when path is empty)."""
    if not path:
        return value
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


POSITIONS = [(command, path) for command, cfg in TINY_CONFIGS.items() for path in _positions(cfg)]


@pytest.mark.parametrize(
    "command, path",
    POSITIONS,
    ids=[".".join([command, *map(str, path)]) for command, path in POSITIONS],
)
def test_any_json_type_at_any_position_exits_with_a_named_code(command, path):
    failures = []
    for value in JSON_VALUES:
        cfg = _substituted(TINY_CONFIGS[command], path, value)
        try:
            _run(command, cfg)
        except Exception as exc:  # every value is tried, and each failure is named
            failures.append((value, repr(exc)))
    assert failures == []


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 60), st.floats(), st.text(max_size=4),
    st.sampled_from(["pcpb", "ohmic", "csv", "json", "both", "temperature", "eta"]),
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "g", "count", "write", "values", "x"]), children,
                      max_size=3),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_json_at_any_position_exits_with_a_named_code(data):
    command = data.draw(st.sampled_from(sorted(TINY_CONFIGS)))
    path = data.draw(st.sampled_from(_positions(TINY_CONFIGS[command])))
    cfg = _substituted(TINY_CONFIGS[command], path, data.draw(JSON_TREES))
    event(f"{command} exit {_run(command, cfg)}")
