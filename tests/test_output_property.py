"""Property: every output of a successful run reads back to what was computed.

Configs come from test_config_property's strategy, or are sweeps that write
trajectory files, and run under generated --out stems, which may hold commas,
quotes, line breaks and non-ASCII characters.  Every table the CLI writes is
recorded as it is handed to the writer; on exit 0 each file is parsed back
with the standard library: CSV with csv.reader, every row as wide as the
header, JSON with json.loads.  Every float must come back as the very double
that was computed (CSV writes 17 significant digits, JSON the shortest repr).
"""

import csv
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from dqdsim import cli
from test_config_property import configs

# the characters CSV must quote come up often; any other name character can
STEMS = st.text(
    st.one_of(
        st.sampled_from(',"\r\n ü'),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="/\x00"),
    ),
    min_size=1,
    max_size=12,
).filter(lambda stem: stem not in (".", ".."))


@st.composite
def sidecar_sweeps(draw):
    """An ordinary sweep that writes trajectory files: the stem lands in the summary."""
    values = draw(st.lists(st.floats(0.4, 0.6), min_size=1, max_size=3, unique=True))
    cfg = {
        "bath": {"kind": "pcpb", "g": 0.035, "omega_d": 0.02, "omega_l": 0.5},
        "temperature_K": draw(st.floats(0.02, 1.0)),
        "engine": draw(st.sampled_from(["closed_form", "numeric", "both"])),
        "t_end": 300.0,
        "n_steps": 600,
        "sweep": {"parameter": "omega_l", "values": sorted(values)},
        "trajectories": {"write": True, "every": draw(st.integers(1, 50))},
        "format": draw(st.sampled_from(["csv", "json"])),
    }
    return "sweep", cfg


def _same(cell, value) -> bool:
    """A parsed cell (str from CSV, JSON value otherwise) against the computed value."""
    if isinstance(value, float):
        return float(cell).hex() == value.hex()
    if value is None:
        return cell in ("", None)
    if isinstance(cell, str) and isinstance(value, int):
        return int(cell) == value
    return cell == value


def _check_csv(path: Path, columns, rows, max_abs_diff) -> None:
    with open(path, newline="") as handle:
        parsed = list(csv.reader(handle))
    if max_abs_diff is not None:
        (comment,) = parsed.pop()
        key, number = comment.split("=")
        assert key == "# max_abs_diff" and _same(number, max_abs_diff)
    header, *body = parsed
    assert header == list(columns)
    assert len(body) == len(rows)
    for cells, row in zip(body, rows):
        assert len(cells) == len(header), cells
        assert all(_same(cell, value) for cell, value in zip(cells, row)), cells


def _check_json(path: Path, columns, rows, max_abs_diff) -> None:
    doc = json.loads(path.read_text())
    if max_abs_diff is not None:
        assert _same(doc["max_abs_diff"], max_abs_diff)
    assert len(doc["rows"]) == len(rows)
    for parsed, row in zip(doc["rows"], rows):
        assert sorted(parsed) == sorted(columns)
        assert all(_same(parsed[name], value) for name, value in zip(columns, row)), parsed


@settings(max_examples=80, deadline=None)
@given(case=st.one_of(configs(), sidecar_sweeps()), stem=STEMS)
def test_every_output_reads_back(case, stem):
    command, cfg = case
    tables = []
    render = cli._emit_table

    def record(fmt, out, meta, columns, count, rows_from, max_abs_diff=None):
        rows = list(rows_from(0))
        assert len(rows) == count
        tables.append((fmt, Path(out), columns, rows, max_abs_diff))
        render(fmt, out, meta, columns, count, rows_from, max_abs_diff)

    cli._emit_table = record
    try:
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "config.json").write_text(json.dumps(cfg))
            out = Path(tmp) / f"{stem}.{cfg['format']}"
            argv = [command, "--config", str(Path(tmp) / "config.json"), "--out", str(out)]
            code = cli.main(argv)
            event(f"{command} exit {code}")
            if code != 0:
                return
            assert tables and tables[-1][1] == out
            for fmt, path, columns, rows, max_abs_diff in tables:
                check = _check_csv if fmt == "csv" else _check_json
                check(path, columns, rows, max_abs_diff)
    finally:
        cli._emit_table = render
