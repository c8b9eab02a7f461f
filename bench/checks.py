"""Output checks: every file an invocation writes is parsed and verified.

A file passes when it parses, every numeric field is finite, its row count
matches the time grid or the sweep, and the fields that engine `both` and a
time grid promise (cross-engine max_abs_diff, empirical T2) are present.  The
check also extracts the accuracy figures: the largest cross-engine
max_abs_diff and the largest |T2_emp * chi - 1|.

Outputs are deterministic, so results are cached by content hash: a repeated
pass re-hashes its files but parses only bytes it has not seen before.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Output

_SWEEP_NUMERIC = (
    "value",
    "omega_21",
    "temperature_K",
    "chi",
    "n_occ",
    "t2_analytic",
    "t2_empirical",
    "max_abs_diff",
)
_SWEEP_COLUMNS = ("index", "parameter") + _SWEEP_NUMERIC + ("trajectory",)
_STATE_COLUMNS = ("rho11", "rho22", "re_rho12", "im_rho12", "abs_rho12")
TRAJECTORY_COLUMNS = ("t",) + _STATE_COLUMNS + tuple(f"{c}_numeric" for c in _STATE_COLUMNS)
_T2_FIELDS = ("omega_21", "temperature_K", "chi", "n_occ", "t2_analytic", "t2_empirical")
_MAX_ABS_DIFF_PREFIX = "# max_abs_diff="


@dataclass
class FileCheck:
    errors: list[str] = field(default_factory=list)
    rows: int = 0
    max_abs_diff: float = 0.0
    t2_rel_err: float = 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _finite(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _number(text: str) -> float:
    """Parse a numeric field; non-finite values raise like malformed ones."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _check_sweep_csv(out: Output, text: str, result: FileCheck) -> None:
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in _SWEEP_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        result.errors.append(f"missing columns {missing}")
        return
    rows = list(reader)
    result.rows = len(rows)
    if len(rows) != out.rows:
        result.errors.append(f"{len(rows)} rows, expected {out.rows} sweep points")
    for i, row in enumerate(rows):
        try:
            nums = {c: _number(row[c]) for c in _SWEEP_NUMERIC}
        except (TypeError, ValueError) as exc:
            result.errors.append(f"row {i}: {exc}")
            continue
        if row["index"] != str(i):
            result.errors.append(f"row {i}: index {row['index']!r}")
        if i < len(out.values) and nums["value"] != out.values[i]:
            result.errors.append(f"row {i}: value {nums['value']!r} != config {out.values[i]!r}")
        result.max_abs_diff = max(result.max_abs_diff, nums["max_abs_diff"])
        result.t2_rel_err = max(result.t2_rel_err, abs(nums["t2_empirical"] * nums["chi"] - 1.0))


def _check_trajectory_csv(out: Output, text: str, result: FileCheck) -> None:
    lines = text.split("\n")
    if lines[-1] != "":
        result.errors.append("does not end with a newline")
        return
    header, body, last = lines[0].split(","), lines[1:-2], lines[-2]
    if tuple(header) != TRAJECTORY_COLUMNS:
        result.errors.append(f"header {lines[0]!r}")
        return
    if not last.startswith(_MAX_ABS_DIFF_PREFIX):
        result.errors.append("no max_abs_diff comment line")
        return
    result.rows = len(body)
    if len(body) != out.rows:
        result.errors.append(f"{len(body)} rows, expected {out.rows} grid samples")
    try:
        result.max_abs_diff = _number(last[len(_MAX_ABS_DIFF_PREFIX) :])
        for i, line in enumerate(body):
            fields = line.split(",")
            if len(fields) != len(header):
                raise ValueError(f"row {i} has {len(fields)} fields")
            for f in fields:
                _number(f)
    except ValueError as exc:
        result.errors.append(str(exc))


def _check_json_rows(doc, fields, result: FileCheck) -> list:
    if not isinstance(doc, dict) or not isinstance(doc.get("meta"), dict):
        result.errors.append("not a {meta, rows} document")
        return []
    rows = doc.get("rows")
    if not isinstance(rows, list):
        result.errors.append("rows is not a list")
        return []
    result.rows = len(rows)
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != set(fields):
            result.errors.append(f"row {i} has keys {sorted(row) if isinstance(row, dict) else row}")
            return []
        bad = [k for k in fields if not _finite(row[k])]
        if bad:
            result.errors.append(f"row {i}: non-finite or missing {bad}")
            return []
    return rows


def _check_evolve_json(out: Output, text: str, result: FileCheck) -> None:
    doc = json.loads(text)
    _check_json_rows(doc, TRAJECTORY_COLUMNS, result)
    if result.rows != out.rows:
        result.errors.append(f"{result.rows} rows, expected {out.rows} grid samples")
    if not _finite(doc.get("max_abs_diff")):
        result.errors.append(f"max_abs_diff is {doc.get('max_abs_diff')!r}")
    else:
        result.max_abs_diff = doc["max_abs_diff"]


def _check_t2_json(out: Output, text: str, result: FileCheck) -> None:
    rows = _check_json_rows(json.loads(text), _T2_FIELDS, result)
    if result.rows != out.rows:
        result.errors.append(f"{result.rows} rows, expected {out.rows}")
    for row in rows:
        result.t2_rel_err = max(result.t2_rel_err, abs(row["t2_empirical"] * row["chi"] - 1.0))


_CHECKERS = {
    "sweep_csv": _check_sweep_csv,
    "trajectory_csv": _check_trajectory_csv,
    "evolve_json": _check_evolve_json,
    "t2_json": _check_t2_json,
}


def check_bytes(out: Output, data: bytes) -> FileCheck:
    result = FileCheck()
    try:
        _CHECKERS[out.kind](out, data.decode("ascii"), result)
    except (UnicodeDecodeError, json.JSONDecodeError, csv.Error) as exc:
        result.errors.append(f"unparseable: {exc}")
    return result


class OutputChecker:
    """Checks output files, parsing each distinct content once."""

    def __init__(self) -> None:
        self._cache: dict[tuple[Output, str], FileCheck] = {}

    def check(self, out: Output, path: Path) -> tuple[str, FileCheck]:
        """(sha256 or "" if the file is missing, check result)."""
        try:
            data = path.read_bytes()
        except OSError as exc:
            return "", FileCheck(errors=[f"not written: {exc.strerror}"])
        digest = sha256(data)
        key = (out, digest)
        if key not in self._cache:
            self._cache[key] = check_bytes(out, data)
        return digest, self._cache[key]
