import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import MiB, allocation_peak
from dqdsim import PiezoelectricBath, SweepPoint, TimeGrid, Trajectory, cli, evaluate_point
from dqdsim import bath_from_dict, spectral_density
from dqdsim.cli import main
from test_analysis import _refuse_to_build_grids


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


PCPB = {"kind": "pcpb", "g": 0.035, "omega_d": 0.02, "omega_l": 0.5}
OHMIC = {"kind": "ohmic", "eta": 0.04, "omega_c": 0.05, "s_exponent": 1}

EVOLVE_CFG = {
    "bath": PCPB,
    "temperature_mK": 30,
    "t_end": 500.0,
    "n_steps": 5000,
    "engine": "closed_form",
}


class TestSpectral:
    def test_csv_golden(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"bath": PCPB, "grid": {"omega_min": 0.0, "omega_max": 0.1, "count": 3}},
        )
        out = tmp_path / "j.csv"
        assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
        j_mid = float(oracle.j_pcpb(0.05))
        j_end = float(oracle.j_pcpb(0.1))
        expected = (
            "omega,J\n"
            f"0,0\n"
            f"{fmt17(0.05)},{fmt17(j_mid)}\n"
            f"{fmt17(0.1)},{fmt17(j_end)}\n"
        )
        assert out.read_text() == expected

    def test_ohmic_row_value(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"bath": OHMIC, "grid": {"omega_min": 0.05, "omega_max": 0.1, "count": 2}},
        )
        out = tmp_path / "j.csv"
        assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(float(oracle.j_ohmic(0.05)), rel=1e-13)

    def test_json_meta_echo(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "bath": PCPB,
                "grid": {"omega_min": 0.0, "omega_max": 0.1, "count": 3},
                "format": "json",
            },
        )
        out = tmp_path / "j.json"
        assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["bath"] == PCPB
        assert doc["meta"]["grid"] == {"omega_min": 0.0, "omega_max": 0.1, "count": 3}
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["J"] == 0.0

    @pytest.mark.parametrize(
        "grid",
        [
            {"omega_min": -0.1, "omega_max": 0.1, "count": 3},
            {"omega_min": 0.2, "omega_max": 0.1, "count": 3},
            {"omega_min": 0.0, "omega_max": 0.1, "count": 1},
            {"omega_min": 0.0, "omega_max": 0.1},
            {"omega_min": 0.0, "omega_max": 0.1, "count": 3, "step": 0.1},
            {"omega_min": 0.0, "omega_max": 0.1, "count": 2**60 + 1},
            {"omega_min": 0.0, "omega_max": 0.1, "count": 2**63 - 1},
            {"omega_min": 0.0, "omega_max": 0.1, "count": 10**30},
        ],
    )
    def test_invalid_grid_is_usage_error(self, tmp_path, grid):
        cfg = write_config(tmp_path, {"bath": PCPB, "grid": grid})
        assert main(["spectral", "--config", cfg]) == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_over_several_slices_match_the_whole_list_rendering(self, tmp_path, fmt):
        # the table as it was once built: J of each float in np.linspace(...).tolist()
        grid = {"omega_min": 0.0, "omega_max": 2.0, "count": 3 * cli._ROWS_PER_WRITE + 5}
        cfg = write_config(tmp_path, {"bath": PCPB, "grid": grid, "format": fmt})
        out = tmp_path / f"j.{fmt}"
        assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
        bath = bath_from_dict(PCPB)
        omegas = np.linspace(0.0, 2.0, grid["count"]).tolist()
        rows = [(w, spectral_density(bath, w)) for w in omegas]
        meta = {"command": "spectral", "bath": PCPB, "format": fmt, "out": str(out), "grid": grid}
        assert out.read_text() == _reference_rendering(fmt, meta, ("omega", "J"), rows, None)

    def test_a_late_overflow_leaves_no_file(self, tmp_path, capsys):
        # J = 1e308 * omega leaves the float range only in the last slices of rows
        bath = {"kind": "ohmic", "eta": 1e308, "omega_c": 1e300, "s_exponent": 1}
        grid = {"omega_min": 0.0, "omega_max": 2.0, "count": 8 * cli._ROWS_PER_WRITE}
        cfg = write_config(tmp_path, {"bath": bath, "grid": grid})
        out = tmp_path / "j.csv"
        assert main(["spectral", "--config", cfg, "--out", str(out)]) == 3
        assert "outside the float range" in capsys.readouterr().err
        assert not out.exists()


class TestEvolve:
    def test_initial_row_and_header(self, tmp_path):
        cfg = write_config(tmp_path, EVOLVE_CFG)
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,rho11,rho22,re_rho12,im_rho12,abs_rho12"
        assert lines[1] == "0,0.5,0.5,0.5,0,0.5"
        assert len(lines) == 5002

    def test_both_engine_extra_columns_and_diff(self, tmp_path):
        cfg = write_config(tmp_path, {**EVOLVE_CFG, "engine": "both"})
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "t,rho11,rho22,re_rho12,im_rho12,abs_rho12,"
            "rho11_numeric,rho22_numeric,re_rho12_numeric,im_rho12_numeric,abs_rho12_numeric"
        )
        assert lines[-1].startswith("# max_abs_diff=")
        assert float(lines[-1].split("=")[1]) < 1e-6

    def test_numeric_engine_has_plain_columns(self, tmp_path):
        cfg = write_config(tmp_path, {**EVOLVE_CFG, "engine": "numeric"})
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,rho11,rho22,re_rho12,im_rho12,abs_rho12"
        assert lines[1] == "0,0.5,0.5,0.5,0,0.5"

    def test_engine_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, EVOLVE_CFG)
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--engine", "both"]) == 0
        assert "rho11_numeric" in out.read_text().splitlines()[0]

    def test_json_mirrors_csv(self, tmp_path):
        cfg = write_config(
            tmp_path, {**EVOLVE_CFG, "t_end": 100.0, "n_steps": 1000, "engine": "both"}
        )
        out = tmp_path / "traj.json"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["engine"] == "both"
        assert doc["meta"]["temperature_K"] == 0.030
        assert doc["max_abs_diff"] < 1e-6
        first = doc["rows"][0]
        assert first["t"] == 0.0 and first["rho11"] == 0.5 and first["im_rho12"] == 0.0
        assert "rho11_numeric" in first

    def test_envelope_reaches_one_over_e(self, tmp_path):
        cfg = write_config(
            tmp_path, {**EVOLVE_CFG, "t_end": 2500.0, "n_steps": 5000}
        )
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        t2 = float(1 / oracle.chi_from(oracle.j_pcpb(0.1), oracle.bose(0.1, 0.030)))
        target = 0.5 * math.exp(-1.0)
        crossing = next(float(r[0]) for r in rows if float(r[5]) < target)
        assert crossing == pytest.approx(t2, rel=0.05)

    def test_step_guard_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**EVOLVE_CFG, "n_steps": 100, "engine": "numeric"})
        assert main(["evolve", "--config", cfg]) == 3
        assert "n_steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, advice",
        [
            ({"n_steps": 100}, "increase n_steps to at least 500\n"),
            ({"t_end": 1e308, "n_steps": 2}, "no admissible n_steps meets the guard"),
            (
                {"t_end": 1e308, "n_steps": 2, "qubit": {"tunneling_Tc": 1.0}},
                "no admissible n_steps meets the guard (it needs at least inf steps",
            ),
        ],
        ids=["reachable", "past-max-floats", "beyond-the-float-range"],
    )
    def test_step_guard_advice_can_be_followed(self, tmp_path, capsys, grid, advice):
        # the least n_steps is named only when a grid can hold it; else t_end must shrink
        cfg = write_config(tmp_path, {**EVOLVE_CFG, **grid, "engine": "numeric"})
        assert main(["evolve", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical guard:") and advice in err, err
        assert ("t_end must shrink" in err) == ("admissible" in advice)

    def test_unwritable_output_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path, EVOLVE_CFG)
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["evolve", "--config", cfg, "--out", str(missing)]) == 4

    @pytest.mark.parametrize(
        "mutation",
        [
            {"extra_key": 1},
            {"temperature_K": 0.03},  # together with temperature_mK
            {"bath": {"kind": "pcpb", "g": 0.035, "cutoff": 1}},
            {"n_steps": 5000.5},
            {"engine": "exact"},
            {"store_every": 7},  # does not divide n_steps
        ],
    )
    def test_config_errors(self, tmp_path, mutation):
        cfg = write_config(tmp_path, {**EVOLVE_CFG, **mutation})
        assert main(["evolve", "--config", cfg]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["evolve", "--config", str(path)]) == 2

    def test_temperature_units_equivalent(self, tmp_path):
        out_mk = tmp_path / "mk.csv"
        out_k = tmp_path / "k.csv"
        cfg_mk = write_config(tmp_path, EVOLVE_CFG, "mk.json")
        cfg_k = write_config(
            tmp_path,
            {**{k: v for k, v in EVOLVE_CFG.items() if k != "temperature_mK"}, "temperature_K": 0.030},
            "k.json",
        )
        assert main(["evolve", "--config", cfg_mk, "--out", str(out_mk)]) == 0
        assert main(["evolve", "--config", cfg_k, "--out", str(out_k)]) == 0
        assert out_mk.read_bytes() == out_k.read_bytes()


class TestT2Command:
    def test_analytic_only(self, tmp_path):
        cfg = write_config(tmp_path, {"bath": PCPB, "temperature_mK": 30})
        out = tmp_path / "t2.csv"
        assert main(["t2", "--config", cfg, "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "omega_21,temperature_K,chi,n_occ,t2_analytic,t2_empirical"
        fields = row.split(",")
        expected_chi = float(oracle.chi_from(oracle.j_pcpb(0.1), oracle.bose(0.1, 0.030)))
        assert float(fields[0]) == 0.1
        assert float(fields[2]) == pytest.approx(expected_chi, rel=1e-12)
        assert float(fields[4]) == pytest.approx(1.0 / expected_chi, rel=1e-12)
        assert fields[5] == ""

    def test_with_trajectory_extraction(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"bath": PCPB, "temperature_mK": 30, "t_end": 2500.0, "n_steps": 5000},
        )
        out = tmp_path / "t2.csv"
        assert main(["t2", "--config", cfg, "--out", str(out)]) == 0
        fields = out.read_text().splitlines()[1].split(",")
        assert float(fields[5]) == pytest.approx(float(fields[4]), rel=0.02)

    def test_ohmic_needs_qubit(self, tmp_path):
        cfg = write_config(tmp_path, {"bath": OHMIC, "temperature_mK": 30})
        assert main(["t2", "--config", cfg]) == 2

    def test_ohmic_with_qubit_value(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"bath": OHMIC, "qubit": {"omega_l": 0.5}, "temperature_mK": 30, "format": "json"},
        )
        out = tmp_path / "t2.json"
        assert main(["t2", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        expected = float(1 / oracle.chi_from(oracle.j_ohmic(0.1), oracle.bose(0.1, 0.030)))
        assert doc["rows"][0]["t2_analytic"] == pytest.approx(expected, rel=1e-12)
        assert doc["rows"][0]["t2_empirical"] is None
        assert doc["meta"]["qubit"] == {"tunneling_Tc": 0.05}


class TestSweepCommand:
    def test_summary_and_sidecars(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "bath": PCPB,
                "temperature_mK": 30,
                "sweep": {"parameter": "omega_l", "values": [0.5, 0.7]},
                "t_end": 2500.0,
                "n_steps": 5000,
                "engine": "both",
                "trajectories": {"write": True, "every": 10},
            },
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "index,parameter,value,omega_21,temperature_K,chi,n_occ,"
            "t2_analytic,t2_empirical,max_abs_diff,trajectory"
        )
        assert len(lines) == 3
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert fields[0] == str(i)
            assert fields[1] == "omega_l"
            assert fields[10] == f"sweep_point{i}.csv"
            sidecar = tmp_path / fields[10]
            assert sidecar.exists()
            side_lines = sidecar.read_text().splitlines()
            assert side_lines[0].startswith("t,rho11")
            assert "rho11_numeric" in side_lines[0]
            assert side_lines[-1].startswith("# max_abs_diff=")
            assert len(side_lines) == 503  # header + 501 rows + comment

    def test_stdout_summary(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "bath": OHMIC,
                "qubit": {"omega_l": 0.5},
                "temperature_mK": 30,
                "sweep": {"parameter": "eta", "values": [0.04, 0.08, 0.12]},
            },
        )
        assert main(["sweep", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        t2s = [float(line.split(",")[7]) for line in lines[1:]]
        assert t2s[0] == pytest.approx(2.0 * t2s[1], rel=1e-12)
        assert t2s[0] == pytest.approx(3.0 * t2s[2], rel=1e-12)

    def test_json_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "bath": PCPB,
                "sweep": {"parameter": "temperature", "values": [0.03, 0.2, 0.3, 1.0]},
                "format": "json",
            },
        )
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        chis = [row["chi"] for row in doc["rows"]]
        assert chis == sorted(chis)
        assert doc["rows"][0]["trajectory"] is None
        assert doc["meta"]["sweep"]["values"] == [0.03, 0.2, 0.3, 1.0]

    def test_guard_violation_in_sweep_is_exit_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "bath": PCPB,
                "temperature_mK": 30,
                "sweep": {"parameter": "omega_l", "values": [0.5, 0.7]},
                "t_end": 150.0,
                "n_steps": 200,
                "engine": "numeric",
            },
        )
        assert main(["sweep", "--config", cfg]) == 3
        assert "aborted" in capsys.readouterr().err

    def test_trajectories_require_out(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "bath": PCPB,
                "temperature_mK": 30,
                "sweep": {"parameter": "omega_l", "values": [0.5]},
                "t_end": 2500.0,
                "n_steps": 5000,
                "trajectories": {"write": True},
            },
        )
        assert main(["sweep", "--config", cfg]) == 2

    @pytest.mark.parametrize("out", ["", ".", "/", "..", "sub/"])
    def test_trajectories_require_an_out_that_names_a_file(self, tmp_path, monkeypatch, capsys,
                                                           out):
        """Refused before any point runs: no file is written, here or next to the directory."""
        cfg = write_config(tmp_path, self.PASSING)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main(["sweep", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--out" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_temperature_key_conflicts_with_temperature_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "bath": PCPB,
                "temperature_mK": 30,
                "sweep": {"parameter": "temperature", "values": [0.03, 0.2]},
            },
        )
        assert main(["sweep", "--config", cfg]) == 2

    def test_determinism_repeat_runs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "bath": OHMIC,
                "qubit": {"omega_l": 0.5},
                "temperature_mK": 30,
                "sweep": {"parameter": "eta", "values": [0.04, 0.12]},
                "t_end": 2000.0,
                "n_steps": 4000,
                "engine": "both",
                "trajectories": {"write": True, "every": 4},
            },
        )
        for d in ("runA", "runB"):
            (tmp_path / d).mkdir()
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / d / "s.csv")]) == 0
        for name in ("s.csv", "s_point0.csv", "s_point1.csv"):
            a = (tmp_path / "runA" / name).read_bytes()
            b = (tmp_path / "runB" / name).read_bytes()
            assert a == b

    GUARDED = {
        "bath": PCPB,
        "temperature_mK": 30,
        # h = 0.75 satisfies the step guard at omega_l = 0.5 but not at 0.7
        "sweep": {"parameter": "omega_l", "values": [0.5, 0.7]},
        "t_end": 150.0,
        "n_steps": 200,
        "engine": "numeric",
        "trajectories": {"write": True, "every": 3},
    }
    PASSING = {**GUARDED, "sweep": {"parameter": "omega_l", "values": [0.5]}}

    def test_failing_point_keeps_earlier_sidecars_and_writes_no_summary(self, tmp_path, capsys):
        ok, guarded = tmp_path / "ok", tmp_path / "guarded"
        for d, payload, code in ((ok, self.PASSING, 0), (guarded, self.GUARDED, 3)):
            d.mkdir()
            cfg = write_config(d, payload)
            assert main(["sweep", "--config", cfg, "--out", str(d / "s.csv")]) == code
        assert "after 1 completed point(s)" in capsys.readouterr().err
        assert (guarded / "s_point0.csv").read_bytes() == (ok / "s_point0.csv").read_bytes()
        assert not (guarded / "s_point1.csv").exists()
        assert not (guarded / "s.csv").exists()

    def test_sidecar_write_failure_is_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.PASSING)
        (tmp_path / "s_point0.csv").mkdir()  # a directory where the sidecar goes
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 4
        assert capsys.readouterr().err.startswith("i/o error:")
        assert not (tmp_path / "s.csv").exists()

    def test_stem_with_a_comma_reads_back_as_one_cell(self, tmp_path):
        sweep = {"parameter": "omega_l", "values": [0.5, 0.6]}
        cfg = write_config(tmp_path, {**self.PASSING, "sweep": sweep})
        out = tmp_path / "a,b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 2
        assert [len(row) for row in rows] == [len(header)] * 2
        trajectory = header.index("trajectory")
        assert [row[trajectory] for row in rows] == ["a,b_point0.csv", "a,b_point1.csv"]
        assert (tmp_path / "a,b_point1.csv").exists()

    def test_summary_columns_are_the_sweep_point_fields_and_the_file(self):
        fields = ["temperature_K" if f == "temperature" else f for f in SweepPoint._fields]
        assert (*fields, "trajectory") == cli._SUMMARY_COLUMNS


_SRC = str(Path(cli.__file__).resolve().parents[1])
_C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
# runs main on each argv of the JSON list in argv[1]; any other exit code fails the script
_RUN_ALL = "import json, sys\nfrom dqdsim.cli import main\n" + (
    "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0, argv\n"
)


def _python(args: list, cwd: Path, **env) -> subprocess.CompletedProcess:
    """The interpreter running this suite, on the package under test."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)


class TestFileEncoding:
    """Every file is UTF-8 whatever the locale; a name that is not UTF-8 keeps its bytes."""

    SWEEP = TestSweepCommand.PASSING

    def test_name_that_is_not_utf_8_is_written_as_its_bytes(self, tmp_path):
        sweep = {"parameter": "omega_l", "values": [0.5, 0.6]}
        cfg = write_config(tmp_path, {**self.SWEEP, "sweep": sweep})
        out = tmp_path / "\udcff.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_bytes().splitlines()[1:]
        names = [row.rsplit(b",", 1)[1] for row in rows]
        assert names == [b"\xff_point0.csv", b"\xff_point1.csv"]
        assert (tmp_path / "\udcff_point1.csv").exists()

    def test_name_beyond_an_ascii_locale_is_written_as_utf_8(self, tmp_path):
        cfg = write_config(tmp_path, self.SWEEP)
        argv = ["-m", "dqdsim.cli", "sweep", "--config", cfg, "--out", "Ωü.csv"]
        run = _python(argv, tmp_path, **_C_LOCALE)
        assert (run.returncode, run.stderr) == (0, b"")
        row = (tmp_path / "Ωü.csv").read_bytes().splitlines()[1]
        assert row.endswith(",Ωü_point0.csv".encode())

    def test_no_file_is_opened_in_the_default_encoding(self, tmp_path):
        configs = {
            "spectral": {"bath": PCPB, "grid": {"omega_min": 0, "omega_max": 0.1, "count": 5}},
            "evolve": EVOLVE_CFG,
            "t2": {"bath": PCPB, "temperature_mK": 30, "t_end": 2500.0, "n_steps": 5000},
            "sweep": self.SWEEP,
        }
        runs = [
            [command, "--config", write_config(tmp_path, cfg, f"{command}.json"),
             "--out", str(tmp_path / f"{command}.csv")]
            for command, cfg in configs.items()
        ]
        flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        run = _python([*flags, "-c", _RUN_ALL, json.dumps(runs)], tmp_path)
        assert (run.returncode, run.stderr) == (0, b""), run.stderr.decode()
        assert (tmp_path / "sweep_point0.csv").exists()


INF = float("inf")
NAN = float("nan")

_NO_GRID = {k: v for k, v in EVOLVE_CFG.items() if k not in ("t_end", "n_steps")}
_SWEEP = {"bath": PCPB, "temperature_mK": 30, "sweep": {"parameter": "omega_l", "values": [0.5]}}
_OHMIC_NEEDS_QUBIT = "the Ohmic bath has no omega_l to bind T_c to"
_NEEDS_GRID = "store_every needs a time grid (t_end, n_steps)"
# (command, config, reason): the config is a dict written as JSON, or the file's bytes
CONFIG_ERROR_REASONS = {
    "not-an-object": ("evolve", b"[1, 2]", "config must be a JSON object"),
    "block-not-an-object": (
        "spectral", {"bath": PCPB, "grid": 5}, "grid must be an object with keys"
    ),
    "no-bath": (
        "evolve", {k: v for k, v in EVOLVE_CFG.items() if k != "bath"},
        "config needs a 'bath' object",
    ),
    "no-temperature": (
        "evolve", {k: v for k, v in EVOLVE_CFG.items() if k != "temperature_mK"},
        "config needs temperature_K or temperature_mK",
    ),
    "qubit-both-keys": (
        "t2", {**EVOLVE_CFG, "qubit": {"tunneling_Tc": 0.05, "omega_l": 0.5}},
        "qubit needs exactly one of tunneling_Tc and omega_l",
    ),
    "qubit-neither-key": (
        "t2", {**EVOLVE_CFG, "qubit": {}}, "qubit needs exactly one of tunneling_Tc and omega_l"
    ),
    "t_end-alone": ("t2", {**_NO_GRID, "t_end": 10.0}, "t_end and n_steps must be given together"),
    "n_steps-alone": ("t2", {**_NO_GRID, "n_steps": 10}, "t_end and n_steps must be given together"),
    "no-grid-store_every-zero": ("t2", {**_NO_GRID, "store_every": 0}, f"{_NEEDS_GRID}, got 0"),
    "no-grid-store_every-7": ("t2", {**_NO_GRID, "store_every": 7}, f"{_NEEDS_GRID}, got 7"),
    "no-grid-store_every-bool": ("t2", {**_NO_GRID, "store_every": True}, f"{_NEEDS_GRID}, got True"),
    "no-grid-store_every-negative": ("t2", {**_NO_GRID, "store_every": -2}, f"{_NEEDS_GRID}, got -2"),
    "evolve-without-grid": ("evolve", _NO_GRID, "config needs t_end and n_steps"),
    "store_every-without-grid": (
        "t2", {**_NO_GRID, "store_every": 2}, "store_every needs a time grid (t_end, n_steps)"
    ),
    "out-not-a-string": ("evolve", {**EVOLVE_CFG, "out": 5}, "out must be a string path"),
    "bad-sweep-parameter": (
        "sweep", {**_SWEEP, "sweep": {"parameter": "g", "values": [0.5]}},
        "swept_parameter must be one of ('omega_l', 'eta', 'temperature'), got 'g'",
    ),
    "empty-sweep-values": (
        "sweep", {**_SWEEP, "sweep": {"parameter": "omega_l", "values": []}},
        "values must be non-empty",
    ),
    "sweep-values-not-a-list": (
        "sweep", {**_SWEEP, "sweep": {"parameter": "omega_l", "values": 0.5}},
        "sweep.values must be a list of numbers",
    ),
    "bad-engine": ("evolve", {**EVOLVE_CFG, "engine": "exact"}, "engine must be one of"),
    "sweep-bad-engine": ("sweep", {**_SWEEP, "engine": "exact"}, "engine must be one of"),
    "evolve-ohmic-without-qubit": ("evolve", {**EVOLVE_CFG, "bath": OHMIC}, _OHMIC_NEEDS_QUBIT),
    "t2-ohmic-without-qubit": ("t2", {**_NO_GRID, "bath": OHMIC}, _OHMIC_NEEDS_QUBIT),
    "sweep-ohmic-without-qubit": (
        "sweep", {**_SWEEP, "bath": OHMIC, "sweep": {"parameter": "eta", "values": [0.04]}},
        _OHMIC_NEEDS_QUBIT,
    ),
    "sweep-negative-tunneling_Tc": (
        "sweep",
        {"bath": PCPB, "qubit": {"tunneling_Tc": -1.0},
         "sweep": {"parameter": "temperature", "values": [0.03]}},
        "tunneling_Tc must be positive, got -1.0",
    ),
    "negative-sweep-value": (
        "sweep", {**_SWEEP, "sweep": {"parameter": "omega_l", "values": [-1.0]}},
        "swept values must be positive",
    ),
    "trajectories-write-not-bool": (
        "sweep", {**_SWEEP, "trajectories": {"write": "yes"}},
        "trajectories.write must be a boolean",
    ),
    "trajectories-every-below-1": (
        "sweep", {**_SWEEP, "trajectories": {"write": False, "every": 0}},
        "trajectories.every must be >= 1",
    ),
    "trajectories-without-grid": (
        "sweep", {**_SWEEP, "trajectories": {"write": True}},
        "writing sweep trajectories requires a time grid (t_end, n_steps)",
    ),
    "not-utf-8": (
        "t2", b'{"bath": {"kind": "pcpb"}, "temperature_mK": 30, "out": "\xff.csv"}',
        "is not valid JSON",
    ),
    "nested-past-the-recursion-limit": ("t2", b"[" * 100000 + b"]" * 100000, "is not valid JSON"),
    "grid-count-2**60+1": (
        "spectral", {"bath": PCPB, "grid": {"omega_min": 0, "omega_max": 0.1, "count": 2**60 + 1}},
        "grid.count",
    ),
    "grid-count-2**63-1": (
        "spectral", {"bath": PCPB, "grid": {"omega_min": 0, "omega_max": 0.1, "count": 2**63 - 1}},
        "grid.count",
    ),
    "grid-count-1e30": (
        "spectral", {"bath": PCPB, "grid": {"omega_min": 0, "omega_max": 0.1, "count": 10**30}},
        "grid.count",
    ),
    "n_steps-beyond-float-range": (
        "evolve", {**EVOLVE_CFG, "n_steps": 10**400}, "n_steps is beyond the float range"
    ),
    # np.arange(2**63) is empty, so a time grid this long must be rejected by name
    "n_steps-2**63-1": ("evolve", {**EVOLVE_CFG, "n_steps": 2**63 - 1}, "n_steps/store_every"),
    # np.linspace and np.arange refuse 2**60 - 64 floats and more without naming the field
    "grid-count-2**60-1": (
        "spectral", {"bath": PCPB, "grid": {"omega_min": 0, "omega_max": 0.1, "count": 2**60 - 1}},
        "grid.count",
    ),
    "grid-count-2**60-64": (
        "spectral", {"bath": PCPB, "grid": {"omega_min": 0, "omega_max": 0.1, "count": 2**60 - 64}},
        "grid.count",
    ),
    "n_steps-2**60-2": ("evolve", {**EVOLVE_CFG, "n_steps": 2**60 - 2}, "n_steps/store_every"),
    "n_steps-2**60-65": ("evolve", {**EVOLVE_CFG, "n_steps": 2**60 - 65}, "n_steps/store_every"),
    "n_steps-0": ("evolve", {**EVOLVE_CFG, "n_steps": 0}, "n_steps must be >= 1"),
    "bath-not-an-object": ("evolve", {**EVOLVE_CFG, "bath": 5}, "bath must be an object, got int"),
    "t2-bath-kind-a-list": (
        "t2", {**EVOLVE_CFG, "bath": {**PCPB, "kind": ["pcpb"]}}, "bath kind must be one of"
    ),
    "spectral-bath-kind-an-object": (
        "spectral",
        {"bath": {"kind": {"a": 1}}, "grid": {"omega_min": 0, "omega_max": 0.1, "count": 3}},
        "bath kind must be one of",
    ),
}


class TestValidationBoundary:
    @pytest.mark.parametrize(
        "command, payload",
        [
            ("evolve", {**EVOLVE_CFG, "temperature_mK": None, "temperature_K": -1.0}),
            ("evolve", {**EVOLVE_CFG, "temperature_mK": None, "temperature_K": NAN}),
            ("evolve", {**EVOLVE_CFG, "temperature_mK": None, "temperature_K": INF}),
            ("evolve", {**EVOLVE_CFG, "t_end": INF}),
            ("evolve", {**EVOLVE_CFG, "bath": {**PCPB, "g": INF}}),
            ("evolve", {**EVOLVE_CFG, "bath": {**PCPB, "g": True}}),
            (
                "sweep",
                {
                    "bath": PCPB,
                    "temperature_mK": 30,
                    "sweep": {"parameter": "omega_l", "values": [0.5, INF]},
                },
            ),
            ("spectral", {"bath": PCPB, "grid": {"omega_min": 0, "omega_max": INF, "count": 5}}),
        ],
        ids=[
            "T-1", "T-nan", "T-inf", "t_end-inf", "g-inf", "g-true", "sweep-omega_l-inf",
            "spectral-omega_max-inf",
        ],
    )
    def test_non_finite_and_bool_numbers_are_config_errors(
        self, tmp_path, capsys, command, payload
    ):
        payload = {k: v for k, v in payload.items() if v is not None}
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, config, reason",
        list(CONFIG_ERROR_REASONS.values()),
        ids=list(CONFIG_ERROR_REASONS),
    )
    def test_every_config_error_names_its_reason(self, tmp_path, capsys, command, config, reason):
        path = tmp_path / "config.json"
        path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        out = tmp_path / "o.csv"
        argv = [command, "--config", str(path)]
        if b'"out"' not in path.read_bytes():  # --out would override the config's out
            argv += ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_is_a_named_guard(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**EVOLVE_CFG, "qubit": {"tunneling_Tc": 1e300}})
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical guard" in err and "closed_form_trajectory" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_trajectory_is_named_with_both_engines(self, tmp_path, capsys):
        # a step small enough for omega_21 = 2e300; the closed form is NaN at t = 0
        grid = {"engine": "both", "t_end": 1e-300, "n_steps": 1000}
        cfg = write_config(tmp_path, {**EVOLVE_CFG, "qubit": {"tunneling_Tc": 1e300}, **grid})
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical guard: closed_form_trajectory is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,payload,target",
        [
            ("evolve", EVOLVE_CFG, "dqdsim.analytic._closed_form_blocks"),
            (
                "spectral",
                {"bath": PCPB, "grid": {"omega_min": 0, "omega_max": 0.1, "count": 3}},
                "dqdsim.cli.spectral_density",
            ),
            ("t2", EVOLVE_CFG, "dqdsim.analysis.closed_form_trajectory"),
            (
                "sweep",
                {**_SWEEP, "t_end": 500.0, "n_steps": 5000},
                "dqdsim.analysis.closed_form_trajectory",
            ),
        ],
        ids=["evolve", "spectral", "t2", "sweep"],
    )
    def test_grid_too_large_for_memory_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, command, payload, target
    ):
        # the failed allocation is simulated; a real one would ask for hundreds of GiB
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(target, allocate)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: not enough memory")
        assert "745. GiB" in err and "Traceback" not in err
        assert not out.exists()


class TestOnePipeline:
    """evolve and t2 are one-point runs of the same pipeline as a sweep point."""

    BASE = {
        "bath": PCPB,
        "t_end": 2500.0,
        "n_steps": 5000,
        "engine": "both",
    }

    def test_evolve_and_t2_match_a_one_point_sweep(self, tmp_path):
        point = write_config(tmp_path, {**self.BASE, "temperature_K": 0.03}, "point.json")
        sweep = write_config(
            tmp_path,
            {
                **self.BASE,
                "sweep": {"parameter": "temperature", "values": [0.03]},
                "trajectories": {"write": True, "every": 1},
                "format": "json",
            },
            "sweep.json",
        )
        evolve_out = tmp_path / "evolve.csv"
        t2_out = tmp_path / "t2.json"
        sweep_out = tmp_path / "sweep.json"
        assert main(["evolve", "--config", point, "--out", str(evolve_out)]) == 0
        assert main(["t2", "--config", point, "--out", str(t2_out), "--format", "json"]) == 0
        assert main(["sweep", "--config", sweep, "--out", str(sweep_out)]) == 0

        assert evolve_out.read_bytes() == (tmp_path / "sweep_point0.csv").read_bytes()
        t2_row = json.loads(t2_out.read_text())["rows"][0]
        sweep_row = json.loads(sweep_out.read_text())["rows"][0]
        for key in ("omega_21", "chi", "n_occ", "t2_analytic", "t2_empirical"):
            assert t2_row[key] == sweep_row[key], key
        assert t2_row["t2_empirical"] is not None

    def test_bad_tunneling_is_a_config_error_for_every_command(self, tmp_path):
        qubit = {"tunneling_Tc": -1.0}
        point = write_config(
            tmp_path, {**self.BASE, "temperature_K": 0.03, "qubit": qubit}, "point.json"
        )
        sweep = write_config(
            tmp_path,
            {**self.BASE, "qubit": qubit, "sweep": {"parameter": "temperature", "values": [0.03]}},
            "sweep.json",
        )
        assert main(["evolve", "--config", point]) == 2
        assert main(["t2", "--config", point]) == 2
        assert main(["sweep", "--config", sweep]) == 2

    @pytest.mark.parametrize("command", ["evolve", "t2", "sweep"])
    @pytest.mark.parametrize("tc", [9e307, 1.7e308])
    def test_overflowing_splitting_is_a_named_config_error(self, tmp_path, capsys, command, tc):
        payload = {
            "bath": {"kind": "ohmic", "eta": 0.125, "omega_c": 0.125, "s_exponent": 1.0},
            "qubit": {"tunneling_Tc": tc},
            "engine": "closed_form",
            "t_end": 10.0,
            "n_steps": 1,
            "temperature_mK": 10.0,
        }
        if command == "sweep":
            payload["sweep"] = {"parameter": "eta", "values": [0.125]}
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: tunneling_Tc=") and "overflow" in err, err
        assert "Traceback" not in err
        assert not out.exists()



def _reference_rendering(fmt, meta, columns, rows, max_abs_diff) -> str:
    """A table as the stdlib writes it: json with indent 2, or one format() per CSV cell."""
    if fmt == "json":
        doc = {"meta": meta, "rows": [dict(zip(columns, row)) for row in rows]}
        if max_abs_diff is not None:
            doc["max_abs_diff"] = max_abs_diff
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return format(value, ".17g")
        # csv quotes a cell holding the delimiter, the quote or a line-terminator character
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow([str(value)])
        return buffer.getvalue()[:-2]

    lines = [",".join(columns)] + [",".join(map(cell, row)) for row in rows]
    if max_abs_diff is not None:
        lines.append(f"# max_abs_diff={format(max_abs_diff, '.17g')}")
    return "\n".join(lines) + "\n"


SWEEP_CFG = {
    "bath": PCPB,
    "temperature_mK": 30,
    "sweep": {"parameter": "omega_l", "values": [0.5, 0.7]},
    "engine": "both",
}
GRID = {"t_end": 2500.0, "n_steps": 4000, "store_every": 2}


class TestTableWriter:
    """Every table the CLI writes equals the stdlib rendering of the same table."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "command, payload, stem",
        [
            ("spectral", {"bath": PCPB, "grid": {"omega_min": 0, "omega_max": 2, "count": 50}}, "j"),
            ("evolve", {**EVOLVE_CFG, "engine": "both"}, "traj"),
            ("evolve", EVOLVE_CFG, "traj"),
            ("t2", {**EVOLVE_CFG, "engine": "both"}, "t2"),
            ("t2", {**EVOLVE_CFG, "t_end": None, "n_steps": None}, "t2"),
            ("sweep", SWEEP_CFG, "sweep"),
            (
                "sweep",
                {**SWEEP_CFG, **GRID, "trajectories": {"write": True, "every": 3}},
                'sw"eep ü',
            ),
        ],
        ids=[
            "spectral", "evolve-both", "evolve-closed_form", "t2-grid", "t2-no-grid",
            "sweep-no-grid", "sweep-sidecars-odd-stem",
        ],
    )
    def test_output_matches_the_stdlib_rendering(
        self, tmp_path, monkeypatch, command, payload, stem, fmt
    ):
        tables = []
        render = cli._emit_table

        def record(fmt, out, meta, columns, count, rows_from, max_abs_diff=None):
            rows = list(rows_from(0))
            assert len(rows) == count
            tables.append((fmt, out, meta, columns, rows, max_abs_diff))
            render(fmt, out, meta, columns, count, rows_from, max_abs_diff)

        monkeypatch.setattr(cli, "_emit_table", record)
        payload = {k: v for k, v in payload.items() if v is not None}
        cfg = write_config(tmp_path, {**payload, "format": fmt})
        out = tmp_path / f"{stem}.{fmt}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert tables[-1][1] == str(out)
        for table_fmt, path, meta, columns, rows, max_abs_diff in tables:
            expected = _reference_rendering(table_fmt, meta, columns, rows, max_abs_diff)
            # compared line by line: a failure then names the first differing line quickly
            lines = Path(path).read_text().splitlines(keepends=True)
            assert lines == expected.splitlines(keepends=True), path
        if command in ("t2", "sweep") and "t_end" not in payload:
            _, _, _, columns, rows, _ = tables[-1]
            assert {row[columns.index("t2_empirical")] for row in rows} == {None}
        if "trajectories" in payload:
            assert len(tables) == 3
            text = out.read_text()
            assert ('\\"eep \\u00fc_point0' if fmt == "json" else '"sw""eep ü_point0') in text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_are_written_while_the_iterator_runs(self, monkeypatch, fmt):
        total = 3 * cli._ROWS_PER_WRITE + 5
        made = 0

        def rows_from(start: int):
            nonlocal made
            for i in range(start, total):
                made += 1
                yield (float(i), 0.125)

        writes = []  # (rows made so far, rows in this write)

        class Handle:
            def write(self, text):
                writes.append((made, text.count("0.125")))

        monkeypatch.setattr(sys, "stdout", Handle())
        cli._emit_table(fmt, None, {}, ("t", "x"), total, rows_from)
        body = [(made_then, n) for made_then, n in writes if n]
        assert sum(n for _, n in body) == total
        assert body[0][0] < total  # the first rows are out before the last one is made
        assert max(n for _, n in body) < total


def _whole_table_rows(closed, numeric, every):
    """The rows as they were made before streaming: whole columns, then zipped."""
    parts = [traj for traj in (closed, numeric) if traj is not None]
    values = [parts[0].times[::every]]
    for traj in parts:
        rho12 = traj.rho12[::every]
        re, im = rho12.real, rho12.imag
        values += [traj.rho11[::every], traj.rho22[::every], re, im, np.hypot(re, im)]
    return list(zip(*(v.tolist() for v in values)))


class TestTrajectoryTable:
    """Trajectory rows are made a block at a time, equal to whole-column rows."""

    @pytest.fixture(scope="class")
    def run(self):
        # 10 001 samples: ten row blocks at every = 1, four at every = 3
        return evaluate_point(PiezoelectricBath(), 0.030, 0.05, "both", TimeGrid(2500.0, 10000))

    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("engines", ["closed", "numeric", "both"])
    def test_rows_over_several_blocks(self, run, every, engines):
        closed = run.closed if engines != "numeric" else None
        numeric = run.numeric if engines != "closed" else None
        expected = _whole_table_rows(closed, numeric, every)
        assert len(expected) > 3 * cli._ROWS_PER_WRITE
        _, count, rows_from = cli._trajectory_table(closed, numeric, every)
        assert count == len(expected)
        assert repr(list(rows_from(0))) == repr(expected)  # repr tells -0.0 from 0.0

    @pytest.mark.parametrize("every", [1, 3, 80])
    def test_rows_from_any_start_are_the_whole_tables_from_there(self, every):
        # 50 001 samples, read in windows of 2048: at every = 1 rows 2047 and 2048 end the
        # first window and start the second, and row 20 000 is in the tenth
        run = evaluate_point(PiezoelectricBath(), 0.030, 0.05, "both", TimeGrid(2500.0, 50000))
        columns, count, rows_from = cli._trajectory_table(run.closed, run.numeric, every)
        expected = np.array(_whole_table_rows(run.closed, run.numeric, every))
        for start in (0, 1, 2047, 2048, 8191, 8192, 20000, count - 1):
            rows = np.array(list(rows_from(start))).reshape(-1, len(columns))
            assert rows.tobytes() == expected[start:].tobytes(), start  # bits: -0.0 is not 0.0

    def test_first_row_of_a_long_table_is_cheap(self):
        run = evaluate_point(PiezoelectricBath(), 0.030, 0.05, "both", TimeGrid(2500.0, 50000))

        def first_row():
            return next(cli._trajectory_table(run.closed, run.numeric)[2](0))

        first, peak = allocation_peak(first_row)
        assert first == _whole_table_rows(run.closed, run.numeric, 1)[0]
        # both engines' first windows (2048 samples, 128 KiB each) and one slice of rows
        assert peak <= MiB // 2

    def test_a_whole_json_evolve_holds_little(self, tmp_path):
        # 50 001 rows of both engines, each row a JSON object of eleven floats
        payload = {**EVOLVE_CFG, "engine": "both", "t_end": 2500.0, "n_steps": 50000}
        cfg = write_config(tmp_path, {**payload, "format": "json"})
        out = tmp_path / "e.json"
        code, peak = allocation_peak(lambda: main(["evolve", "--config", cfg, "--out", str(out)]))
        assert code == 0 and len(json.loads(out.read_text())["rows"]) == 50001
        # a window of each engine, as for the first row, and the writer's slices
        assert peak <= MiB

    def test_fig5_sweep_holds_little(self, tmp_path, configs_dir):
        # four 2e5-sample points with both engines, trajectory files thinned 80-fold
        argv = ["sweep", "--config", str(configs_dir / "fig5.json"), "--out", str(tmp_path / "f.csv")]
        code, peak = allocation_peak(lambda: main(argv))
        assert code == 0 and len(list(tmp_path.glob("f_point*.csv"))) == 4
        assert peak <= 1.25 * MiB


class TestNoGridIsBuilt:
    """No run builds a whole time grid: each window's times are computed where they are read."""

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("evolve", {**EVOLVE_CFG, "engine": "both"}),
            ("t2", {**EVOLVE_CFG, "engine": "both"}),
            ("sweep", "fig5.json"),
        ],
        ids=["evolve", "t2", "sweep-fig5"],
    )
    def test_outputs_are_made_without_a_grid(
        self, tmp_path, monkeypatch, configs_dir, command, payload
    ):
        if isinstance(payload, str):
            payload = json.loads((configs_dir / payload).read_text())
        run = _rerunnable(tmp_path, command, payload)
        expected = run()
        _refuse_to_build_grids(monkeypatch)
        assert run() == expected
        assert len(expected) == (5 if command == "sweep" else 1)

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("evolve", {**EVOLVE_CFG, "engine": "both"}),
            ("t2", {**EVOLVE_CFG, "engine": "both"}),
            ("sweep", {"bath": PCPB, **GRID, "sweep": {"parameter": "temperature",
                                                       "values": [0.03, 0.2]}}),
            ("sweep", {**SWEEP_CFG, **GRID}),
        ],
        ids=["evolve", "t2", "sweep-temperature", "sweep-omega_l"],
    )
    def test_a_run_checks_one_grid(self, tmp_path, monkeypatch, command, payload):
        built, init = [], TimeGrid.__init__

        def counting(grid, *args):
            built.append(args)
            init(grid, *args)

        monkeypatch.setattr(TimeGrid, "__init__", counting)
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        assert len(built) == 1, built


def _rerunnable(tmp_path: Path, command: str, payload: dict):
    """A call that runs command on payload and returns the files it wrote, by name, then
    deletes them: the same --out every time, as the meta names it."""
    cfg = write_config(tmp_path, payload)
    where = tmp_path / "out"
    where.mkdir()

    def run() -> dict:
        out = where / f"out.{payload.get('format', 'csv')}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        written = {path.name: path.read_bytes() for path in where.iterdir()}
        for name in written:
            (where / name).unlink()
        return written

    return run


class TestNoReplayIsMaterialized:
    """The CLI reads every trajectory through blocks(), so no run holds a whole replay."""

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("evolve", {**EVOLVE_CFG, "engine": "both", "format": "csv"}),
            ("evolve", {**EVOLVE_CFG, "engine": "both", "format": "json"}),
            ("t2", {**EVOLVE_CFG, "engine": "both", "format": "csv"}),
            ("sweep", {**SWEEP_CFG, **GRID, "trajectories": {"write": True, "every": 3}}),
        ],
        ids=["evolve-csv", "evolve-json", "t2", "sweep-trajectory-files"],
    )
    def test_outputs_are_made_without_data(self, tmp_path, monkeypatch, command, payload):
        run = _rerunnable(tmp_path, command, payload)
        expected = run()

        def materialized(traj):
            raise AssertionError("a trajectory was materialized")

        monkeypatch.setattr(Trajectory, "data", property(materialized))
        assert run() == expected
        assert len(expected) == (3 if command == "sweep" else 1)


# (module, name, defining module): the names bench/tracing.py patches that resolve, each the
# function its callers look up at call time, so a wrapper installed there sees every call
TRACE_TARGETS = [
    ("dqdsim.cli", "run_sweep", "dqdsim.analysis"),
    ("dqdsim.cli", "spectral_density", "dqdsim.bath"),
    ("dqdsim.analysis", "decoherence_time_empirical", "dqdsim.analysis"),
    ("dqdsim.analysis", "chi_rate", "dqdsim.analytic"),
    ("dqdsim.analysis", "closed_form_trajectory", "dqdsim.analytic"),
    ("dqdsim.analysis", "build_tensor", "dqdsim.redfield"),
    ("dqdsim.analytic", "spectral_density", "dqdsim.bath"),
    ("dqdsim.analytic", "bose_occupation", "dqdsim.bath"),
    ("dqdsim.redfield", "spectral_density", "dqdsim.bath"),
    ("dqdsim.redfield", "bose_occupation", "dqdsim.bath"),
]


@pytest.mark.parametrize(
    "module, name, owner", TRACE_TARGETS, ids=[f"{m}.{n}" for m, n, _ in TRACE_TARGETS]
)
def test_trace_targets_resolve(module, name, owner):
    function = getattr(importlib.import_module(owner), name)
    assert callable(function)
    assert getattr(importlib.import_module(module), name) is function


class TestUsage:
    def test_missing_subcommand(self):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["integrate"]) == 2

    def test_spectral_has_no_engine_flag(self, tmp_path):
        cfg = write_config(
            tmp_path, {"bath": PCPB, "grid": {"omega_min": 0, "omega_max": 1, "count": 2}}
        )
        assert main(["spectral", "--config", cfg, "--engine", "both"]) == 2
