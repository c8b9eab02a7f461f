import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

import oracle
from dqdsim import cli
from dqdsim.cli import main


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
        ],
    )
    def test_invalid_grid_is_usage_error(self, tmp_path, grid):
        cfg = write_config(tmp_path, {"bath": PCPB, "grid": grid})
        assert main(["spectral", "--config", cfg]) == 2


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


INF = float("inf")
NAN = float("nan")


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

        def record(fmt, out, meta, columns, rows, max_abs_diff=None):
            rows = list(rows)
            tables.append((fmt, out, meta, columns, rows, max_abs_diff))
            render(fmt, out, meta, columns, rows, max_abs_diff)

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

        def rows():
            nonlocal made
            for i in range(total):
                made += 1
                yield (float(i), 0.125)

        writes = []  # (rows made so far, rows in this write)

        class Handle:
            def write(self, text):
                writes.append((made, text.count("0.125")))

        monkeypatch.setattr(sys, "stdout", Handle())
        cli._emit_table(fmt, None, {}, ("t", "x"), rows())
        body = [(made_then, n) for made_then, n in writes if n]
        assert sum(n for _, n in body) == total
        assert body[0][0] < total  # the first rows are out before the last one is made
        assert max(n for _, n in body) < total


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
