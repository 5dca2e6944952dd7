import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import opmlab
from opmlab import cli, geometry as geo, measure as msr
from opmlab.errors import ConfigError, RankDeficient


def run(*args):
    return cli.main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParsers:
    def test_parse_complex(self):
        assert cli.parse_complex("2,0") == 2.0
        assert cli.parse_complex("1.5,-0.25") == 1.5 - 0.25j
        assert cli.parse_complex("3") == 3.0
        with pytest.raises(ConfigError):
            cli.parse_complex("a,b")

    def test_parse_degrees(self):
        assert cli.parse_degrees("4..12:4") == (4, 8, 12)
        assert cli.parse_degrees("1..3") == (1, 2, 3)
        assert cli.parse_degrees("2,5,9") == (2, 5, 9)
        assert cli.parse_degrees([3, 7]) == (3, 7)
        with pytest.raises(ConfigError):
            cli.parse_degrees("5..1")
        with pytest.raises(ConfigError, match="degrees"):
            cli.load_config(None, {"degrees": [0, 3]})  # degrees start at 1

    def test_parse_geometry_flag(self):
        assert cli.parse_geometry_flag("circle") == {"kind": "circle"}
        assert cli.parse_geometry_flag("ellipse:2,1") == {"kind": "ellipse", "a": 2.0, "b": 1.0}
        with pytest.raises(ConfigError):
            cli.parse_geometry_flag("pentagon")


class TestConfig:
    def test_round_trip_identity(self):
        cfg = cli.load_config(None, {"geometry": {"kind": "ellipse", "a": 2.0, "b": 1.0}, "z0": [3.0, 0.5]})
        back = cli.config_from_json_obj(cfg.to_json_obj())
        assert back == cfg

    def test_validation_messages_name_fields(self):
        with pytest.raises(ConfigError, match="degrees"):
            cli.load_config(None, {"degrees": []})
        with pytest.raises(ConfigError, match="grid_size"):
            cli.load_config(None, {"degrees": [30], "grid_size": 100})
        with pytest.raises(ConfigError, match="gap_tol"):
            cli.load_config(None, {"gap_tol": 0.5})

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"grid_sizes": 512}))
        with pytest.raises(ConfigError, match="grid_sizes"):
            cli.load_config(str(p), {})

    def test_file_plus_flag_override(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 5, "grid_size": 256}))
        cfg = cli.load_config(str(p), {"grid_size": 512})
        assert cfg.seed == 5
        assert cfg.grid_size == 512


class TestOpmCommand:
    def test_circle_degree_five_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run("opm", "--geometry", "circle", "--z0", "2,0", "--degrees", "5", "--out", str(out)) == 0
        summary = (out / "summary.txt").read_text()
        objective = next(
            float(line.split("=")[1]) for line in summary.splitlines() if line.startswith("objective")
        )
        assert abs(objective - 1024.0) < 1.0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["certificate_gap"] <= 1e-6
        assert cert["status"] == "converged"
        mu = msr.load_csv(out / "measure.csv")
        assert mu.weights.sum() == pytest.approx(1.0)

    def test_run_log_appends_across_runs(self, tmp_path):
        out = tmp_path / "run"
        for n in ("2", "3"):
            assert run("opm", "--geometry", "circle", "--z0", "2,0", "--degrees", n, "--out", str(out)) == 0
        lines = (out / "run.log").read_text().splitlines()
        assert [line.split(":")[0] for line in lines] == ["opm degree=2", "opm degree=3"]

    def test_run_log_names_blas_pools_at_one_thread(self, tmp_path):
        out = tmp_path / "run"
        assert run("opm", "--geometry", "circle", "--z0", "2,0", "--degrees", "2", "--out", str(out)) == 0
        line = (out / "run.log").read_text().splitlines()[-1]
        pools = line.split(", blas=")[1].split()
        assert pools == ["none"] or all(p.endswith(":1") for p in pools), line

    def test_malformed_geometry_exits_2(self, tmp_path, capsys):
        code = run("opm", "--geometry", "ellipse:1,2", "--z0", "3,0", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "ellipse" in capsys.readouterr().err

    def test_boundary_point_exits_2(self, tmp_path, capsys):
        code = run("opm", "--geometry", "circle", "--z0", "1,0", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "exterior" in capsys.readouterr().err


class TestConvergenceCommand:
    def test_outputs_and_determinism(self, tmp_path):
        args = [
            "convergence",
            "--geometry", "ellipse:2,1",
            "--z0", "3,0",
            "--degrees", "4..8:4",
            "--grid", "330",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--out", str(out_a)) == 0
        assert run(*args, "--out", str(out_b)) == 0

        rows_a = read_csv(out_a / "convergence.csv")
        rows_b = read_csv(out_b / "convergence.csv")
        header = rows_a[0]
        assert header[:8] == [
            "n", "objective", "tilde_B", "growth_ratio",
            "moment_discrepancy", "gap", "iterations", "seconds",
        ]
        sec = header.index("seconds")
        strip = lambda rows: [[c for i, c in enumerate(r) if i != sec] for r in rows]
        assert strip(rows_a) == strip(rows_b)
        # per-run wall times land in the log, keeping the table reproducible
        assert (out_a / "plotdata.json").read_bytes() == (out_b / "plotdata.json").read_bytes()
        assert "seconds" not in json.loads((out_a / "plotdata.json").read_text())["series"]

    def test_growth_ratio_column_squares_to_tilde(self, tmp_path):
        out = tmp_path / "c"
        assert run(
            "convergence", "--geometry", "circle", "--z0", "2,0",
            "--degrees", "1..4", "--grid", "128", "--out", str(out),
        ) == 0
        rows = read_csv(out / "convergence.csv")
        cols = {name: i for i, name in enumerate(rows[0])}
        for r in rows[1:]:
            tilde = float(r[cols["tilde_B"]])
            ratio = float(r[cols["growth_ratio"]])
            assert ratio**2 == pytest.approx(tilde, rel=1e-10)
            assert tilde <= 1.0 + 1e-9


class TestBalayageCommand:
    def test_moment_file(self, tmp_path):
        out = tmp_path / "bal"
        assert run("balayage", "--geometry", "circle", "--z0", "2,0", "--out", str(out)) == 0
        rows = read_csv(out / "moments.csv")
        moments = {int(r[0]): complex(float(r[1]), float(r[2])) for r in rows[1:]}
        assert moments[2] == pytest.approx(0.25, abs=1e-12)
        mu = msr.load_csv(out / "balayage.csv")
        assert mu.weights.sum() == pytest.approx(1.0)

    def test_interval_refused(self, tmp_path):
        assert run("balayage", "--geometry", "interval", "--z0", "2,0", "--out", str(tmp_path / "x")) == 2

    def test_interior_point_refused(self, tmp_path):
        assert run("balayage", "--geometry", "circle", "--z0", "0.5,0", "--out", str(tmp_path / "x")) == 2


class TestFaberCommand:
    def test_ellipse_report(self, tmp_path):
        out = tmp_path / "fab"
        assert run("faber", "--geometry", "ellipse:2,1", "--degrees", "1..6", "--out", str(out)) == 0
        rep = json.loads((out / "faber_report.json").read_text())
        assert rep["capacity"] == 1.5
        assert max(rep["leading_coefficient_error"]) < 1e-12
        dev = rep["level_curve_deviation_r1.5"]
        assert dev == sorted(dev, reverse=True)  # geometric decay in n
        assert dev[-1] < 1e-4
        rows = read_csv(out / "faber_coefficients.csv")
        assert rows[0] == ["n", "k", "re", "im"]

    def test_interval_deviation_is_null(self, tmp_path):
        out = tmp_path / "fabi"
        assert run("faber", "--geometry", "interval", "--degrees", "1..4", "--out", str(out)) == 0
        rep = json.loads((out / "faber_report.json").read_text())
        assert rep["level_curve_deviation_r1.5"] == [None] * 4


class TestSzegoCommand:
    def test_report_and_exit(self, tmp_path):
        out = tmp_path / "sz"
        assert run("szego", "--z0", "2,0", "--seed", "3", "--out", str(out)) == 0
        rep = json.loads((out / "szego_report.json").read_text())
        assert rep["optimality"]["violations"] == []
        assert rep["poisson_evaluation"]["lambda_inf"] == pytest.approx(1.0, abs=1e-8)


class TestVerifyCommand:
    def test_exit_zero_and_deterministic_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("verify", "--seed", "0", "--out", str(out_a)) == 0
        assert run("verify", "--seed", "0", "--out", str(out_b)) == 0
        ra = (out_a / "verify_report.json").read_bytes()
        assert ra == (out_b / "verify_report.json").read_bytes()
        rep = json.loads(ra)
        assert rep["all_passed"] is True
        assert len(rep["checks"]) == 9

    def test_fault_injection_fails_the_suite(self, tmp_path, monkeypatch):
        """A wrong balayage weight must trip the reflection-identity check."""
        import opmlab.measure as om

        true_bal = om.balayage_point_mass

        def tampered(geom, z0, m):
            mu = true_bal(geom, z0, m)
            w = mu.weights.copy()
            w[0] += 0.01
            return om.DiscreteMeasure(mu.nodes, w / w.sum())

        monkeypatch.setattr("opmlab.verify.msr.balayage_point_mass", tampered)
        code = run("verify", "--seed", "0", "--out", str(tmp_path / "x"))
        assert code == 1


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    """A library error inside the solver maps to exit code 3."""

    def refuse(nodes, weights, n):
        raise RankDeficient("injected")

    monkeypatch.setattr("opmlab.bergman.factor_nodes", refuse)
    code = run(
        "opm", "--geometry", "interval", "--z0", "2,0",
        "--degrees", "55", "--grid", "1200", "--out", str(tmp_path / "x"),
    )
    assert code == 3


def test_atomic_writes_leave_no_temp_files(tmp_path):
    out = tmp_path / "bal"
    run("balayage", "--geometry", "circle", "--z0", "2,0", "--out", str(out))
    leftovers = [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []


def _subprocess_env(**extra):
    """The current environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(opmlab.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **extra)


def test_module_entry_point_runs_without_runtime_warning():
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "opmlab.cli", "verify", "--help"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# Both configs wrote different bytes under OPENBLAS_NUM_THREADS=1 and =2
# while the BLAS pools ran at their default thread counts.
@pytest.mark.parametrize(
    "argv, files",
    [
        (
            ["opm", "--geometry", "interval", "--z0", "2,0", "--degrees", "15", "--grid", "400"],
            ["measure.csv", "certificate.json", "summary.txt"],
        ),
        (
            ["convergence", "--geometry", "interval", "--z0", "2,0", "--degrees", "4..12:4", "--grid", "400"],
            ["plotdata.json"],
        ),
    ],
    ids=["opm", "convergence"],
)
def test_outputs_identical_across_blas_thread_settings(tmp_path, argv, files):
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "opmlab.cli", *argv, "--out", str(tmp_path / threads)],
            env=_subprocess_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    for name in files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
