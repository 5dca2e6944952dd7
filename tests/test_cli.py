import csv
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import opmlab
from opmlab import bergman as brg, cli, geometry as geo, measure as msr, szego, verify
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
        """certificate.json's geometry record reads back as a config geometry."""
        for g in (
            geo.unit_circle(),
            geo.interval(),
            geo.ellipse(2.0, 1.0),
            geo.laurent_curve(1.1, 0.3 - 0.2j, (0.0, 0.12, 0.04j)),
        ):
            obj = json.loads(json.dumps(cli.geometry_to_obj(g)))
            assert cli.geometry_from_obj(obj) == g

    def test_validation_messages_name_fields(self):
        with pytest.raises(ConfigError, match="degrees"):
            cli.load_config(None, {"degrees": []})
        with pytest.raises(ConfigError, match="grid_size"):
            cli.load_config(None, {"degrees": [30], "grid_size": 100})
        with pytest.raises(ConfigError, match="gap_tol"):
            cli.load_config(None, {"gap_tol": 0.5})
        with pytest.raises(ConfigError, match="z0"):
            cli.load_config(None, {"z0": "nan"})
        # integer fields refuse fractional numbers and booleans rather than truncate them
        for field, value in (
            ("degrees", [2.7, 3.9]),
            ("degrees", [True, 3]),
            ("grid_size", 700.9),
            ("max_iters", 20000.5),
            ("szego_grid", True),
            ("szego_trials", 200.5),
            ("seed", True),
            ("seed", 1.5),
        ):
            with pytest.raises(ConfigError, match=field):
                cli.load_config(None, {field: value})

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

    @pytest.mark.parametrize("axes", [{"a": [2], "b": 1}, {"a": 2, "b": "one"}], ids=["list", "string"])
    def test_non_numeric_ellipse_axis_in_config_exits_2(self, tmp_path, capsys, axes):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"geometry": {"kind": "ellipse", **axes}}))
        code = run("opm", "--config", str(p), "--out", str(tmp_path / "x"))
        assert code == 2
        field = "a" if isinstance(axes["a"], list) else "b"
        assert f"geometry.{field}" in capsys.readouterr().err

    def test_boundary_point_exits_2(self, tmp_path, capsys):
        code = run("opm", "--geometry", "circle", "--z0", "1,0", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "exterior" in capsys.readouterr().err

    def test_negative_real_part_is_passed_with_equals(self, tmp_path):
        """argparse reads "-2,0" as an option, so a negative real part is written --z0=-2,0.

        The grid is symmetric about 0, so x0 = -2 has the objective of x0 = 2.
        """
        base = ["opm", "--geometry", "interval", "--degrees", "15", "--grid", "2000"]
        with pytest.raises(SystemExit) as exc:
            run(*base, "--z0", "-2,0", "--out", str(tmp_path / "x"))
        assert exc.value.code == 2
        assert run(*base, "--z0=-2,0", "--out", str(tmp_path / "neg")) == 0
        assert run(*base, "--z0", "2,0", "--out", str(tmp_path / "pos")) == 0
        neg, pos = (json.loads((tmp_path / d / "certificate.json").read_text()) for d in ("neg", "pos"))
        assert neg["status"] == pos["status"] == "converged"
        assert abs(neg["objective"] / pos["objective"] - 1.0) <= 1e-13


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

    def test_nan_lambda_fails_and_is_written_as_null(self, tmp_path, monkeypatch):
        """One NaN trial lambda fails the sweep, makes max_lambda NaN, and reaches the
        report as null, not as a bare NaN token."""
        true_fn = szego.szego_function
        calls = itertools.count(1)

        def nan_on_seventh_call(f, z):  # call 1 is the Poisson density, call 7 trial 5
            ev = true_fn(f, z)
            return dataclasses.replace(ev, lambda_inf=float("nan")) if next(calls) == 7 else ev

        monkeypatch.setattr("opmlab.szego.szego_function", nan_on_seventh_call)
        out = tmp_path / "sz"
        assert run("szego", "--z0", "2,0", "--seed", "0", "--out", str(out)) == 1
        text = (out / "szego_report.json").read_text()
        assert "NaN" not in text
        rep = json.loads(text)["optimality"]
        assert rep["max_lambda"] is None
        assert rep["violations"] == [{"trial": 5, "kind": "exceeds_poisson", "lambda": None}]

    def test_write_json_refuses_non_finite_numbers(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_json(str(tmp_path / "x.json"), {"x": float("nan")})


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

    def test_faber_decay_check_peak_memory_below_1mb(self):
        """Building its Laurent curve allocates nothing quadratic in a sample count."""
        verify.check_faber_decay()  # first call pays any one-time imports
        tracemalloc.start()
        try:
            assert verify.check_faber_decay().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_fault_injection_fails_the_suite(self, tmp_path, monkeypatch):
        """A wrong balayage weight, or one NaN Bergman value or Szego lambda, must fail the suite."""
        import opmlab.measure as om

        true_bal = om.balayage_point_mass

        def tampered(geom, z0, m):
            mu = true_bal(geom, z0, m)
            w = mu.weights.copy()
            w[0] += 0.01
            return om.DiscreteMeasure(mu.nodes, w / w.sum())

        def nan_on_seventh_call(fn, spoil):
            def make():
                calls = itertools.count(1)
                return lambda *a, **kw: spoil(fn(*a, **kw)) if next(calls) == 7 else fn(*a, **kw)

            return make

        faults = [
            ("opmlab.verify.msr.balayage_point_mass", lambda: tampered, []),
            (
                "opmlab.verify.bergman.bergman_value",
                nan_on_seventh_call(brg.bergman_value, lambda v: float("nan")),
                [verify.check_christinv_poisson, lambda: verify.check_christinv_random(0)],
            ),
            (
                "opmlab.szego.szego_function",
                nan_on_seventh_call(
                    szego.szego_function, lambda e: dataclasses.replace(e, lambda_inf=float("nan"))
                ),
                [lambda: szego.verify_circle_optimality(0.5, 200, seed=0)],
            ),
        ]
        for k, (target, make, checks) in enumerate(faults):
            for check in checks:
                with monkeypatch.context() as mp:
                    mp.setattr(target, make())
                    assert not check().passed, target
            with monkeypatch.context() as mp:
                mp.setattr(target, make())
                assert run("verify", "--seed", "0", "--out", str(tmp_path / str(k))) == 1, target
            text = (tmp_path / str(k) / "verify_report.json").read_text()
            assert "NaN" not in text  # a non-finite observed is written as null


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    """A library error inside the solver maps to exit code 3."""

    def refuse(*args):
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


def test_module_entry_point_runs_without_runtime_warning(tmp_path):
    """numpy's ComplexWarning (a dropped imaginary part) is a RuntimeWarning too.

    The segment at z0 = i mixes a real basis with complex kernel values.
    """
    for argv in (
        ["verify", "--help"],
        ["verify", "--seed", "0", "--out", str(tmp_path / "verify")],
        ["opm", "--geometry", "interval", "--z0", "0,1", "--degrees", "15", "--grid", "400",
         "--out", str(tmp_path / "opm")],
    ):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "opmlab.cli", *argv],
            env=_subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, (argv, proc.stderr)


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
        (
            ["opm", "--geometry", "interval", "--z0", "0,1", "--degrees", "15", "--grid", "400"],
            ["measure.csv", "certificate.json", "summary.txt"],
        ),
    ],
    ids=["opm", "convergence", "opm-imaginary-z0"],
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
