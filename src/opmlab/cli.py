"""Configuration-driven experiment runner.

Subcommands: opm, convergence, balayage, faber, szego, verify.  A run is
described by an ExperimentConfig assembled from defaults, an optional JSON
config file (--config), and command-line flag overrides.  Exit codes: 0
success, 1 verification failure, 2 config error, 3 numerical failure.

Output hygiene: every CSV/JSON artifact is written atomically
(write-to-temp, rename) and is byte-deterministic for a fixed config and
seed, except for the wall-time `seconds` column of the convergence table,
which records real measurements; timings are duplicated to run.log, whose
lines also name the loaded BLAS libraries and their thread counts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import _blas, geometry as geo, measure as msr, opm, szego, verify
from .errors import (
    ConfigError,
    CurveRequired,
    DomainViolation,
    InsideDomain,
    InvalidGeometry,
    OpmlabError,
)
from .measure import _atomic_write_text, _json_num

_CONFIG_ERRORS = (
    ConfigError,
    InvalidGeometry,
    InsideDomain,
    DomainViolation,
    CurveRequired,
    ValueError,
)

_DEFAULTS = {
    "geometry": {"kind": "circle"},
    "z0": [2.0, 0.0],
    "degrees": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    "grid_size": 512,
    "gap_tol": 1e-6,
    "max_iters": 20000,
    "szego_grid": 4096,
    "szego_trials": 200,
    "seed": 0,
    "output_dir": "out",
}


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: geo.CurveGeometry
    z0: complex
    degrees: tuple[int, ...]
    grid_size: int
    gap_tol: float
    max_iters: int
    szego_grid: int
    szego_trials: int
    seed: int
    output_dir: str

    def validate(self) -> "ExperimentConfig":
        if not np.isfinite(self.z0):
            raise ConfigError(f"z0: must be finite, got {self.z0!r}")
        if not self.degrees:
            raise ConfigError("degrees: list must be nonempty")
        if any(n < 1 for n in self.degrees):
            raise ConfigError(f"degrees: each degree must be >= 1, got {list(self.degrees)}")
        if list(self.degrees) != sorted(set(self.degrees)):
            raise ConfigError(f"degrees: must be strictly ascending, got {list(self.degrees)}")
        needed = 20 * (max(self.degrees) + 1)
        if self.grid_size < needed:
            raise ConfigError(
                f"grid_size: need m >= 20*(max degree + 1) = {needed}, got {self.grid_size}"
            )
        if not (0.0 < self.gap_tol <= 1e-2):
            raise ConfigError(f"gap_tol: must lie in (0, 1e-2], got {self.gap_tol!r}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters: must be >= 1, got {self.max_iters}")
        if self.szego_grid < 64:
            raise ConfigError(f"szego_grid: must be >= 64, got {self.szego_grid}")
        if self.szego_trials < 1:
            raise ConfigError(f"szego_trials: must be >= 1, got {self.szego_trials}")
        return self


def geometry_to_obj(g: geo.CurveGeometry) -> dict:
    if g.kind == "circle":
        return {"kind": "circle"}
    if g.kind == "interval":
        return {"kind": "interval"}
    if g.kind == "ellipse":
        return {"kind": "ellipse", "a": g.axis_a, "b": g.axis_b}
    return {
        "kind": "laurent",
        "capacity": g.lead,
        "center": [complex(g.center).real, complex(g.center).imag],
        "tail": [[complex(c).real, complex(c).imag] for c in g.tail],
    }


def geometry_from_obj(obj) -> geo.CurveGeometry:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("geometry: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "circle":
        return geo.unit_circle()
    if kind == "interval":
        return geo.interval()
    if kind == "ellipse":
        axes = []
        for key in ("a", "b"):
            if key not in obj:
                raise ConfigError(f"geometry.{key}: required for an ellipse")
            try:
                axes.append(float(obj[key]))
            except (TypeError, ValueError):
                raise ConfigError(f"geometry.{key}: expected a number, got {obj[key]!r}") from None
        return geo.ellipse(*axes)
    if kind == "laurent":
        try:
            capacity = float(obj["capacity"])
            center = _complex_from_obj(obj.get("center", 0.0), "geometry.center")
            tail = tuple(
                _complex_from_obj(c, "geometry.tail") for c in obj.get("tail", [])
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"geometry: {exc}") from None
        return geo.laurent_curve(capacity, center, tail)
    raise ConfigError(f"geometry.kind: unknown kind {kind!r}")


def parse_geometry_flag(text: str) -> dict:
    text = text.strip()
    if text in ("circle", "interval"):
        return {"kind": text}
    if text.startswith("ellipse:"):
        parts = text[len("ellipse:"):].split(",")
        if len(parts) != 2:
            raise ConfigError(f"geometry: expected 'ellipse:A,B', got {text!r}")
        try:
            return {"kind": "ellipse", "a": float(parts[0]), "b": float(parts[1])}
        except ValueError:
            raise ConfigError(f"geometry: non-numeric ellipse axes in {text!r}") from None
    raise ConfigError(
        f"geometry: unknown geometry {text!r} (use circle, interval, or ellipse:A,B)"
    )


def _complex_from_obj(obj, label: str) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, str):
        return parse_complex(obj, label)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    raise ConfigError(f"{label}: expected number, 're,im' string, or [re, im] pair")


def _int_from_obj(obj, label: str) -> int:
    """An integer field; booleans and fractional numbers are refused, not truncated."""
    if isinstance(obj, bool) or (isinstance(obj, float) and not obj.is_integer()):
        raise ConfigError(f"{label}: expected an integer, got {obj!r}")
    try:
        return int(obj)
    except (TypeError, ValueError):
        raise ConfigError(f"{label}: expected an integer, got {obj!r}") from None


def parse_complex(text: str, label: str = "z0") -> complex:
    parts = str(text).strip().split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"{label}: expected 're' or 're,im', got {text!r}")


def parse_degrees(spec, label: str = "degrees") -> tuple[int, ...]:
    if isinstance(spec, (list, tuple)):
        return tuple(_int_from_obj(x, label) for x in spec)
    text = str(spec).strip()
    if ".." in text:
        head, _, tail = text.partition("..")
        tail, _, step_text = tail.partition(":")
        try:
            lo, hi = int(head), int(tail)
            step = int(step_text) if step_text else 1
        except ValueError:
            raise ConfigError(f"{label}: expected 'a..b[:step]', got {text!r}") from None
        if step < 1 or hi < lo:
            raise ConfigError(f"{label}: empty or descending range {text!r}")
        return tuple(range(lo, hi + 1, step))
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"{label}: expected integers, got {text!r}") from None


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    raw = dict(_DEFAULTS)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                file_obj = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {path!r}: {exc}") from None
        if not isinstance(file_obj, dict):
            raise ConfigError("config: top level must be a JSON object")
        for key, value in file_obj.items():
            if key not in _DEFAULTS:
                raise ConfigError(f"config: unknown field {key!r}")
            raw[key] = value
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    geometry = geometry_from_obj(raw["geometry"])
    try:
        cfg = ExperimentConfig(
            geometry=geometry,
            z0=_complex_from_obj(raw["z0"], "z0"),
            degrees=parse_degrees(raw["degrees"]),
            grid_size=_int_from_obj(raw["grid_size"], "grid_size"),
            gap_tol=float(raw["gap_tol"]),
            max_iters=_int_from_obj(raw["max_iters"], "max_iters"),
            szego_grid=_int_from_obj(raw["szego_grid"], "szego_grid"),
            szego_trials=_int_from_obj(raw["szego_trials"], "szego_trials"),
            seed=_int_from_obj(raw["seed"], "seed"),
            output_dir=str(raw["output_dir"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from None
    return cfg.validate()


# ---------------------------------------------------------------------------
# output helpers


def write_json(path: str, obj) -> None:
    """Strict JSON: writers map non-finite numbers to null (`_json_num`), and a
    NaN or inf that slips through raises ValueError instead of being written."""
    _atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write_text(path, buf.getvalue())


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _append_run_log(out: str, lines: list[str]) -> None:
    """Append lines to run.log, each tagged with the loaded BLAS pools and their threads."""
    blas = _blas.describe()
    with open(os.path.join(out, "run.log"), "a", encoding="utf-8") as fh:
        fh.writelines(f"{line}, blas={blas}\n" for line in lines)


def _require_exterior(cfg: ExperimentConfig) -> complex:
    phi = geo.exterior_map(cfg.geometry, cfg.z0)
    if abs(phi) <= 1.0 + 1e-9:
        raise ConfigError("z0: must lie strictly exterior to the boundary")
    return phi


# ---------------------------------------------------------------------------
# subcommands


def cmd_opm(cfg: ExperimentConfig) -> int:
    _require_exterior(cfg)
    n = cfg.degrees[-1]
    grid = msr.discretize_boundary(cfg.geometry, cfg.grid_size)
    t0 = time.perf_counter()
    sol = opm.solve_opm(grid, cfg.z0, n, gap_tol=cfg.gap_tol, max_iters=cfg.max_iters)
    dt = time.perf_counter() - t0

    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    msr.save_csv(sol.measure, os.path.join(out, "measure.csv"))
    write_json(
        os.path.join(out, "certificate.json"),
        {
            "degree": sol.degree,
            "z0": [cfg.z0.real, cfg.z0.imag],
            "geometry": geometry_to_obj(cfg.geometry),
            "grid_size": sol.grid_size,
            "gap_tol": cfg.gap_tol,
            "objective": _json_num(sol.objective),
            "certificate_gap": _json_num(sol.certificate_gap),
            "iterations": sol.iterations,
            "status": sol.status,
            "support_size": int(sol.support.size),
            "support_indices": [int(i) for i in sol.support],
        },
    )
    summary = "\n".join(
        [
            "command = opm",
            f"geometry = {geometry_to_obj(cfg.geometry)}",
            f"z0 = {cfg.z0!r}",
            f"degree = {n}",
            f"grid_size = {cfg.grid_size}",
            f"objective = {sol.objective!r}",
            f"certificate_gap = {sol.certificate_gap!r}",
            f"iterations = {sol.iterations}",
            f"status = {sol.status}",
            f"support_size = {sol.support.size}",
        ]
    )
    _atomic_write_text(os.path.join(out, "summary.txt"), summary + "\n")
    _append_run_log(out, [f"opm degree={n}: {dt:.3f} s, status={sol.status}"])
    print(summary)
    if sol.status != "converged":
        print(f"solver did not converge: status={sol.status}", file=sys.stderr)
        return 3
    return 0


def cmd_convergence(cfg: ExperimentConfig) -> int:
    _require_exterior(cfg)
    rows = opm.convergence_study(
        cfg.geometry,
        cfg.z0,
        list(cfg.degrees),
        cfg.grid_size,
        gap_tol=cfg.gap_tol,
        max_iters=cfg.max_iters,
    )
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    header = [
        "n",
        "objective",
        "tilde_B",
        "growth_ratio",
        "moment_discrepancy",
        "gap",
        "iterations",
        "seconds",
        "status",
    ]
    csv_rows = [
        [
            str(r.n),
            _cell(r.objective),
            _cell(r.tilde_bergman),
            _cell(r.growth_ratio),
            _cell(r.moment_discrepancy),
            _cell(r.gap),
            str(r.iterations),
            _cell(r.seconds),
            r.status,
        ]
        for r in rows
    ]
    write_csv(os.path.join(out, "convergence.csv"), header, csv_rows)
    write_json(
        os.path.join(out, "plotdata.json"),
        {
            "x_label": "n",
            "x": [r.n for r in rows],
            "series": {
                "objective": [_json_num(r.objective) for r in rows],
                "tilde_B": [_json_num(r.tilde_bergman) for r in rows],
                "growth_ratio": [_json_num(r.growth_ratio) for r in rows],
                "moment_discrepancy": [_json_num(r.moment_discrepancy) for r in rows],
                "gap": [_json_num(r.gap) for r in rows],
                "iterations": [r.iterations for r in rows],
            },
            "status": [r.status for r in rows],
        },
    )
    _append_run_log(out, [f"n={r.n}: {r.seconds:.3f} s, status={r.status}" for r in rows])
    for r in rows:
        print(
            f"n={r.n} objective={r.objective:.6g} tilde_B={r.tilde_bergman:.8f} "
            f"gap={r.gap:.2e} status={r.status}"
        )
    return 0


def cmd_balayage(cfg: ExperimentConfig) -> int:
    mu = msr.balayage_point_mass(cfg.geometry, cfg.z0, cfg.grid_size)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    msr.save_csv(mu, os.path.join(out, "balayage.csv"))
    moments = msr.holomorphic_moments(mu, 8)
    write_csv(
        os.path.join(out, "moments.csv"),
        ["k", "moment_re", "moment_im"],
        [[str(k), _cell(moments[k].real), _cell(moments[k].imag)] for k in range(1, 9)],
    )
    print(f"balayage of point mass at {cfg.z0!r}: {len(mu)} nodes, mass {mu.weights.sum()!r}")
    for k in range(1, 9):
        print(f"moment k={k}: {complex(moments[k])!r}")
    return 0


def cmd_faber(cfg: ExperimentConfig) -> int:
    n_max = max(cfg.degrees)
    table = geo.faber_polynomials(cfg.geometry, n_max)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    rows = []
    for n in cfg.degrees:
        coeffs = table.coefficients(n)
        for k, c in enumerate(coeffs):
            rows.append([str(n), str(k), _cell(c.real), _cell(c.imag)])
    write_csv(os.path.join(out, "faber_coefficients.csv"), ["n", "k", "re", "im"], rows)
    report = {
        "capacity": cfg.geometry.capacity,
        "degrees": list(cfg.degrees),
        "leading_coefficient_error": [
            _json_num(
                abs(abs(table.coefficients(n)[n]) - cfg.geometry.capacity ** (-n))
                * cfg.geometry.capacity**n
            )
            for n in cfg.degrees
        ],
        "level_curve_deviation_r1.5": [
            _json_num(geo.faber_asymptotic_deviation(cfg.geometry, n, 1.5))
            if cfg.geometry.is_curve
            else None
            for n in cfg.degrees
        ],
    }
    write_json(os.path.join(out, "faber_report.json"), report)
    print(f"faber table written for degrees {list(cfg.degrees)}")
    return 0


def cmd_szego(cfg: ExperimentConfig) -> int:
    phi = _require_exterior(cfg)
    w0 = 1.0 / np.conj(phi)
    report = szego.verify_circle_optimality(
        complex(w0), cfg.szego_trials, cfg.seed, m=cfg.szego_grid
    )
    pois = szego.poisson_density(complex(w0), cfg.szego_grid)
    evaluation = szego.szego_function(pois, complex(w0))
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    write_json(
        os.path.join(out, "szego_report.json"),
        {
            "w0": [w0.real, w0.imag],
            "optimality": report.to_json_obj(),
            "poisson_evaluation": evaluation.to_json_obj(),
        },
    )
    print(
        f"szego at w0={complex(w0):.6f}: poisson lambda {report.poisson_lambda!r}, "
        f"max random lambda {report.max_lambda!r}, violations {len(report.violations)}"
    )
    return 0 if report.passed else 1


def cmd_verify(cfg: ExperimentConfig) -> int:
    results = verify.run_all(cfg.seed, trials=cfg.szego_trials, szego_grid=cfg.szego_grid)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    write_json(
        os.path.join(out, "verify_report.json"),
        {
            "seed": cfg.seed,
            "all_passed": verify.all_passed(results),
            "checks": [r.to_json_obj() for r in results],
        },
    )
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        if not r.asserted:
            tag = "INFO"
        print(f"[{tag}] {r.name}: observed {r.observed:.3e} (tol {r.tolerance:.1e})")
    return 0 if verify.all_passed(results) else 1


# ---------------------------------------------------------------------------
# entry point


def _add_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a JSON config file")
    p.add_argument("--geometry", help="circle | interval | ellipse:A,B")
    p.add_argument(
        "--z0", help="prediction point 're' or 're,im'; write a negative real part as --z0=-2,0"
    )
    p.add_argument("--degrees", help="'a..b[:step]' range or comma list")
    p.add_argument("--grid", type=int, help="boundary grid size m")
    p.add_argument("--gap-tol", type=float, help="certificate gap tolerance")
    p.add_argument("--max-iters", type=int, help="solver iteration budget")
    p.add_argument("--szego-grid", type=int, help="angular grid for circle densities")
    p.add_argument("--trials", type=int, help="random-density trial count")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--out", help="output directory")


_COMMANDS = {
    "opm": cmd_opm,
    "convergence": cmd_convergence,
    "balayage": cmd_balayage,
    "faber": cmd_faber,
    "szego": cmd_szego,
    "verify": cmd_verify,
}


_PARSER = argparse.ArgumentParser(
    prog="opmlab",
    description="optimal prediction measures: experiments and verification",
)
_SUBPARSERS = _PARSER.add_subparsers(dest="command", required=True)
for _name in _COMMANDS:
    _add_flags(_SUBPARSERS.add_parser(_name))


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        overrides = {
            "geometry": parse_geometry_flag(args.geometry) if args.geometry else None,
            "z0": args.z0,
            "degrees": args.degrees,
            "grid_size": args.grid,
            "gap_tol": args.gap_tol,
            "max_iters": args.max_iters,
            "szego_grid": args.szego_grid,
            "szego_trials": args.trials,
            "seed": args.seed,
            "output_dir": args.out,
        }
        cfg = load_config(args.config, overrides)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](cfg)
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OpmlabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
