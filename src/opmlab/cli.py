"""Configuration-driven experiment runner.

Subcommands: opm, convergence, balayage, faber, szego, verify.  A run is
described by an ExperimentConfig assembled from defaults, an optional JSON
config file (--config), and command-line flag overrides.  Exit codes: 0
success, 1 verification failure, 2 config error, 3 numerical failure.

Output hygiene: every CSV/JSON artifact is written atomically
(write-to-temp, rename) and is byte-deterministic for a fixed config and
seed, except for the wall-time `seconds` column of the convergence table,
which records real measurements; timings are duplicated to run.log, whose
lines also name the loaded BLAS libraries and their thread counts.  Each
format has one rule: every JSON file goes through `_json` (a dataclass as
its fields, complex as [re, im], non-finite as null), every CSV cell
through `measure.write_csv` (integers in decimal, floats by repr).  `opm`
builds one record, which certificate.json holds and summary.txt mirrors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, NamedTuple

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
from .measure import _atomic_write_text, write_csv

_CONFIG_ERRORS = (
    ConfigError,
    InvalidGeometry,
    InsideDomain,
    DomainViolation,
    CurveRequired,
    ValueError,
)

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


def geometry_from_obj(obj, label: str = "geometry") -> geo.CurveGeometry:
    """A geometry from its JSON object, or from the `--geometry` flag's text."""
    if isinstance(obj, str):
        obj = parse_geometry_flag(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{label}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "circle":
        return geo.unit_circle()
    if kind == "interval":
        return geo.interval()
    if kind == "ellipse":
        axes = []
        for key in ("a", "b"):
            if key not in obj:
                raise ConfigError(f"{label}.{key}: required for an ellipse")
            axes.append(_float_from_obj(obj[key], f"{label}.{key}"))
        return geo.ellipse(*axes)
    if kind == "laurent":
        try:
            capacity = _float_from_obj(obj.get("capacity"), f"{label}.capacity")
            center = _complex_from_obj(obj.get("center", 0.0), f"{label}.center")
            tail = tuple(_complex_from_obj(c, f"{label}.tail") for c in obj.get("tail", []))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{label}: {exc}") from None
        return geo.laurent_curve(capacity, center, tail)
    raise ConfigError(f"{label}.kind: unknown kind {kind!r}")


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
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(obj)
    if isinstance(obj, str):
        return parse_complex(obj, label)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(_float_from_obj(obj[0], label), _float_from_obj(obj[1], label))
    raise ConfigError(f"{label}: expected number, 're,im' string, or [re, im] pair")


def _float_from_obj(obj, label: str) -> float:
    """A real field; booleans are refused, not read as 0 or 1."""
    if not isinstance(obj, bool):
        try:
            return float(obj)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{label}: expected a number, got {obj!r}")


def _int_from_obj(obj, label: str) -> int:
    """An integer field; booleans and fractional numbers are refused, not truncated."""
    if isinstance(obj, bool) or (isinstance(obj, float) and not obj.is_integer()):
        raise ConfigError(f"{label}: expected an integer, got {obj!r}")
    try:
        return int(obj)
    except (TypeError, ValueError):
        raise ConfigError(f"{label}: expected an integer, got {obj!r}") from None


def _str_from_obj(obj, label: str) -> str:
    """A text field; an empty string, or a JSON number or boolean, is refused, not
    turned into a path."""
    if isinstance(obj, str) and obj:
        return obj
    raise ConfigError(f"{label}: expected a nonempty string, got {obj!r}")


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


class _Field(NamedTuple):
    """One config field: its default as JSON gives it, the reader(value, label)
    that its JSON value and its flag's text both go through, its flag and help."""

    default: object
    read: Callable
    flag: str
    help: str


_FIELDS = {
    "geometry": _Field({"kind": "circle"}, geometry_from_obj, "--geometry",
                       "circle | interval | ellipse:A,B"),
    "z0": _Field([2.0, 0.0], _complex_from_obj, "--z0",
                 "prediction point 're' or 're,im'; write a negative real part as --z0=-2,0"),
    "degrees": _Field(list(range(1, 11)), parse_degrees, "--degrees",
                      "'a..b[:step]' range or comma list"),
    "grid_size": _Field(512, _int_from_obj, "--grid", "boundary grid size m"),
    "gap_tol": _Field(1e-6, _float_from_obj, "--gap-tol", "certificate gap tolerance"),
    "max_iters": _Field(20000, _int_from_obj, "--max-iters", "solver iteration budget"),
    "szego_grid": _Field(4096, _int_from_obj, "--szego-grid", "angular grid for circle densities"),
    "szego_trials": _Field(200, _int_from_obj, "--trials", "random-density trial count"),
    "seed": _Field(0, _int_from_obj, "--seed", "base RNG seed"),
    "output_dir": _Field("out", _str_from_obj, "--out", "output directory"),
}


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """Defaults, then the JSON file at `path`, then the non-None `overrides`,
    each field read by its `_FIELDS` reader."""
    raw = {key: field.default for key, field in _FIELDS.items()}
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
            if key not in _FIELDS:
                raise ConfigError(f"config: unknown field {key!r}")
            raw[key] = value
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    try:
        cfg = ExperimentConfig(**{key: field.read(raw[key], key) for key, field in _FIELDS.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from None
    return cfg.validate()


# ---------------------------------------------------------------------------
# output helpers


def _json_num(x) -> float | None:
    """x as a float, or None (null) when it is not finite."""
    x = float(x)
    return x if np.isfinite(x) else None


def _json(obj):
    """obj as plain JSON values: a dataclass as the dict of its fields; dicts,
    lists, tuples and arrays element by element; numpy scalars as Python
    scalars; a complex number as [re, im]; a non-finite float as None (null).
    Anything else is returned as is, for json to write or refuse."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _json_num(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_json_num(obj.real), _json_num(obj.imag)]
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: _json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_json(x) for x in obj]
    return obj


def write_json(path: str, obj) -> None:
    """Write obj, mapped by `_json`, as strict sorted JSON, atomically.  A value
    the mapping leaves unreadable to json (a set, say) raises, and so would a
    NaN or inf (allow_nan=False), so no bare NaN or Infinity token is written."""
    text = json.dumps(_json(obj), sort_keys=True, indent=2, allow_nan=False)
    _atomic_write_text(path, text + "\n")


def _append_run_log(out: str, lines: list[str]) -> None:
    """Append lines to run.log, each tagged with the loaded BLAS pools and their threads."""
    blas = _blas.describe()
    with open(os.path.join(out, "run.log"), "a", encoding="utf-8") as fh:
        fh.writelines(f"{line}, blas={blas}\n" for line in lines)


# ---------------------------------------------------------------------------
# subcommands


def cmd_opm(cfg: ExperimentConfig) -> int:
    n = cfg.degrees[-1]
    grid = msr.discretize_boundary(cfg.geometry, cfg.grid_size)
    t0 = time.perf_counter()
    start = msr.balayage_point_mass(cfg.geometry, cfg.z0, cfg.grid_size).weights  # as in `convergence`
    sol = opm.solve_opm(grid, cfg.z0, n, gap_tol=cfg.gap_tol, max_iters=cfg.max_iters, start=start)
    dt = time.perf_counter() - t0

    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    msr.save_csv(sol.measure, os.path.join(out, "measure.csv"))
    record = {  # summary.txt mirrors all keys but the last two
        "geometry": geometry_to_obj(cfg.geometry),
        "z0": cfg.z0,
        "degree": sol.degree,
        "grid_size": sol.grid_size,
        "objective": sol.objective,
        "certificate_gap": sol.certificate_gap,
        "iterations": sol.iterations,
        "status": sol.status,
        "support_size": sol.support.size,
        "gap_tol": cfg.gap_tol,
        "support_indices": sol.support,
    }
    write_json(os.path.join(out, "certificate.json"), record)
    summary = "\n".join(["command = opm"] + [f"{k} = {record[k]}" for k in list(record)[:-2]])
    _atomic_write_text(os.path.join(out, "summary.txt"), summary + "\n")
    _append_run_log(
        out, [f"opm degree={n}: {dt:.3f} s, status={sol.status}, iterations={sol.iterations}"]
    )
    print(summary)
    if sol.status != "converged":
        print(f"solver did not converge: status={sol.status}", file=sys.stderr)
        return 3
    return 0


# Each convergence column and the ConvergenceRow attribute it reads, in
# convergence.csv's order; plotdata.json's series are all but n, seconds and status.
_COLUMNS = {
    "n": "n",
    "objective": "objective",
    "tilde_B": "tilde_bergman",
    "growth_ratio": "growth_ratio",
    "moment_discrepancy": "moment_discrepancy",
    "gap": "gap",
    "iterations": "iterations",
    "seconds": "seconds",
    "status": "status",
}


def cmd_convergence(cfg: ExperimentConfig) -> int:
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
    table = {name: [getattr(r, attr) for r in rows] for name, attr in _COLUMNS.items()}
    write_csv(os.path.join(out, "convergence.csv"), list(table), zip(*table.values()))
    write_json(
        os.path.join(out, "plotdata.json"),
        {
            "x_label": "n",
            "x": table["n"],
            "series": {
                name: col for name, col in table.items() if name not in ("n", "seconds", "status")
            },
            "status": table["status"],
        },
    )
    _append_run_log(
        out, [f"n={r.n}: {r.seconds:.3f} s, status={r.status}, iterations={r.iterations}" for r in rows]
    )
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
        [[k, moments[k].real, moments[k].imag] for k in range(1, 9)],
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
            rows.append([n, k, c.real, c.imag])
    write_csv(os.path.join(out, "faber_coefficients.csv"), ["n", "k", "re", "im"], rows)
    report = {
        "capacity": cfg.geometry.capacity,
        "degrees": list(cfg.degrees),
        "leading_coefficient_error": [
            abs(abs(table.coefficients(n)[n]) - cfg.geometry.capacity ** (-n))
            * cfg.geometry.capacity**n
            for n in cfg.degrees
        ],
        "level_curve_deviation_r1.5": [
            geo.faber_asymptotic_deviation(cfg.geometry, n, 1.5) if cfg.geometry.is_curve else None
            for n in cfg.degrees
        ],
    }
    write_json(os.path.join(out, "faber_report.json"), report)
    print(f"faber table written for degrees {list(cfg.degrees)}")
    return 0


def cmd_szego(cfg: ExperimentConfig) -> int:
    w0 = 1.0 / np.conj(geo.require_exterior(cfg.geometry, cfg.z0))
    report = szego.verify_circle_optimality(
        complex(w0), cfg.szego_trials, cfg.seed, m=cfg.szego_grid
    )
    pois = szego.poisson_density(complex(w0), cfg.szego_grid)
    evaluation = szego.szego_function(pois, complex(w0))
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    write_json(
        os.path.join(out, "szego_report.json"),
        {"w0": w0, "optimality": report, "poisson_evaluation": evaluation},
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
            "checks": results,
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
    _sub = _SUBPARSERS.add_parser(_name)
    _sub.add_argument("--config", help="path to a JSON config file")
    for _field in _FIELDS.values():
        _sub.add_argument(_field.flag, help=_field.help)  # its text goes to the field's reader


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        overrides = {
            key: getattr(args, field.flag[2:].replace("-", "_"))  # argparse's name for the flag
            for key, field in _FIELDS.items()
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
