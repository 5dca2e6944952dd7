"""Workload definitions and correctness gates for the opmlab benchmark.

A workload is a fixed list of `opmlab` CLI calls (ops) built from the
benchmark seed.  Each op is gated from the files the CLI itself writes:
`certificate.json`, `convergence.csv` and `verify_report.json`.

This module is pure Python (no numpy) so the gates stay independent of the
library they check and the tests can import it without the package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("segment_endgame", "ellipse_sweep", "verify_suite")

SEGMENT_GRID = 2000
SEGMENT_GAP_TOL = 1e-8
ELLIPSE_DEGREES = "4..32:4"
ELLIPSE_GRID = 660
ELLIPSE_GAP_TOL = 1e-7

CHEBYSHEV_RTOL = 1e-3
GROWTH_ATOL = 0.02
SWEEP_WORST_GAP = 1e-6
SWEEP_TILDE_STEP = -1e-6
SWEEP_TILDE_FINAL = 1.0 + 1e-9
SWEEP_DISC_RATIO = 2.0

# Files each command writes that README/SCHEMAS promise are byte-deterministic.
DETERMINISTIC_FILES = {
    "opm": ("measure.csv", "certificate.json", "summary.txt"),
    "convergence": ("plotdata.json",),
    "verify": ("verify_report.json",),
}


def seed_inputs(seed: int) -> dict:
    """The prediction points a seed produces.

    Seed 0 gives the acceptance-suite points (x0 = 2, i*a with a = 1,
    z0 = 3); other seeds draw x0 from [1.8, 2.2], a from [0.8, 1.2] and the
    ellipse z0 from [2.8, 3.2], rounded to four decimals.
    """
    if seed == 0:
        return {"x0": 2.0, "a": 1.0, "z0": 3.0}
    rng = random.Random(seed)
    return {
        "x0": round(rng.uniform(1.8, 2.2), 4),
        "a": round(rng.uniform(0.8, 1.2), 4),
        "z0": round(rng.uniform(2.8, 3.2), 4),
    }


@dataclass(frozen=True)
class Op:
    """One CLI call and the reference its outputs are gated against."""

    name: str
    argv: tuple[str, ...]
    check: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def _segment_op(name: str, z0: str, n: int, check: dict) -> Op:
    argv = (
        "opm", "--geometry", "interval", "--z0", z0, "--degrees", str(n),
        "--grid", str(SEGMENT_GRID), "--gap-tol", repr(SEGMENT_GAP_TOL),
    )
    return Op(name, argv, {"gap_tol": SEGMENT_GAP_TOL, "n": n, **check})


def workload_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one round of `workload`, in the order they are run."""
    p = seed_inputs(seed)
    if workload == "segment_endgame":
        x0, a = p["x0"], p["a"]
        return [
            _segment_op("opm_x0_n15", repr(x0), 15, {"x0": x0}),
            _segment_op("opm_x0_n30", repr(x0), 30, {"x0": x0}),
            _segment_op("opm_ia_n30", f"0,{a!r}", 30, {"a": a}),
        ]
    if workload == "ellipse_sweep":
        argv = (
            "convergence", "--geometry", "ellipse:2,1", "--z0", repr(p["z0"]),
            "--degrees", ELLIPSE_DEGREES, "--grid", str(ELLIPSE_GRID),
            "--gap-tol", repr(ELLIPSE_GAP_TOL),
        )
        return [Op("sweep", argv, {"gap_tol": ELLIPSE_GAP_TOL})]
    if workload == "verify_suite":
        return [Op("verify", ("verify", "--seed", str(seed)))]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Verdict:
    """Gate outcome of one op.

    `failures` lists every gate the op missed; any entry fails the op.
    `wrong` is the subset where an output contradicts its independent
    reference (closed form, criterion-04 value conditions, the suite's own
    checks) or could not be read.  A failure the program reports itself
    (exit code, status, certificate gap) is a failed op but not a wrong
    answer.
    """

    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, reason: str, *, wrong: bool = False) -> None:
        self.failures.append(reason)
        if wrong:
            self.wrong.append(reason)


def chebyshev_square(n: int, x0: float) -> float:
    """T_n(x0)^2 for real |x0| > 1, the optimal B_n on [-1, 1]."""
    return math.cosh(n * math.acosh(abs(x0))) ** 2


def imaginary_growth_limit(a: float) -> float:
    """Limit of M_n / |Phi(ia)|^n on [-1, 1]: sqrt(a^2+1) / (a + sqrt(a^2+1))."""
    r = math.sqrt(a * a + 1.0)
    return r / (a + r)


def _check_opm(op: Op, out_dir: str, v: Verdict) -> None:
    with open(os.path.join(out_dir, "certificate.json"), encoding="utf-8") as fh:
        cert = json.load(fh)
    if cert["status"] != "converged":
        v.fail(f"status {cert['status']}")
    gap = cert["certificate_gap"]
    if gap is None or gap > op.check["gap_tol"]:
        v.fail(f"certificate_gap {gap} > {op.check['gap_tol']}")
    obj = cert["objective"]
    n = op.check["n"]
    if obj is None or not obj > 0.0:
        v.fail(f"objective {obj}", wrong=True)
        return
    if "x0" in op.check:
        target = chebyshev_square(n, op.check["x0"])
        rel = abs(obj - target) / target
        if rel > CHEBYSHEV_RTOL:
            v.fail(f"objective off T_n(x0)^2 by {rel:.3e} relative", wrong=True)
    else:
        a = op.check["a"]
        ratio = math.sqrt(obj) / (a + math.sqrt(a * a + 1.0)) ** n
        err = abs(ratio - imaginary_growth_limit(a))
        if err > GROWTH_ATOL:
            v.fail(f"growth ratio off its limit by {err:.3e}", wrong=True)


def _num(cell: str) -> float:
    """A convergence.csv cell; failed rows leave payload cells empty (NaN)."""
    return float(cell) if cell else math.nan


def _check_convergence(op: Op, out_dir: str, v: Verdict) -> None:
    with open(os.path.join(out_dir, "convergence.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        v.fail("convergence.csv has no rows", wrong=True)
        return
    by_n = {}
    worst_gap = 0.0
    for r in rows:
        n = int(r["n"])
        by_n[n] = r
        if r["status"] != "converged":
            v.fail(f"n={n} status {r['status']}")
        gap = _num(r["gap"])
        if not gap <= op.check["gap_tol"]:
            v.fail(f"n={n} gap {gap:.3e} > {op.check['gap_tol']}")
        worst_gap = max(worst_gap, gap)
    if not worst_gap <= SWEEP_WORST_GAP:
        v.fail(f"worst gap {worst_gap:.3e} > {SWEEP_WORST_GAP}")
    tilde = [_num(r["tilde_B"]) for r in rows if int(r["n"]) >= 12]
    steps = [b - a for a, b in zip(tilde, tilde[1:])]
    if not steps or not min(steps) >= SWEEP_TILDE_STEP:
        v.fail(f"tilde_B steps {steps} below {SWEEP_TILDE_STEP}", wrong=True)
    final = _num(rows[-1]["tilde_B"])
    if not final <= SWEEP_TILDE_FINAL:
        v.fail(f"final tilde_B {final!r} > 1+1e-9", wrong=True)
    try:
        d8 = float(by_n[8]["moment_discrepancy"])
        d32 = float(by_n[32]["moment_discrepancy"])
    except (KeyError, ValueError):
        v.fail("moment discrepancy at n=8 or n=32 missing", wrong=True)
        return
    if not d32 * SWEEP_DISC_RATIO <= d8:
        v.fail(f"disc(8)/disc(32) = {d8 / d32:.3g} < {SWEEP_DISC_RATIO}", wrong=True)


def _check_verify(out_dir: str, v: Verdict) -> None:
    with open(os.path.join(out_dir, "verify_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if report["all_passed"] is not True:
        failed = [c["name"] for c in report["checks"] if c["asserted"] and not c["passed"]]
        v.fail(f"verify all_passed false: {failed}", wrong=True)


def check_op(op: Op, exit_code: int, out_dir: str) -> Verdict:
    """Gate one op from its exit code and the files it wrote to `out_dir`."""
    v = Verdict()
    if exit_code != 0:
        v.fail(f"exit code {exit_code}")
    try:
        if op.command == "opm":
            _check_opm(op, out_dir, v)
        elif op.command == "convergence":
            _check_convergence(op, out_dir, v)
        elif op.command == "verify":
            _check_verify(out_dir, v)
        else:
            raise ValueError(f"no gate for command {op.command!r}")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        v.fail(f"unreadable output: {type(exc).__name__}: {exc}", wrong=exit_code == 0)
    return v


def output_digest(op: Op, out_dir: str) -> str:
    """sha256 over the op's byte-deterministic output files."""
    h = hashlib.sha256()
    for name in DETERMINISTIC_FILES[op.command]:
        h.update(name.encode())
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
