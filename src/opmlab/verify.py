"""Self-contained invariant suite behind the `verify` subcommand.

Each check exercises one identity the library is supposed to reproduce:
the circle reflection identity for Christoffel functions, Szego-function
scaling, optimality of the Poisson density, Faber asymptotics, normalized
Bergman monotonicity on the circle (with the segment recorded as a known
counterexample), and the curve-to-circle transport identity.  Checks are
seeded and emit deterministic numbers so reports are byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import bergman, geometry as geo, measure as msr, szego


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    asserted: bool  # non-asserted checks are recorded but never fail the suite
    tolerance: float
    observed: float
    detail: str

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "asserted": bool(self.asserted),
            "tolerance": float(self.tolerance),
            "observed": msr._json_num(self.observed),
            "detail": self.detail,
        }


def _asserted(name: str, errors, tolerance: float, detail: str) -> CheckResult:
    """An asserted check: observed is the largest error, and it passes within tolerance.

    np.max propagates a NaN and NaN <= tolerance is false, so one NaN error
    fails the check.
    """
    observed = float(np.max(errors))
    return CheckResult(name, observed <= tolerance, True, tolerance, observed, detail)


def _random_circle_measure(rng: np.random.Generator, m: int):
    angles = rng.uniform(0.0, 2.0 * np.pi, size=m)
    nodes = np.exp(1j * angles)
    w = rng.exponential(1.0, size=m)
    return msr.DiscreteMeasure(nodes, w / w.sum())


def check_christinv_poisson(m: int = 512) -> CheckResult:
    """lambda_n of the discretized Poisson measure: the reflection identity
    pins lambda_n(mu_P, z0) * |z0|^{2n} = lambda_n(mu_P, 1/conj(z0)) = 1."""
    geom = geo.unit_circle()
    z0 = 2.0 + 0.0j
    mu = msr.balayage_point_mass(geom, z0, m)
    errors = []
    for n in range(1, 9):
        fac = bergman.factorize(mu, n)
        lam_at_z0 = 1.0 / bergman.bergman_value(fac, z0)
        lam_reflected = 1.0 / bergman.bergman_value(fac, 1.0 / np.conj(z0))
        errors += [abs(lam_at_z0 * abs(z0) ** (2 * n) - 1.0), abs(lam_reflected - 1.0)]
    return _asserted(
        "christinv_poisson", errors, 1e-8,
        "Poisson measure at z0=2, degrees 1..8, both sides of the reflection identity",
    )


def check_christinv_random(seed: int, trials: int = 50) -> CheckResult:
    """|z|^{2n} lambda_n(mu, z) = lambda_n(mu, 1/conj(z)) on random circle measures."""
    errors = []
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        mu = _random_circle_measure(rng, 100)
        n = int(rng.integers(1, 16))
        r = rng.uniform(0.3, 2.5)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        z = r * np.exp(1j * theta)
        fac = bergman.factorize(mu, n)
        lhs = abs(z) ** (2 * n) / bergman.bergman_value(fac, z)
        rhs = 1.0 / bergman.bergman_value(fac, 1.0 / np.conj(z))
        errors.append(abs(lhs - rhs) / rhs)
    return _asserted(
        "christinv_random", errors, 1e-8,
        f"{trials} random circle measures, n <= 15, random z, relative error",
    )


def check_szego_scaling(seed: int, m: int = 4096) -> CheckResult:
    """Doubling an (unnormalized) density scales D by sqrt(2)."""
    errors = []
    for i in range(5):
        rng = np.random.default_rng(seed + 1000 + i)
        f = szego.random_density(m, rng)
        z = 0.8 * rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        d1 = szego.szego_function_raw(f.values, z)
        d2 = szego.szego_function_raw(2.0 * f.values, z)
        errors.append(abs(d2 - np.sqrt(2.0) * d1) / abs(d1))
    return _asserted(
        "szego_scaling", errors, 1e-10, "D(2f, z) vs sqrt(2) D(f, z) on 5 random densities"
    )


def check_circle_optimality(seed: int, trials: int = 200, m: int = 4096) -> CheckResult:
    """No random density beats the Poisson density at w0 = 1/2, whose value is 1."""
    report = szego.verify_circle_optimality(0.5, trials, seed, m=m)
    result = _asserted(
        "circle_optimality", [abs(report.poisson_lambda - 1.0)], 1e-8,
        f"{trials} random densities at w0=0.5: max lambda {report.max_lambda:.6f}, "
        f"poisson lambda {report.poisson_lambda!r}, {len(report.violations)} violations",
    )
    holds = report.passed and report.max_lambda < report.poisson_lambda
    return replace(result, passed=result.passed and holds)


def check_faber_decay() -> CheckResult:
    """F_n / Phi^n - 1 collapses on exterior level curves of analytic geometries."""
    cases = [
        (geo.unit_circle(), 20, 1.3),
        (geo.ellipse(2.0, 1.0), 20, 1.5),
        (geo.laurent_curve(1.0, 0.0, (0.0, 0.15)), 20, 2.0),
    ]
    return _asserted(
        "faber_decay",
        [geo.faber_asymptotic_deviation(g, n, radius) for g, n, radius in cases],
        1e-8,
        "max deviation over circle, ellipse(2,1), and a perturbed Laurent curve at n=20",
    )


def check_tilde_monotonicity_circle(seed: int, trials: int = 50) -> CheckResult:
    """tilde-B_{N-1} <= tilde-B_N on the circle (reflection makes it exact)."""
    geom = geo.unit_circle()
    defects = []
    for i in range(trials):
        rng = np.random.default_rng(seed + 2000 + i)
        mu = _random_circle_measure(rng, 64)
        N = int(rng.integers(2, 21))
        z = rng.uniform(1.2, 3.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        defects.append(bergman.tilde_monotonicity_defect(geom, mu, N, 1, z))
    return _asserted(
        "tilde_monotonicity_circle", defects, 1e-10,
        f"max defect tilde_B_(N-1)/tilde_B_N - 1 over {trials} random measures, N <= 20",
    )


def check_tilde_monotonicity_interval(seed: int, trials: int = 50) -> CheckResult:
    """Recorded only: the segment is expected to violate the circle monotonicity.

    Computed through `bergman._tilde_defect`, since tilde_monotonicity_defect
    refuses arcs by contract.  The first trial uses Chebyshev-like nodes with
    uniform weights, a deterministic witness of a positive defect.
    """
    geom = geo.interval()
    defects = []
    for i in range(trials):
        if i == 0:
            mcount = 32
            nodes = np.cos(np.pi * (2 * np.arange(mcount) + 1) / (2 * mcount))
            mu = msr.uniform_measure(nodes)
            N, z = 2, 2.0 + 0.0j
        else:
            rng = np.random.default_rng(seed + 3000 + i)
            nodes = np.cos(rng.uniform(0.0, np.pi, size=32))
            w = rng.exponential(1.0, size=32)
            mu = msr.DiscreteMeasure(nodes, w / w.sum())
            N = int(rng.integers(2, 13))
            z = rng.uniform(1.5, 3.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        defects.append(bergman._tilde_defect(geom, mu, N, 1, z))
    worst = float(np.max(defects))
    return CheckResult(
        name="tilde_monotonicity_interval",
        passed=True,
        asserted=False,
        tolerance=0.0,
        observed=worst,
        detail=(
            f"recorded, not asserted: max defect {worst:.6f} over {trials} segment measures "
            f"(deterministic witness defect {defects[0]:.6f}); positive values show the "
            "monotonicity genuinely fails off closed curves"
        ),
    )


def check_transport_circle(m: int = 2048, n_probe: int = 30) -> CheckResult:
    """Transport identity on the circle against the closed form 0.75 at z = 2."""
    geom = geo.unit_circle()
    mu = msr.uniform_measure(msr.discretize_boundary(geom, m))
    lhs, rhs = szego.transport_check(geom, mu, 2.0, n_probe)
    return _asserted(
        "transport_circle", [abs(lhs - 0.75), abs(rhs - 0.75)], 0.02,
        f"arclength density, z=2, n_probe={n_probe}: lhs {lhs!r}, rhs {rhs!r}",
    )


def check_transport_ellipse(m: int = 2048, n_probe: int = 40) -> CheckResult:
    """Transport identity on ellipse(2,1) with an arclength-proportional density."""
    geom = geo.ellipse(2.0, 1.0)
    t = 2.0 * np.pi * np.arange(m) / m
    density = np.abs(geo.psi_prime(geom, np.exp(1j * t)))
    mu = msr.measure_from_boundary_density(geom, density)
    lhs, rhs = szego.transport_check(geom, mu, 3.0, n_probe)
    return _asserted(
        "transport_ellipse", [abs(lhs - rhs) / rhs], 0.05,
        f"z=3, n_probe={n_probe}: lhs {lhs!r}, rhs {rhs!r}, relative difference",
    )


def run_all(seed: int = 0, *, trials: int = 200, szego_grid: int = 4096) -> list[CheckResult]:
    """Full suite in a fixed order; deterministic for a fixed seed."""
    return [
        check_christinv_poisson(),
        check_christinv_random(seed),
        check_szego_scaling(seed, m=szego_grid),
        check_circle_optimality(seed, trials=trials, m=szego_grid),
        check_faber_decay(),
        check_tilde_monotonicity_circle(seed),
        check_tilde_monotonicity_interval(seed),
        check_transport_circle(),
        check_transport_ellipse(),
    ]


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results if r.asserted)
