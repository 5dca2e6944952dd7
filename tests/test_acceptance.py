"""Acceptance suite: ten end-to-end checks the package must satisfy.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Every test prints the observed quantities next to the tolerance
it asserts, so a failing run shows how far off the build is.  Timed criteria
assert their wall-clock budget too.
"""

import math
import time

import numpy as np

from degree_one_oracle import exhaustive_min
from opmlab import bergman as brg, geometry as geo, measure as msr, opm, verify


def test_criterion_01_circle_point_mass_growth():
    # Exterior point z0 = 2 on the unit circle: the optimal value is |z0|^(2n)
    # and the discretized harmonic measure of z0 attains it.
    t0 = time.perf_counter()
    g = geo.unit_circle()
    grid = msr.discretize_boundary(g, 512)
    pois = msr.balayage_point_mass(g, 2.0, 512)
    err_solver, err_pois = [], []
    for n in range(1, 11):
        target = 4.0**n
        sol = opm.solve_opm(grid, 2.0, n)
        err_solver.append(abs(sol.objective - target) / target)
        val = brg.bergman_function(pois, n, 2.0).bergman
        err_pois.append(abs(val - target) / target)
    dt = time.perf_counter() - t0
    worst_solver, worst_pois = np.max(err_solver), np.max(err_pois)  # np.max keeps a NaN
    print(
        f"criterion 01: solver rel err {worst_solver:.3e} (tol 1e-3), "
        f"harmonic-measure rel err {worst_pois:.3e} (tol 1e-8), {dt:.2f}s (budget 5s)"
    )
    assert worst_solver <= 1e-3
    assert worst_pois <= 1e-8
    assert dt < 5.0


def test_criterion_02_arclength_closed_form():
    # Normalized arclength on the circle: B_n(mu, z) = (|z|^(2n+2)-1)/(|z|^2-1).
    mu = msr.uniform_measure(msr.discretize_boundary(geo.unit_circle(), 128))
    errors = []
    for n in range(1, 21):
        target = (4.0 ** (n + 1) - 1.0) / 3.0
        val = brg.bergman_function(mu, n, 2.0).bergman
        errors.append(abs(val - target) / target)
    worst = np.max(errors)
    print(f"criterion 02: arclength rel err {worst:.3e} (tol 1e-8), degrees 1..20")
    assert worst <= 1e-8


def test_criterion_03_circle_moment_convergence():
    # Optimal measures approach the balayage of the point mass: the first five
    # moments tighten by at least 3x between degrees 5 and 20.
    t0 = time.perf_counter()
    g = geo.unit_circle()
    grid = msr.discretize_boundary(g, 512)
    bal = msr.balayage_point_mass(g, 2.0, 512)
    disc = {}
    for n in (5, 20):
        sol = opm.solve_opm(grid, 2.0, n, gap_tol=1e-8)
        disc[n] = msr.moment_discrepancy(sol.measure, bal, 5)
    dt = time.perf_counter() - t0
    print(
        f"criterion 03: disc(5) {disc[5]:.3e}, disc(20) {disc[20]:.3e} (tol 0.02), "
        f"ratio {disc[5] / disc[20]:.1f} (>= 3), {dt:.2f}s (budget 30s)"
    )
    assert disc[20] < 0.02
    assert disc[20] * 3.0 <= disc[5]
    assert dt < 30.0


def test_criterion_04_ellipse_convergence_study():
    # ellipse(2,1), z0 = 3, degrees 4..32 step 4: certified optima at every
    # degree, moment discrepancy at least halves from n=8 to n=32, and the
    # normalized objective climbs monotonically to its limit <= 1.
    t0 = time.perf_counter()
    rows = opm.convergence_study(
        geo.ellipse(2.0, 1.0), 3.0, list(range(4, 33, 4)), 660, gap_tol=1e-7
    )
    dt = time.perf_counter() - t0
    by_n = {r.n: r for r in rows}
    worst_gap = np.max([r.gap for r in rows])
    assert all(r.status == "converged" for r in rows)
    tail = [r.tilde_bergman for r in rows if r.n >= 12]
    drop = np.min(np.diff(tail))
    print(
        f"criterion 04: worst gap {worst_gap:.3e} (tol 1e-6), "
        f"disc(8)/disc(32) {by_n[8].moment_discrepancy / by_n[32].moment_discrepancy:.3g} (>= 2), "
        f"tilde_B step min {drop:.3e} (>= -1e-6), final {rows[-1].tilde_bergman!r} (<= 1+1e-9), "
        f"{dt:.1f}s (budget 180s)"
    )
    assert worst_gap <= 1e-6
    assert by_n[32].moment_discrepancy * 2.0 <= by_n[8].moment_discrepancy
    assert drop >= -1e-6
    assert rows[-1].tilde_bergman <= 1.0 + 1e-9
    assert dt < 180.0


def test_criterion_05_segment_growth_limits():
    # [-1,1]: the extremal growth ratio M_n / |Phi(z0)|^n tends to 1/2 for
    # real z0 and to sqrt(a^2+1)/(a+sqrt(a^2+1)) on the imaginary axis, and
    # B_n at a real point matches the Chebyshev value T_n(z0)^2.
    t0 = time.perf_counter()
    g = geo.interval()
    grid = msr.discretize_boundary(g, 2000)
    observed = {}
    for z0, limit in ((2.0 + 0.0j, 0.5), (1.0j, math.sqrt(2.0) / (1.0 + math.sqrt(2.0)))):
        sol = opm.solve_opm(grid, z0, 30, gap_tol=1e-8)
        ratio = math.sqrt(sol.objective) / abs(geo.exterior_map(g, z0)) ** 30
        observed[z0] = (ratio, limit)
        assert abs(ratio - limit) <= 0.02
    err_cheb = []
    for n in range(2, 16):
        sol = opm.solve_opm(grid, 2.0, n, gap_tol=1e-8)
        target = float(np.cosh(n * np.arccosh(2.0))) ** 2
        err_cheb.append(abs(sol.objective - target) / target)
    dt = time.perf_counter() - t0
    worst_cheb = np.max(err_cheb)
    pairs = ", ".join(f"z0={z}: {r:.6f} vs {lim:.6f}" for z, (r, lim) in observed.items())
    print(
        f"criterion 05: {pairs} (tol 0.02); Chebyshev rel err {worst_cheb:.3e} (tol 1e-3), "
        f"{dt:.2f}s (budget 30s)"
    )
    assert worst_cheb <= 1e-3
    assert dt < 30.0


def test_criterion_06_density_optimality_sweep():
    # 200 random circle densities: none beats the Poisson density at w0 = 0.5,
    # whose own value is exactly 1.
    t0 = time.perf_counter()
    check = verify.check_circle_optimality(0)
    dt = time.perf_counter() - t0
    print(
        f"criterion 06: {check.detail}; |poisson - 1| {check.observed:.3e} "
        f"(tol {check.tolerance:g}), {dt:.2f}s (budget 10s)"
    )
    assert check.passed
    assert dt < 10.0


def test_criterion_07_reflection_identity():
    # |z|^(2n) lambda_n(mu, z) = lambda_n(mu, 1/conj(z)) for measures on the
    # circle: 50 random measures, random degree <= 15, random z.
    errors = []
    for i in range(50):
        rng = np.random.default_rng(4100 + i)
        nodes = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=80))
        w = rng.exponential(1.0, size=80)
        mu = msr.DiscreteMeasure(nodes, w / w.sum())
        n = int(rng.integers(1, 16))
        z = rng.uniform(0.3, 2.5) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        fac = brg.factorize(mu, n)
        lhs = abs(z) ** (2 * n) / brg.bergman_value(fac, z)
        rhs = 1.0 / brg.bergman_value(fac, 1.0 / np.conj(z))
        errors.append(abs(lhs - rhs) / rhs)
    worst = np.max(errors)
    print(f"criterion 07: reflection identity rel err {worst:.3e} (tol 1e-8), 50 trials")
    assert worst <= 1e-8


def test_criterion_08_growth_transport():
    # Normalized growth on the curve equals lambda_inf of the transported
    # density at the reflected point: circle against the closed form 0.75,
    # ellipse lhs vs rhs within 5%.
    circle = verify.check_transport_circle()
    ellipse = verify.check_transport_ellipse()
    print(
        f"criterion 08: circle {circle.detail}, max distance to 0.75 {circle.observed:.3e} "
        f"(tol {circle.tolerance:g}); ellipse rel diff {ellipse.observed:.3e} "
        f"(tol {ellipse.tolerance:g})"
    )
    assert circle.passed
    assert ellipse.passed


def test_criterion_09_tilde_monotonicity():
    # Circle: the normalized objective is monotone in the degree for every
    # measure (asserted).  Segment: the same comparison is recorded but not
    # asserted; a deterministic witness shows it genuinely failing there.
    # The seeds draw generators 4200 + i (circle) and 4300 + i (segment).
    circle = verify.check_tilde_monotonicity_circle(2200)
    segment = verify.check_tilde_monotonicity_interval(1300)
    print(
        f"criterion 09: circle max defect {circle.observed:.3e} (tol {circle.tolerance:g}); "
        f"segment {segment.detail}"
    )
    assert circle.passed
    assert np.isfinite(segment.observed)  # np.max keeps a NaN, so every defect is finite


def test_criterion_10_oracle_equivalence():
    # Degree 1 on 5-node grids: the solver matches an exhaustive simplex-grid
    # search at weight resolution 0.01 on 10 seeded instances.
    steps = 100
    nodes, z0s = [], []
    for trial in range(10):
        rng = np.random.default_rng(1000 + trial)
        nodes.append(np.exp(2j * np.pi * np.sort(rng.uniform(0.0, 1.0, size=5))))
        z0s.append((1.5 + rng.uniform(0.0, 1.5)) * np.exp(2j * np.pi * rng.uniform()))
    oracles = exhaustive_min(np.array(nodes), np.array(z0s), steps)
    errors = []
    for x, z0, oracle in zip(nodes, z0s, oracles):
        sol = opm.solve_opm(x, z0, 1, gap_tol=1e-9)
        errors.append(abs(sol.objective - oracle) / oracle)
    worst = np.max(errors)
    print(
        f"criterion 10: worst rel gap to exhaustive search {worst:.3e} (tol 0.02), "
        f"10 instances x {math.comb(steps + 4, 4)} grid points"
    )
    assert worst <= 0.02
