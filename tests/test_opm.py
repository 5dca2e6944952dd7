import itertools

import numpy as np
import pytest

from degree_one_oracle import exhaustive_min, weight_grid
from opmlab import bergman, geometry as geo, measure as msr, opm
from opmlab.errors import EmptySupport, NotOptimal


CIRCLE_GRID = msr.discretize_boundary(geo.unit_circle(), 512)


def test_circle_objective_is_power_of_modulus():
    for n in range(1, 7):
        sol = opm.solve_opm(CIRCLE_GRID, 2.0, n)
        assert sol.converged
        assert sol.objective == pytest.approx(4.0**n, rel=1e-6)
        assert 0.0 <= sol.certificate_gap <= 1e-6


def test_solution_is_a_probability_measure_on_the_grid():
    sol = opm.solve_opm(CIRCLE_GRID, 1.5 + 1.0j, 4)
    assert sol.measure.weights.sum() == pytest.approx(1.0)
    assert np.all(sol.measure.weights > 0.0)
    grid_set = set(np.round(CIRCLE_GRID, 12))
    assert all(complex(round(x.real, 12) + 1j * round(x.imag, 12)) in grid_set for x in sol.measure.nodes)
    assert sol.grid_size == CIRCLE_GRID.size


def test_objective_trace_is_nonincreasing():
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    sol = opm.solve_opm(grid, 3.0, 4, trace=True)
    tr = sol.objective_trace
    assert tr is not None and tr.size >= 2
    assert np.all(np.diff(tr) <= 1e-12 * tr[:-1])
    # no trace requested -> none stored
    assert opm.solve_opm(grid, 3.0, 2).objective_trace is None


def test_iterations_count_the_traced_steps():
    """The trace holds the start plus one B per accepted step, on a Newton-heavy solve."""
    grid = msr.discretize_boundary(geo.interval(), 2000)
    sol = opm.solve_opm(grid, 2.0, 30, trace=True)
    tr = sol.objective_trace
    assert sol.converged
    assert tr.size == sol.iterations + 1
    assert np.all(np.diff(tr) <= 1e-12 * tr[:-1])


SEGMENT_GRID = msr.discretize_boundary(geo.interval(), 2000)


def test_segment_endgame_needs_no_crawl():
    """Segment n=30 at gap_tol 1e-8 converges on its n + 1 Chebyshev atoms without the one-node crawl."""
    sol = opm.solve_opm(SEGMENT_GRID, 2.0, 30, gap_tol=1e-8, trace=True)
    tr = sol.objective_trace
    assert sol.converged
    assert sol.iterations <= 300
    assert np.all(np.diff(tr) <= 1e-12 * tr[:-1])
    assert sol.measure.support_size == 31


def _hoel_levine(n, x0):
    """The exact grid optimum when the grid holds the Chebyshev extrema cos(j pi / n).

    For real x0 outside [-1, 1] the optimal weights are |l_j(x0)| / sum_k |l_k(x0)|
    on those extrema, with l_j the Lagrange basis (barycentric weights (-1)^j,
    halved at the ends), and B_n = T_n(x0)^2 (Hoel & Levine 1964).
    """
    nodes = np.cos(np.pi * np.arange(n + 1) / n)
    lam = (-1.0) ** np.arange(n + 1)
    lam[[0, -1]] *= 0.5
    ell = np.abs(lam / (x0 - nodes))
    return nodes, ell / ell.sum(), np.cosh(n * np.arccosh(x0)) ** 2


@pytest.mark.parametrize("n, x0", [(30, 2.0), (60, 2.0), (90, 1.2)])
def test_segment_matches_the_hoel_levine_optimum(n, x0):
    """On a grid holding the Chebyshev extrema the solver reaches T_n(x0)^2 and the exact weights."""
    grid = msr.discretize_boundary(geo.interval(), 1801)  # cos(j pi / 1800); n divides 1800
    nodes, weights, T2 = _hoel_levine(n, x0)
    exact = msr.DiscreteMeasure(nodes, weights)
    assert opm.certificate_gap(exact, x0, n, grid) <= 1e-10
    sol = opm.solve_opm(grid, x0, n, gap_tol=1e-10)
    assert sol.converged
    assert abs(sol.objective / T2 - 1.0) <= 1e-10
    w_exact = np.zeros(grid.size)
    w_exact[np.arange(n + 1) * (1800 // n)] = weights
    w = np.zeros(grid.size)
    w[sol.support] = sol.measure.weights
    assert np.abs(w - w_exact).max() <= 1e-6


def test_ellipse_moments_match_the_balayage_at_high_degree():
    """ellipse(2,1), z0=3: the optimum's moments equal the discretized balayage's through degree 100."""
    rows = opm.convergence_study(geo.ellipse(2.0, 1.0), 3.0, [22, 40, 70, 100], 2020, gap_tol=1e-8)
    for r in rows:
        assert r.status == "converged", (r.n, r.status)
        assert r.moment_discrepancy <= 1e-10, (r.n, r.moment_discrepancy)


def test_newton_rounds_keep_unit_mass(monkeypatch):
    """Every Newton trial is judged on normalized weights, so each round ends at unit mass."""
    sums = []
    newton = opm._newton_solve

    def recording(*args):
        out = newton(*args)
        sums.append(float(out[0].sum()))
        return out

    monkeypatch.setattr(opm, "_newton_solve", recording)
    assert opm.solve_opm(SEGMENT_GRID, 2.0, 30, gap_tol=1e-8).converged
    assert sums
    assert max(abs(s - 1.0) for s in sums) <= 1e-14


def test_multiple_exchange_moves_every_atom_each_round(monkeypatch):
    """One entrant per atom cell: the ellipse and segment endgames take a few rounds, not one per grid node."""
    rounds = []
    newton = opm._newton_solve

    def counting(*args):
        rounds.append(1)
        return newton(*args)

    monkeypatch.setattr(opm, "_newton_solve", counting)
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    assert opm.solve_opm(grid, 3.0, 12, gap_tol=1e-7).converged
    assert len(rounds) <= 10
    sol = opm.solve_opm(SEGMENT_GRID, 2.0, 30, gap_tol=1e-8)
    assert sol.converged
    assert sol.iterations <= 100


def test_exchange_leaves_no_split_atom():
    """The wide-ellipse optimum sits at 48 locations and matches a 48-atom optimum.

    The grid optimum there is a face, not a point: a measure on adjacent
    node pairs can certify as well as one atom per location.  The reference
    is the 48-atom optimum that is symmetric under j -> 1000 - j (complex
    conjugation of the grid), re-solved on its own nodes.
    """
    grid = msr.discretize_boundary(geo.ellipse(5.0, 1.0), 1000)
    sol = opm.solve_opm(grid, 6.0, 24, gap_tol=1e-8)
    assert sol.converged
    assert np.count_nonzero(np.diff(sol.support) > 1) + 1 == 48
    half = np.array([0, 21, 42, 62, 83, 104, 125, 146, 167, 187, 208, 229, 250,
                     271, 292, 313, 333, 354, 375, 396, 417, 437, 458, 479, 500])
    atoms = np.union1d(half, (1000 - half) % 1000)
    ref = opm.solve_opm(grid[atoms], 6.0, 24, gap_tol=1e-12)
    assert ref.measure.support_size == 48
    assert opm.certificate_gap(ref.measure, 6.0, 24, grid) <= 1e-12
    assert sol.objective == pytest.approx(ref.objective, rel=1e-12)


@pytest.mark.parametrize("n", range(16, 33, 4))
def test_warmup_lands_on_the_discretized_balayage(n):
    """At degrees where the grid optimum is smooth, the warmup converges on the full grid within two steps."""
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    sol = opm.solve_opm(grid, 3.0, n, gap_tol=1e-7)
    assert sol.converged
    assert sol.iterations <= 2
    assert sol.measure.support_size == grid.size


@pytest.mark.parametrize("z0", [2.0, 0.5j])
def test_support_reduction_keeps_objective_and_mass(z0):
    """The reduction of a mid-solve iterate leaves B and the mass and at most 2n + 3 nodes."""
    n = 30
    work = opm._Work(SEGMENT_GRID, z0, n)
    w = np.full(SEGMENT_GRID.size, 1.0 / SEGMENT_GRID.size)
    M = work.moment_matrix(w)
    for _ in range(50):
        _, B, _, scores = work.scores_state(M)
        w, M, B = opm._try_mult(work, w, B, scores)
    L, B, y, scores = work.scores_state(M)
    assert np.count_nonzero(w) > 2 * n + 3
    reduced = opm._reduce_support(work, w, M, L, B, y, int(np.argmax(scores)))
    assert reduced is not None
    w_red = reduced[0]
    _, B_red, _ = work.core_state(work.moment_matrix(w_red))
    assert abs(B_red / B - 1.0) <= 1e-12
    assert abs(w_red.sum() - 1.0) <= 1e-14
    assert np.all(w_red >= 0.0)
    assert np.count_nonzero(w_red) <= 2 * n + 3


@pytest.mark.parametrize(
    "geom, z0, n, m",
    [
        (geo.interval(), 0.5j, 30, 2000),
        (geo.ellipse(5.0, 1.0), 6.0, 32, 1000),
        (geo.unit_circle(), 1.1j, 8, 1000),
    ],
    ids=["segment-0.5i-n30", "ellipse51-6-n32", "circle-1.1i-n8"],
)
def test_tight_tolerance_solves_converge(geom, z0, n, m):
    """Sparse complex, wide ellipse and full-support circle optima certify at gap_tol 1e-8."""
    sol = opm.solve_opm(msr.discretize_boundary(geom, m), z0, n, gap_tol=1e-8, trace=True)
    assert sol.status == "converged"
    assert sol.certificate_gap <= 1e-8
    tr = sol.objective_trace
    assert np.all(np.diff(tr) <= 1e-12 * tr[:-1])


@pytest.mark.parametrize("z0", [2.8554, 3.0604, 3.1055])
def test_degree_twelve_ellipse_rows_converge(z0):
    """Degree-12 ellipse sweep rows whose gap sits near 1e-7 still certify, with descent."""
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    sol = opm.solve_opm(grid, z0, 12, gap_tol=1e-7, trace=True)
    assert sol.status == "converged"
    assert sol.certificate_gap <= 1e-7
    tr = sol.objective_trace
    assert np.all(np.diff(tr) <= 1e-12 * tr[:-1])


def test_certificate_gap_nonnegative_for_any_feasible_measure():
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = rng.uniform(0.01, 1.0, size=CIRCLE_GRID.size)
        mu = msr.DiscreteMeasure(CIRCLE_GRID, w / w.sum())
        n = int(rng.integers(1, 6))
        z0 = complex(rng.uniform(1.3, 3.0) * np.exp(2j * np.pi * rng.uniform()))
        assert opm.certificate_gap(mu, z0, n, CIRCLE_GRID) >= 0.0


def test_certificate_gap_vanishes_at_solution():
    sol = opm.solve_opm(CIRCLE_GRID, 2.0, 3)
    gap = opm.certificate_gap(sol.measure, 2.0, 3, CIRCLE_GRID)
    assert gap <= 2e-6  # recomputed through the standalone factorization path


def test_budget_exhaustion_reports_max_iters():
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    sol = opm.solve_opm(grid, 3.0, 4, max_iters=3)
    assert sol.status == "max_iters"
    assert sol.iterations <= 4
    assert sol.certificate_gap > 1e-6


def test_converged_status_implies_gap_within_tolerance(monkeypatch):
    """A weight floor that lifts the gap must not leave a "converged" label behind."""
    monkeypatch.setattr(opm, "_WEIGHT_FLOOR", 3e-3)
    sol = opm.solve_opm(CIRCLE_GRID, 2.0, 3)
    assert sol.status != "converged" or sol.certificate_gap <= 1e-6


def test_validation_errors():
    with pytest.raises(EmptySupport):
        opm.solve_opm(CIRCLE_GRID[:3], 2.0, 5)
    with pytest.raises(ValueError):
        opm.solve_opm(CIRCLE_GRID, complex(CIRCLE_GRID[7]), 2)


def test_grid_refinement_stability():
    """Doubling the grid moves the optimum objective by well under half a percent."""
    g = geo.ellipse(2.0, 1.0)
    vals = {}
    for m in (330, 660):
        grid = msr.discretize_boundary(g, m)
        vals[m] = opm.solve_opm(grid, 3.0, 6).objective
    assert abs(vals[660] - vals[330]) / vals[660] < 5e-3


def test_support_diagnostic_flags_max_modulus_nodes():
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    sol = opm.solve_opm(grid, 3.0, 6)
    rep = opm.support_diagnostic(sol, grid)
    assert rep.gap == sol.certificate_gap
    # every weighted node sits where the extremal polynomial is near its max
    assert rep.ratios.min() > 0.999
    assert rep.max_deviation < 1e-3
    assert rep.support.size == sol.measure.support_size


def test_support_diagnostic_rejects_rough_measures():
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    sol = opm.solve_opm(grid, 3.0, 5, max_iters=0)  # frozen at the uniform start
    with pytest.raises(NotOptimal):
        opm.support_diagnostic(sol, grid)


def test_interval_support_concentrates_on_few_nodes():
    grid = msr.discretize_boundary(geo.interval(), 400)
    sol = opm.solve_opm(grid, 2.0, 8)
    assert sol.converged
    # an interval optimum uses about n + 1 atoms, far fewer than the grid
    assert sol.measure.support_size <= 3 * (8 + 1)


def test_solver_deterministic():
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 330)
    a = opm.solve_opm(grid, 3.0, 5)
    b = opm.solve_opm(grid, 3.0, 5)
    assert a.objective == b.objective
    assert a.iterations == b.iterations
    assert np.array_equal(a.measure.weights, b.measure.weights)


def test_tiny_oracle_degree_one():
    """Exhaustive weight search on 4 nodes agrees with the solver at n = 1."""
    rng = np.random.default_rng(9)
    nodes = np.exp(2j * np.pi * rng.uniform(size=4))
    z0 = 2.2 * np.exp(2j * np.pi * rng.uniform())
    sol = opm.solve_opm(nodes, complex(z0), 1, gap_tol=1e-8)

    best = exhaustive_min(nodes, np.array([z0]), 50)[0]  # weight resolution 0.02 on the 3-simplex
    assert sol.objective <= best * (1.0 + 1e-9)
    assert sol.objective == pytest.approx(best, rel=0.02)


def test_degree_one_oracle_matches_the_factorization_loop():
    """The shared closed-form oracle and its numpy grid agree with the explicit loop."""
    rng = np.random.default_rng(9)
    nodes = np.exp(2j * np.pi * rng.uniform(size=4))
    z0 = complex(2.2 * np.exp(2j * np.pi * rng.uniform()))
    steps = 8
    comps = [c for c in itertools.product(range(steps + 1), repeat=4) if sum(c) == steps]
    assert sorted(map(tuple, weight_grid(4, steps).tolist())) == comps
    best = np.inf
    for c in comps:
        w = np.array(c, dtype=float) / steps
        keep = w > 0.0
        if keep.sum() >= 2:
            fac = bergman.factorize(msr.DiscreteMeasure(nodes[keep], w[keep]), 1)
            best = min(best, bergman.bergman_value(fac, z0))
    assert exhaustive_min(nodes, np.array([z0]), steps)[0] == pytest.approx(best, rel=1e-12)


def test_convergence_study_rows():
    g = geo.ellipse(2.0, 1.0)
    rows = opm.convergence_study(g, 3.0, [2, 4], 330)
    assert [r.n for r in rows] == [2, 4]
    for r in rows:
        assert r.status == "converged"
        assert r.growth_ratio == pytest.approx(np.sqrt(r.tilde_bergman), rel=1e-12)
        assert 0.0 < r.tilde_bergman <= 1.0 + 1e-9
        assert r.moment_discrepancy is not None
        assert r.seconds >= 0.0


def test_convergence_study_interval_has_no_moment_column():
    rows = opm.convergence_study(geo.interval(), 2.0, [2], 120)
    assert rows[0].moment_discrepancy is None


def test_convergence_study_records_row_errors():
    # degree 70 needs more than the 64 grid nodes
    rows = opm.convergence_study(geo.interval(), 2.0, [2, 70], 64)
    assert rows[0].status == "converged"
    assert rows[1].status.startswith("error:")
    assert np.isnan(rows[1].objective)
