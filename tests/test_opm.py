import itertools

import numpy as np
import pytest

from caratheodory_oracle import caratheodory_reference
from degree_one_oracle import exhaustive_min, weight_grid
from opmlab import bergman, geometry as geo, measure as msr, opm
from opmlab.errors import EmptySupport, RankDeficient


CIRCLE_GRID = msr.discretize_boundary(geo.unit_circle(), 512)


def assert_descends(trace):
    """The objective trace is nonincreasing up to the rounding drift of a support reduction."""
    assert np.all(np.diff(trace) <= 1e-12 * trace[:-1])


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
    sol = opm.solve_opm(grid, 3.0, 4)
    tr = sol.objective_trace
    assert tr.size >= 2  # recorded without being asked for
    assert tr[-1] == pytest.approx(sol.objective, rel=1e-12)
    assert_descends(tr)


def test_iterations_count_the_traced_steps():
    """The trace holds the start plus one B per accepted step, on a Newton-heavy solve."""
    grid = msr.discretize_boundary(geo.interval(), 2000)
    sol = opm.solve_opm(grid, 2.0, 30)
    tr = sol.objective_trace
    assert sol.converged
    assert tr.size == sol.iterations + 1
    assert_descends(tr)


SEGMENT_GRID = msr.discretize_boundary(geo.interval(), 2000)
SEGMENT_GRID_OFF = SEGMENT_GRID.copy()  # one node one ulp off its mirror: no fold at i*a
SEGMENT_GRID_OFF[5] = np.nextafter(SEGMENT_GRID[5].real, np.inf)


def test_segment_endgame_needs_no_crawl():
    """Segment n=30 at gap_tol 1e-8 converges on its n + 1 Chebyshev atoms without the one-node crawl."""
    sol = opm.solve_opm(SEGMENT_GRID, 2.0, 30, gap_tol=1e-8)
    tr = sol.objective_trace
    assert sol.converged
    assert sol.iterations <= 300
    assert_descends(tr)
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
    """On a grid holding the Chebyshev extrema the solver reaches T_n(x0)^2 and the exact weights.

    The real-arithmetic solve agrees with the complex one: rotating the grid
    and x0 together by e^{i pi/3} leaves B_n unchanged but gives the nodes
    imaginary parts.
    """
    grid = msr.discretize_boundary(geo.interval(), 1801)  # cos(j pi / 1800); n divides 1800
    nodes, weights, T2 = _hoel_levine(n, x0)
    exact = msr.DiscreteMeasure(nodes, weights)
    assert opm.certificate_gap(exact, x0, n, grid) <= 1e-10
    sol = opm.solve_opm(grid, x0, n, gap_tol=1e-10)
    rot = np.exp(1j * np.pi / 3)
    turned = opm.solve_opm(rot * grid, rot * x0, n, gap_tol=1e-10)
    assert sol.converged and turned.converged
    assert abs(turned.objective / sol.objective - 1.0) <= 1e-13
    assert abs(sol.objective / T2 - 1.0) <= 1e-12
    assert abs(turned.objective / T2 - 1.0) <= 1e-12
    w_exact = np.zeros(grid.size)
    w_exact[np.arange(n + 1) * (1800 // n)] = weights
    w = np.zeros(grid.size)
    w[sol.support] = sol.measure.weights
    assert np.abs(w - w_exact).max() <= 1e-6


FOLD_CASES = [
    *((geo.ellipse(2.0, 1.0), 660, 3.0, n) for n in (4, 8, 12, 20)),
    *((geo.unit_circle(), 512, 2.0, n) for n in (3, 6)),
    *((geo.laurent_curve(1.0, 0.0, (0.0, 0.15)), 600, 2.0, n) for n in (6, 12)),
    (geo.ellipse(5.0, 1.0), 1000, 6.0, 24),
    *((geo.interval(), m, 1j * a, n) for m in (1999, 2000) for n in (15, 30) for a in (0.8731, 1.0)),
]


def _fold_id(geom, m, z0, n):
    return f"{geom.kind}-m{m}-n{n}" + (f"-{z0.imag!r}i" if complex(z0).imag else "")


@pytest.mark.parametrize("geom, m, z0, n", FOLD_CASES, ids=[_fold_id(*case) for case in FOLD_CASES])
def test_folded_solve_matches_the_complex_path(geom, m, z0, n):
    """A symmetric grid at real z0, or the segment at z0 = i a (turned a quarter
    onto the real axis), is solved on its orbits and agrees with the unfolded
    solve of the same grid and z0 turned by e^{i pi/3}; each mirror pair
    (x and conj x, or x and -x on the segment) carries bitwise equal weights."""
    grid = msr.discretize_boundary(geom, m)
    assert opm._Work(grid, z0, n).fold
    sol = opm.solve_opm(grid, z0, n, gap_tol=1e-12)
    rot = np.exp(1j * np.pi / 3)
    assert not opm._Work(rot * grid, rot * z0, n).fold
    turned = opm.solve_opm(rot * grid, rot * z0, n, gap_tol=1e-12)
    assert sol.converged and turned.converged
    assert abs(sol.objective / turned.objective - 1.0) <= 1e-13
    j = np.arange(m)
    mirror = m - 1 - j if geom.kind == "interval" else (-j) % m
    w = np.zeros(m)
    w[sol.support] = sol.measure.weights
    assert np.array_equal(w[mirror], w)
    assert abs(sol.measure.weights.sum() - 1.0) <= 1e-14


def test_fold_needs_exact_symmetry_and_real_z0():
    """One node off its mirror by one ulp, or z0 off the axis, keeps the solve
    unfolded; on the segment the axis is the imaginary one too."""
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    assert opm._Work(grid, 3.0, 4).fold
    assert not opm._Work(grid, 3.0 + 1e-9j, 4).fold
    moved = grid.copy()
    moved[5] = complex(np.nextafter(moved[5].real, np.inf), moved[5].imag)
    work = opm._Work(moved, 3.0, 4)
    assert not work.fold and work.U.shape[0] == grid.size
    work = opm._Work(SEGMENT_GRID, 0.5j, 4)
    assert work.fold and work.U.shape[0] == SEGMENT_GRID.size // 2
    assert not opm._Work(SEGMENT_GRID, 1e-9 + 0.5j, 4).fold
    work = opm._Work(SEGMENT_GRID_OFF, 0.5j, 4)
    assert not work.fold and work.U.shape[0] == SEGMENT_GRID.size


def test_segment_endgame_shapes_take_their_fast_paths():
    """The benchmark's segment ops on the 2000-point grid: real x0 gives a float64
    basis, i a (a quarter turn from a real point) folds the mirror pairs {x, -x}."""
    for x0 in (1.8, 2.0, 2.2):
        work = opm._Work(SEGMENT_GRID, x0, 30)
        assert work.U.dtype == work.c.dtype == np.float64
    for a in (0.8, 1.0, 1.2):
        work = opm._Work(SEGMENT_GRID, 1j * a, 30)
        assert work.fold and work.U.shape == (1000, 31) and work.c.dtype == np.float64


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
    """One entrant per atom cell, and Newton steps that solve their model over the
    nonnegative weights: the ellipse and segment endgames take a few rounds of a
    few steps, not one round per grid node or one step per node that leaves."""
    steps = []
    newton = opm._newton_solve

    def counting(*args):
        out = newton(*args)
        steps.append(out[2])
        return out

    monkeypatch.setattr(opm, "_newton_solve", counting)
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    assert opm.solve_opm(grid, 3.0, 12, gap_tol=1e-7).converged
    assert len(steps) <= 10
    assert max(steps) <= 8
    for z0, most in ((2.0, 30), (1j, 35)):
        steps.clear()
        sol = opm.solve_opm(SEGMENT_GRID, z0, 30, gap_tol=1e-8)
        assert sol.converged
        assert sol.iterations <= most
        assert max(steps) <= 8, (z0, steps)


def test_model_step_fixes_a_tiny_weight_that_leaves(monkeypatch):
    """A node at a weight below `_ZERO_WEIGHT` whose free direction is negative
    leaves once, at d = -w0, and the active set ends."""
    solves = []
    solve = np.linalg.solve

    def counting(A, b):
        solves.append(A.shape[0])
        assert len(solves) <= 4, "the active set does not end"
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    s = 3
    kkt = np.zeros((s + 1, s + 1))
    kkt[:s, :s] = 2.0 * np.eye(s)
    kkt[:s, s] = kkt[s, :s] = 1.0
    rhs = np.array([0.0, 1.0, 1.0, 0.0])  # unconstrained: d = (-1/3, 1/6, 1/6)
    w0 = np.array([1e-16, 0.5, 0.5 - 1e-16])
    d = opm._model_step(kkt, rhs, w0)
    assert d is not None
    assert d[0] == -w0[0]
    assert np.all(w0 + d >= 0.0)
    assert abs(d.sum()) <= 1e-15
    assert solves == [s + 1, s]


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


def test_work_dtype_follows_the_data():
    """Real nodes and x0 give real arrays; on real nodes that are not mirror
    symmetric a nonreal z0 makes only c complex; a folded curve, or the folded
    segment at i a, has real c and M; input that is not symmetric stays complex."""
    w = np.full(SEGMENT_GRID.size, 1.0 / SEGMENT_GRID.size)
    work = opm._Work(SEGMENT_GRID, 2.0, 30)
    assert work.U.dtype == work.c.dtype == work.moment_matrix(w).dtype == np.float64
    work = opm._Work(SEGMENT_GRID_OFF, 0.5j, 30)
    assert work.U.dtype == work.moment_matrix(w).dtype == np.float64
    assert work.c.dtype == np.complex128
    work = opm._Work(SEGMENT_GRID, 0.5j, 30)
    assert work.U.dtype == np.complex128
    assert work.c.dtype == work.moment_matrix(work.mult / work.m).dtype == np.float64
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    work = opm._Work(grid, 3.0, 12)
    assert work.U.dtype == np.complex128
    assert work.c.dtype == work.moment_matrix(work.mult / grid.size).dtype == np.float64
    work = opm._Work(grid, 3.0 + 1e-9j, 12)
    assert work.U.dtype == work.c.dtype == np.complex128
    assert work.moment_matrix(np.full(grid.size, 1.0 / grid.size)).dtype == np.complex128


@pytest.mark.parametrize(
    "grid, z0",
    [(SEGMENT_GRID, 2.0), (SEGMENT_GRID_OFF, 0.5j), (SEGMENT_GRID, 0.5j)],
    ids=["2.0", "0.5j", "0.5j-folded"],
)
def test_support_reduction_keeps_objective_and_mass(grid, z0):
    """The reduction of a mid-solve iterate leaves B (up to rounding) and the
    mass, and at most n + 2 weights when folded (real data, or the segment
    turned from i a: the Elfving bound n + 1 plus the mass row), else 2n + 3;
    it returns the B of the reduced weights, and a support of at most twice
    the rows of C unchanged."""
    n = 30
    work = opm._Work(grid, z0, n)
    w = work.mult / work.m
    M = work.moment_matrix(w)
    for _ in range(50):
        _, B, _, scores = work.scores_state(M)
        w, M, B = opm._try_mult(work, w, B, scores)
    Li, B, y, _ = work.scores_state(M)
    rows = n + 2 if work.fold else 2 * n + 3  # the rows of C = [D; 1^T]
    assert np.count_nonzero(w) > 2 * rows
    reduced = opm._reduce_support(work, w, M, Li, B, y)
    w_red, M_red, _, B_red, _ = reduced
    np.testing.assert_array_equal(M_red, work.moment_matrix(w_red))
    assert B_red == work.core_state(M_red)[1]
    assert abs(B_red / B - 1.0) <= 1e-12
    assert abs(w_red.sum() - 1.0) <= 1e-14
    assert np.all(w_red >= 0.0)
    assert np.count_nonzero(w_red) <= rows
    again = opm._reduce_support(work, *reduced)
    assert all(a is b for a, b in zip(again, reduced))
    extra = 2 * rows - np.count_nonzero(w_red)
    empty = np.flatnonzero(w_red == 0.0)
    w_cut = w_red.copy()  # the reduced support topped up to exactly twice the rows of C
    w_cut[empty[:: empty.size // extra][:extra]] = 1e-3
    w_cut /= w_cut.sum()
    assert np.count_nonzero(w_cut) == 2 * rows
    M_cut = work.moment_matrix(w_cut)
    state = (w_cut, M_cut, *work.core_state(M_cut))
    assert all(a is b for a, b in zip(opm._reduce_support(work, *state), state))


def test_core_state_inverse_factor_matches_a_dense_solve():
    """B and y from the inverse Cholesky factor agree with a dense solve; an
    indefinite matrix raises."""
    n = 30
    work = opm._Work(SEGMENT_GRID, 2.0, n)
    rng = np.random.default_rng(11)
    A = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
    M = A @ A.conj().T / (n + 1) + np.eye(n + 1)  # condition number about 8, as in a solve
    Li, B, y = work.core_state(M)
    y_ref = np.linalg.solve(M, work.c)
    B_ref = float(np.real(np.vdot(work.c, y_ref)))
    assert np.linalg.norm(y - y_ref) <= 1e-13 * np.linalg.norm(y_ref)
    assert abs(B / B_ref - 1.0) <= 1e-13
    assert np.linalg.norm(Li @ M @ Li.conj().T - np.eye(n + 1)) <= 1e-13 * (n + 1)
    M[0, 0] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        work.core_state(M)


ELLIPSE21 = geo.ellipse(2.0, 1.0)


@pytest.mark.parametrize(
    "geom, z0, n, m, gap_tol",
    [
        (geo.interval(), 0.5j, 30, 2000, 1e-8),
        (geo.ellipse(5.0, 1.0), 6.0, 32, 1000, 1e-8),
        (geo.unit_circle(), 1.1j, 8, 1000, 1e-8),
        # a support reduction drifts B by rounding; these solves once ended "numerical" on it
        (ELLIPSE21, 1.2j, 20, 2000, 1e-8),
        (ELLIPSE21, 1.2j, 26, 2000, 1e-8),
        (ELLIPSE21, 3.0, 26, 2000, 1e-8),
        (ELLIPSE21, 1.2j, 20, 2000, 1e-10),
        (ELLIPSE21, 1.2j, 22, 2000, 1e-10),
        (ELLIPSE21, 1.2j, 24, 2000, 1e-10),
        (ELLIPSE21, 1.2j, 26, 2000, 1e-10),
        (ELLIPSE21, 3.0, 26, 2000, 1e-10),
        # the row convergence_study(laurent, 2, [24], 2000, gap_tol=1e-10), which
        # equals its own solve (test_convergence_study_rows_equal_single_solves)
        (geo.laurent_curve(1, 0, (0, 0.15)), 2, 24, 2000, 1e-10),
        # close to K the full Newton model step can ascend; these need its halving
        (geo.interval(), 1.01, 16, 2000, 1e-8),
        (geo.ellipse(5.0, 1.0), 1.1j, 3, 1000, 1e-8),
    ],
    ids=[
        "segment-0.5i-n30",
        "ellipse51-6-n32",
        "circle-1.1i-n8",
        "ellipse21-1.2i-n20-1e-8",
        "ellipse21-1.2i-n26-1e-8",
        "ellipse21-3-n26-1e-8",
        "ellipse21-1.2i-n20-1e-10",
        "ellipse21-1.2i-n22-1e-10",
        "ellipse21-1.2i-n24-1e-10",
        "ellipse21-1.2i-n26-1e-10",
        "ellipse21-3-n26-1e-10",
        "laurent-2-n24-1e-10",
        "segment-1.01-n16",
        "ellipse51-1.1i-n3",
    ],
)
def test_tight_tolerance_solves_converge(geom, z0, n, m, gap_tol):
    """Sparse complex, wide ellipse, full-support circle, reduction-drift and
    near-boundary optima certify at tight tolerances, with descent."""
    sol = opm.solve_opm(msr.discretize_boundary(geom, m), z0, n, gap_tol=gap_tol)
    assert sol.status == "converged"
    assert sol.certificate_gap <= gap_tol
    assert_descends(sol.objective_trace)


@pytest.mark.parametrize("z0", [2.8554, 3.0604, 3.1055])
def test_degree_twelve_ellipse_rows_converge(z0):
    """Degree-12 ellipse sweep rows whose gap sits near 1e-7 still certify, with descent."""
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    sol = opm.solve_opm(grid, z0, 12, gap_tol=1e-7)
    assert sol.status == "converged"
    assert sol.certificate_gap <= 1e-7
    tr = sol.objective_trace
    assert_descends(tr)


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


@pytest.mark.parametrize("max_iters", [20000, 3], ids=["converged", "max_iters"])
def test_reported_certificate_matches_recertification(max_iters):
    """The reported objective and gap are those of the returned measure, recertified alone."""
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    sol = opm.solve_opm(grid, 3.0, 4, max_iters=max_iters)
    assert sol.status == ("converged" if max_iters > 3 else "max_iters")
    B = bergman.bergman_function(sol.measure, 4, 3.0).bergman
    assert sol.objective == pytest.approx(B, rel=1e-12)
    gap = opm.certificate_gap(sol.measure, 3.0, 4, grid)
    assert sol.certificate_gap == pytest.approx(gap, rel=1e-9, abs=1e-14)
    assert (sol.certificate_gap <= 1e-6) == sol.converged


def test_gap_tol_below_rounding_floor_ends_stalled():
    """A gap_tol below B's rounding ends `stalled`, reporting the gap it certified."""
    grid = msr.discretize_boundary(geo.unit_circle(), 1000)
    sol = opm.solve_opm(grid, 1.1j, 8, gap_tol=1e-16)
    assert sol.status == "stalled"
    assert 1e-16 < sol.certificate_gap < 1e-14


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


def test_support_nodes_reach_max_kernel_modulus():
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660)
    sol = opm.solve_opm(grid, 3.0, 6)
    fac = bergman.factorize(sol.measure, sol.degree)
    kabs_grid = np.abs(bergman.kernel_values(fac, grid, sol.point))
    kabs_sup = np.abs(bergman.kernel_values(fac, sol.measure.nodes, sol.point))
    # every weighted node sits where the extremal polynomial is near its max
    assert kabs_sup.min() >= 0.999 * kabs_grid.max()


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


def _random_constraints(rng, rows, cols):
    """A mass row under standard normal rows, as `_reduce_support` builds C."""
    return np.vstack((rng.standard_normal((rows - 1, cols)), np.ones(cols)))


@pytest.mark.parametrize("seed", range(4))
def test_caratheodory_matches_the_deleting_reference(seed):
    """The in-place elimination gives bitwise the weights of the reference that
    deletes each pivot column; C @ W stays and at most rank(C) weights are left."""
    rng = np.random.default_rng(seed)
    r = 6 + 8 * seed
    cases = [_random_constraints(rng, r, 2 * r), _random_constraints(rng, r, 4 * r)]
    C = _random_constraints(rng, r, 3 * r)
    C[1] = 2.0 * C[0]  # rank deficient
    cases.append(C)
    for C in cases:
        sv = np.linalg.svd(C, compute_uv=False)
        rank = int(np.count_nonzero(sv > 1e-12 * sv[0]))
        W = rng.random(C.shape[1])
        W /= W.sum()
        out = opm._caratheodory(C, W, rank)
        assert np.array_equal(out, caratheodory_reference(C, W, rank))
        assert np.abs(C @ out - C @ W).max() <= 1e-13
        assert np.all(out >= 0.0)
        assert np.count_nonzero(out) <= rank


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


def test_convergence_study_rows_equal_single_solves(monkeypatch):
    """The study factors the grid once, at its top degree; each row still equals
    its own `solve_opm` bitwise."""
    sols = []
    solve = opm._solve

    def recording(*args):
        sols.append(solve(*args))
        return sols[-1]

    monkeypatch.setattr(opm, "_solve", recording)
    g = geo.ellipse(2.0, 1.0)
    rows = opm.convergence_study(g, 3.0, [4, 8, 12, 16], 330)
    monkeypatch.undo()
    grid = msr.discretize_boundary(g, 330)
    for r, s in zip(rows, sols, strict=True):
        ref = opm.solve_opm(grid, 3.0, r.n)
        assert (r.objective, r.gap) == (ref.objective, ref.certificate_gap)
        assert r.iterations == ref.iterations
        assert np.array_equal(s.support, ref.support)
        assert np.array_equal(s.measure.weights, ref.measure.weights)


def test_convergence_study_interval_has_no_moment_column():
    rows = opm.convergence_study(geo.interval(), 2.0, [2], 120)
    assert rows[0].moment_discrepancy is None


def test_convergence_study_records_row_errors():
    # degree 70 needs more than the 64 grid nodes
    rows = opm.convergence_study(geo.interval(), 2.0, [2, 70], 64)
    assert rows[0].status == "converged"
    assert rows[1].status.startswith("error:")
    assert np.isnan(rows[1].objective)


def test_convergence_study_rows_survive_a_failed_top_build(monkeypatch):
    """When the top degree's basis cannot be built, each lower row factors on
    its own and equals its own `solve_opm`; the top row records the error."""
    factor = bergman.factor_nodes

    def failing(nodes, weights, n, mirror=None):
        if n == 16:
            raise RankDeficient("injected")
        return factor(nodes, weights, n, mirror)

    monkeypatch.setattr(bergman, "factor_nodes", failing)
    g = geo.ellipse(2.0, 1.0)
    rows = opm.convergence_study(g, 3.0, [4, 8, 16], 330)
    monkeypatch.undo()
    assert rows[2].status == "error: injected"
    grid = msr.discretize_boundary(g, 330)
    for r in rows[:2]:
        ref = opm.solve_opm(grid, 3.0, r.n)
        assert r.status == ref.status == "converged"
        assert (r.objective, r.gap, r.iterations) == (ref.objective, ref.certificate_gap, ref.iterations)
