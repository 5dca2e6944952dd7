import itertools

import numpy as np
import pytest

from degree_one_oracle import exhaustive_min, weight_grid
from model_step_oracle import exact_model_minimizer, model_value
from opmlab import bergman, cli, geometry as geo, measure as msr, opm
from opmlab.errors import EmptySupport, RankDeficient


CIRCLE_GRID = msr.discretize_boundary(geo.unit_circle(), 512)


def assert_descends(trace):
    """The objective trace is nonincreasing up to the rounding of B: every step is
    taken on an exact decrease (the largest rise over the tier-1 solves is 1.4e-15)."""
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
    """ellipse(2,1), z0=3: the optimum's moments equal the discretized balayage's
    through degree 100, reached from uniform weights (a study would start at the
    balayage itself)."""
    g = geo.ellipse(2.0, 1.0)
    grid = msr.discretize_boundary(g, 2020)
    target = msr.balayage_point_mass(g, 3.0, 2020)
    for n in (22, 40, 70, 100):
        sol = opm.solve_opm(grid, 3.0, n, gap_tol=1e-8)
        assert sol.status == "converged", (n, sol.status)
        disc = msr.moment_discrepancy(sol.measure, target, opm._K_MOMENTS)
        assert disc <= 1e-10, (n, disc)


@pytest.mark.parametrize(
    "grid, z0, n, gap_tol",
    [
        (SEGMENT_GRID, 2.0, 30, 1e-8),
        (SEGMENT_GRID, 1j, 30, 1e-8),
        (msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660), 3.0, 8, 1e-7),
    ],
    ids=["segment-x0", "segment-ia", "ellipse-row"],
)
def test_no_moment_matrix_is_factored_twice(monkeypatch, grid, z0, n, gap_tol):
    """Each step hands `_iterate` the state it factored, so within a solve
    every call of `_Work.core_state` meets a new moment matrix."""
    factored = []
    core_state = opm._Work.core_state

    def recording(self, M):
        factored.append(M.tobytes())
        return core_state(self, M)

    monkeypatch.setattr(opm._Work, "core_state", recording)
    assert opm.solve_opm(grid, z0, n, gap_tol=gap_tol).converged
    assert len(set(factored)) == len(factored) > 1


def test_newton_steps_keep_unit_mass(monkeypatch):
    """Every Newton trial is judged on normalized weights, so each accepted step keeps unit mass."""
    sums, warmups = [], []
    newton, mult = opm._newton_step, opm._try_mult

    def recording(*args):
        out = newton(*args)
        if out is not None:
            sums.append(float(out[0].sum()))
        return out

    def counting(*args):
        out = mult(*args)
        warmups.append(out is not None)
        return out

    monkeypatch.setattr(opm, "_newton_step", recording)
    monkeypatch.setattr(opm, "_try_mult", counting)
    sol = opm.solve_opm(SEGMENT_GRID, 2.0, 30, gap_tol=1e-8)
    assert sol.converged
    assert len(sums) == sol.iterations - sum(warmups)  # one accepted step per iteration
    assert max(abs(s - 1.0) for s in sums) <= 1e-14


def test_whole_grid_newton_takes_few_steps():
    """Each Newton step solves its model over the whole grid, so the segment
    endgame and the ellipse row take a few steps, not one round of steps per
    exchange (the rounds took up to 30 and 35 on the segment)."""
    for z0 in (2.0, 1j):
        sol = opm.solve_opm(SEGMENT_GRID, z0, 30, gap_tol=1e-8)
        assert sol.converged
        assert sol.iterations <= 20, (z0, sol.iterations)
    g = geo.ellipse(2.0, 1.0)
    start = msr.balayage_point_mass(g, 3.0, 660).weights  # as its convergence row starts
    sol = opm.solve_opm(msr.discretize_boundary(g, 660), 3.0, 12, gap_tol=1e-7, start=start)
    assert sol.converged
    assert sol.iterations <= 3


def test_benchmark_solves_stay_within_their_work_budget(monkeypatch):
    """The seed-0 benchmark solves (the three segment ops and the ellipse
    sweep) price the whole grid and update the corral's factors a fixed
    number of times: a deterministic counter of the Newton models' work,
    held to the measured counts plus 25%."""
    calls = {"price": 0, "factor": 0}
    price, enter, leave = opm._Work.price, opm._enter, opm._leave

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(opm._Work, "price", counting("price", price))
    monkeypatch.setattr(opm, "_enter", counting("factor", enter))
    monkeypatch.setattr(opm, "_leave", counting("factor", leave))
    for z0, n in ((2.0, 15), (2.0, 30), (1j, 30)):
        assert opm.solve_opm(SEGMENT_GRID, z0, n, gap_tol=1e-8).converged
    rows = opm.convergence_study(geo.ellipse(2.0, 1.0), 3.0, list(range(4, 33, 4)), 660, gap_tol=1e-7)
    assert all(r.status == "converged" for r in rows)
    assert calls["price"] <= 93  # 75 measured
    assert calls["factor"] <= 207  # 166 measured: entries and exits of the corral


def test_cli_segment_solves_stay_within_their_work_budget(monkeypatch, tmp_path):
    """The seed-0 `opm` segment ops start at the segment's balayage, and from
    there Wolfe's seed at the local score maxima holds the Newton models' work
    to the measured counts plus 25%."""
    calls = {"price": 0, "factor": 0}
    price, enter, leave = opm._Work.price, opm._enter, opm._leave

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(opm._Work, "price", counting("price", price))
    monkeypatch.setattr(opm, "_enter", counting("factor", enter))
    monkeypatch.setattr(opm, "_leave", counting("factor", leave))
    for z0, n in (("2,0", 15), ("2,0", 30), ("0,1", 30)):
        argv = ["opm", "--geometry", "interval", "--z0", z0, "--degrees", str(n), "--grid", "2000"]
        assert cli.main([*argv, "--gap-tol", "1e-8", "--out", str(tmp_path)]) == 0
    assert calls["price"] <= 77  # 62 measured
    assert calls["factor"] <= 120  # 96 measured: entries and exits of the corral


@pytest.mark.parametrize("z0, budget", [(2.0, 11), (1j, 12)])
def test_max_iters_bounds_the_steps(z0, budget):
    """The budget is checked before every step: a solve that needs more steps
    reports exactly `max_iters` of them (the rounds once ran past it)."""
    sol = opm.solve_opm(SEGMENT_GRID, z0, 30, gap_tol=1e-8, max_iters=budget)
    assert sol.status == "max_iters"
    assert sol.iterations == budget
    assert sol.objective_trace.size == budget + 1


def _random_model(seed):
    """A Newton step's model on s <= 8 nodes, as `_newton_step` builds it:
    columns D with rank(D) possibly below s, scores g = D^T a with
    B = ||a||^2, unit-mass weights w with some zero-weight nodes, and
    t = D w + a / 2, so that the model is ||D v - t||^2 - B / 4."""
    rng = np.random.default_rng(seed)
    s = int(rng.integers(3, 9))
    D = rng.standard_normal((int(rng.integers(s // 2, s + 1)), s))
    a = rng.standard_normal(D.shape[0])
    w = rng.random(s)
    w[rng.permutation(s)[: int(rng.integers(1, s - 1))]] = 0.0
    w /= w.sum()
    return D, a, w, D @ w + 0.5 * a


def test_nearest_point_is_the_exact_model_minimizer():
    """Wolfe's loop reaches the minimizer over the weights found by
    enumerating every support, from the support as its seed or, when that
    has more nodes than D has rows, from the iterate and the group maxima."""
    broad = 0
    for seed in range(40):
        D, a, w, t = _random_model(seed)
        B = a @ a
        v = opm._nearest_point(
            lambda j: D[:, j], lambda x: D.T @ x, t, w, D.T @ a, D @ w, 0.25 * B, 0.0, 1e-13 * B
        )
        assert np.all(v >= 0.0) and abs(v.sum() - 1.0) <= 1e-14
        ref = exact_model_minimizer(D, t)
        assert np.abs(D @ v - D @ ref).max() <= 1e-10 * np.abs(D @ ref).max(), seed
        assert abs(model_value(D, t, v) - model_value(D, t, ref)) <= 1e-10 * B, seed
        broad += np.count_nonzero(w) > D.shape[0]
    assert broad >= 5


def test_nearest_point_cycles_are_bounded(monkeypatch):
    """Should rounding make the loop cycle, the cycles stop at 4 (r + 1) +
    4 |seed| and the current feasible point is returned.  Here every pricing
    reports node 0 lowest, and its entry is taken without the check that its
    residual carries that price: it enters, leaves at once (t lies beyond
    the segment of nodes 1 and 2, away from node 0), and enters again."""
    enter = opm._enter
    monkeypatch.setattr(opm, "_enter", lambda Q, T, delta, x=None, price=0.0: enter(Q, T, delta))
    D = np.array([[2.0, 1.0, -1.0], [-3.0, 1.0, 1.0]])
    t = np.array([0.0, 2.0])  # nearest the segment of nodes 1 and 2, at (0, 1)
    prices = []

    def lying(x):
        prices.append(x)
        p = D.T @ x
        p[0] = p.min() - 1.0
        return p

    w = np.array([0.0, 0.5, 0.5])
    v = opm._nearest_point(lambda j: D[:, j], lying, t, w, np.ones(3), D @ w, np.inf, 0.0, 1e-13)
    assert len(prices) == (4 * (2 + 1) + 4 * 2) // 2  # a pricing and an exit per two cycles
    np.testing.assert_allclose(v, [0.0, 0.5, 0.5], rtol=0.0, atol=1e-15)


C35 = geo.laurent_curve(1, 0, tuple(0.2 * k**-3.5 for k in range(1, 401)))  # finite smoothness


@pytest.mark.parametrize(
    "geom, m, z0, n, balayage, most",
    [
        (geo.interval(), 2000, 1.0967j, 30, False, 25),
        (geo.ellipse(5.0, 1.0), 1000, 1.1j, 3, True, 35),
        (geo.ellipse(5.0, 1.0), 1000, 1.1j, 8, True, 35),
        (geo.ellipse(5.0, 1.0), 1000, 1.1j, 16, True, 35),
        (C35, 2000, 1 + 1j, 32, True, 120),
    ],
    ids=["segment-1.0967i-n30", "ellipse51-1.1i-n3", "ellipse51-1.1i-n8", "ellipse51-1.1i-n16",
         "c35-1+1i-n32"],
)
def test_nonreal_rounds_keep_their_best_entrant(geom, m, z0, n, balayage, most):
    """At nonreal z0 a round's first KKT solve can give its max-score entrant
    a negative direction; the model step brings it back, so the round does
    not converge without it.  A model step whose nodes only left took 43,
    56, 64, 128 and 386 iterations on these solves (gap_tol 1e-8; the curves
    from the discretized balayage)."""
    start = msr.balayage_point_mass(geom, z0, m).weights if balayage else None
    sol = opm.solve_opm(msr.discretize_boundary(geom, m), z0, n, gap_tol=1e-8, start=start)
    assert sol.converged
    assert sol.iterations <= most
    assert_descends(sol.objective_trace)


@pytest.mark.parametrize("z0", [1.5j, 1 + 1j, 2 + 0.3j])
def test_finite_smoothness_curve_converges_in_few_steps(z0):
    """The paper's regime: a nonreal z0 off a finitely smooth curve, from the
    discretized balayage.  A Newton model over the whole grid converges in a
    few steps; the exchange rounds took 43, 51 and 16 here."""
    start = msr.balayage_point_mass(C35, z0, 500).weights
    sol = opm.solve_opm(msr.discretize_boundary(C35, 500), z0, 16, gap_tol=1e-8, start=start)
    assert sol.converged
    assert sol.iterations <= 10
    assert_descends(sol.objective_trace)


SURVEY = [
    (geo.interval(), 2000, [2, 1j, 1 + 0.5j]),
    (geo.unit_circle(), 1000, [2, 1.1j, 1.5 + 1.5j]),
    (geo.ellipse(2.0, 1.0), 660, [3, 2.2j, 2.5 + 1.5j]),
    (geo.ellipse(5.0, 1.0), 1000, [6, 1.5j, 5 + 1j]),
    (geo.laurent_curve(1, 0, (0, 0.15)), 660, [2, 1.5j, 1.5 + 1j]),
]


def test_survey_converges_within_its_iteration_budget():
    """Sixty uniform-start solves at gap_tol 1e-8 (five geometries, three z0
    each, n = 3, 8, 16, 24) all converge, in at most 700 iterations in all
    (1150 with exchange rounds of Newton steps, 1300 when the model step only
    let nodes leave): a fixed counter of the solver's work."""
    total = 0
    for geom, m, points in SURVEY:
        grid = msr.discretize_boundary(geom, m)
        for z0, n in itertools.product(points, (3, 8, 16, 24)):
            sol = opm.solve_opm(grid, z0, n, gap_tol=1e-8)
            assert sol.converged, (geom.kind, z0, n)
            total += sol.iterations
    assert total <= 700


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
    [
        (SEGMENT_GRID, 2.0),
        (SEGMENT_GRID, 1j),
        (SEGMENT_GRID_OFF, 0.5j),
        (msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660), 3.0),
        (msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660), 1.2j),
    ],
    ids=["segment-2.0-folded", "segment-1j-turned", "segment-off-0.5j", "ellipse21-3-folded",
         "ellipse21-1.2i"],
)
def test_scores_are_the_frame_against_li_c(grid, z0):
    """The identity a Newton step rests on: with a = `_Work.split`(Li c), the
    scores are g = D^T a and ||a||^2 = B, and D w = a, so its model is
    ||D v - 3a/2||^2 - B/4; `_Work.price` is D^T x without forming D."""
    work = opm._Work(grid, z0, 20)
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 1.5, work.mult.size)
    w /= w.sum()
    Li, B, y = work.core_state(work.moment_matrix(w))
    k = work.kernel(y)
    D = work.frame(Li, np.arange(w.size), k)
    a = work.split(Li @ work.c)
    assert np.abs(D.T @ a - np.abs(k) ** 2).max() <= 1e-13 * B
    assert abs(a @ a / B - 1.0) <= 1e-14
    assert np.linalg.norm(D @ w - a) <= 1e-13 * np.sqrt(B)
    x = rng.standard_normal(a.size)
    scale = np.linalg.norm(D, axis=0) * np.linalg.norm(x)
    assert np.all(np.abs(work.price(Li, k, x) - D.T @ x) <= 1e-14 * scale)


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
        # these solves once ended "numerical" on a support reduction, since deleted
        (ELLIPSE21, 1.2j, 20, 2000, 1e-8),
        (ELLIPSE21, 1.2j, 26, 2000, 1e-8),
        (ELLIPSE21, 3.0, 26, 2000, 1e-8),
        (ELLIPSE21, 1.2j, 20, 2000, 1e-10),
        (ELLIPSE21, 1.2j, 22, 2000, 1e-10),
        (ELLIPSE21, 1.2j, 24, 2000, 1e-10),
        (ELLIPSE21, 1.2j, 26, 2000, 1e-10),
        (ELLIPSE21, 3.0, 26, 2000, 1e-10),
        # at the rounding floor from uniform weights; the parent stalled at gap 1.2e-13 after 51 steps
        (ELLIPSE21, 2.05, 64, 2000, 1e-13),
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
        "ellipse21-2.05-n64-1e-13",
        "laurent-2-n24-1e-10",
        "segment-1.01-n16",
        "ellipse51-1.1i-n3",
    ],
)
def test_tight_tolerance_solves_converge(geom, z0, n, m, gap_tol):
    """Sparse complex, wide ellipse, full-support circle, once-numerical,
    rounding-floor and near-boundary optima certify at tight tolerances, with descent."""
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


@pytest.mark.parametrize(
    "geom, m, z0, n, gap_tol, most",
    [(ELLIPSE21, 2000, 2.05, 64, 1e-13, 50), (geo.unit_circle(), 400, 1.1j, 8, 1e-16, 200)],
    ids=["ellipse21-2.05-n64", "circle-m400-1.1i-n8"],
)
def test_rounding_floor_ends_within_a_few_steps(geom, m, z0, n, gap_tol, most):
    """At a gap_tol at or below the certificate's rounding the solve ends
    converged or stalled within a few dozen steps: the rounds crawled 3246
    steps on the ellipse and ran past max_iters (20020) on the circle."""
    start = msr.balayage_point_mass(geom, z0, m).weights if geom.is_curve else None
    sol = opm.solve_opm(msr.discretize_boundary(geom, m), z0, n, gap_tol=gap_tol, start=start)
    assert sol.status in ("converged", "stalled")
    assert sol.iterations <= most
    assert_descends(sol.objective_trace)


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
    its own `solve_opm` from the discretized balayage bitwise."""
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
    start = msr.balayage_point_mass(g, 3.0, 330).weights
    for r, s in zip(rows, sols, strict=True):
        ref = opm.solve_opm(grid, 3.0, r.n, start=start)
        assert (r.objective, r.gap) == (ref.objective, ref.certificate_gap)
        assert r.iterations == ref.iterations
        assert np.array_equal(s.support, ref.support)
        assert np.array_equal(s.measure.weights, ref.measure.weights)


def test_convergence_study_interval_has_a_moment_column():
    rows = opm.convergence_study(geo.interval(), 2.0, [2], 120)
    assert np.isfinite(rows[0].moment_discrepancy)


def test_convergence_study_failed_rows_carry_nan_moments():
    rows = opm.convergence_study(geo.interval(), 2.0, [70], 64)  # 70 needs more than 64 nodes
    assert rows[0].status.startswith("error:")
    assert np.isnan(rows[0].moment_discrepancy)


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

    def failing(nodes, weights, n, real=False):
        if n == 16:
            raise RankDeficient("injected")
        return factor(nodes, weights, n, real)

    monkeypatch.setattr(bergman, "factor_nodes", failing)
    g = geo.ellipse(2.0, 1.0)
    rows = opm.convergence_study(g, 3.0, [4, 8, 16], 330)
    monkeypatch.undo()
    assert rows[2].status == "error: injected"
    grid = msr.discretize_boundary(g, 330)
    start = msr.balayage_point_mass(g, 3.0, 330).weights
    for r in rows[:2]:
        ref = opm.solve_opm(grid, 3.0, r.n, start=start)
        assert r.status == ref.status == "converged"
        assert (r.objective, r.gap, r.iterations) == (ref.objective, ref.certificate_gap, ref.iterations)


@pytest.mark.parametrize(
    "geom, m, degrees",
    [(geo.unit_circle(), 256, [2, 8, 16]), (geo.ellipse(2.0, 1.0), 330, [8, 16, 24])],
    ids=["circle", "ellipse21"],
)
def test_study_rows_that_the_balayage_certifies_take_no_step(monkeypatch, geom, m, degrees):
    """Each curve row starts at the discretized balayage; where that start is
    already within gap_tol, the row reports it with 0 iterations."""
    sols = []
    solve = opm._solve

    def recording(*args):
        sols.append(solve(*args))
        return sols[-1]

    monkeypatch.setattr(opm, "_solve", recording)
    rows = opm.convergence_study(geom, 3.0, degrees, m, gap_tol=1e-7)
    monkeypatch.undo()
    grid = msr.discretize_boundary(geom, m)
    target = msr.balayage_point_mass(geom, 3.0, m)
    certified = 0
    for r, s in zip(rows, sols, strict=True):
        assert r.status == "converged"
        if opm.certificate_gap(target, 3.0, r.n, grid) <= 1e-7:
            certified += 1
            assert r.iterations == 0
            assert np.array_equal(s.support, np.arange(m))
            np.testing.assert_allclose(s.measure.weights, target.weights, rtol=1e-14)
            assert r.moment_discrepancy <= 1e-13
    assert certified >= 2


def test_folded_start_is_merged_per_orbit():
    """A start that is not mirror-symmetric gives each orbit its total, and the
    folded solve still returns bitwise equal weights on x and conj(x)."""
    m = 128
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), m)
    assert opm._Work(grid, 3.0, 6).fold
    start = np.random.default_rng(0).uniform(0.5, 1.5, m)
    sol = opm.solve_opm(grid, 3.0, 6, gap_tol=1e-8, start=start)
    assert sol.converged
    orbits = start + start[-np.arange(m) % m]  # each orbit's total, on both of its nodes
    mu = msr.DiscreteMeasure(grid, orbits / orbits.sum())
    B0 = bergman.bergman_value(bergman.factorize(mu, 6), 3.0)
    assert sol.objective_trace[0] == pytest.approx(B0, rel=1e-10)
    w = np.zeros(m)
    w[sol.support] = sol.measure.weights
    assert np.array_equal(w, w[-np.arange(m) % m])


@pytest.mark.parametrize(
    "edit",
    [lambda s: s[:-1], lambda s: np.r_[s, 1.0], lambda s: s.reshape(2, -1), lambda s: s + 0j]
    + [lambda s, v=v: np.where(np.arange(s.size) == 5, v, s) for v in (0.0, -1.0, np.nan, np.inf)],
    ids=["short", "long", "2d", "complex", "zero", "negative", "nan", "inf"],
)
def test_start_must_be_positive_weights_on_the_nodes(edit):
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 64)
    start = edit(np.full(64, 1.0 / 64))
    with pytest.raises(ValueError, match="start"):
        opm.solve_opm(grid, 3.0, 4, start=start)


def test_start_that_fails_to_factor_ends_numerical(monkeypatch):
    """A Cholesky failure at the start is a `numerical` solve with no certified iterate."""

    def failing(self, M):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(opm._Work, "core_state", failing)
    grid = msr.discretize_boundary(geo.ellipse(2.0, 1.0), 64)
    sol = opm.solve_opm(grid, 3.0, 4, start=np.ones(64))
    assert sol.status == "numerical"
    assert sol.iterations == 0
    assert np.isnan(sol.objective) and sol.certificate_gap == np.inf


def test_ellipse_sweep_takes_no_warmup_step(monkeypatch):
    """The seed-0 `ellipse_sweep` study starts every row at the balayage: no
    multiplicative step, and few steps and factorizations in all (the uniform
    start took 45 iterations, 37 reweightings and 56 factorizations)."""
    calls = {"mult": 0, "core_state": 0}
    try_mult, core_state = opm._try_mult, opm._Work.core_state

    def mult(*args):
        calls["mult"] += 1
        return try_mult(*args)

    def factor(self, M):
        calls["core_state"] += 1
        return core_state(self, M)

    monkeypatch.setattr(opm, "_try_mult", mult)
    monkeypatch.setattr(opm._Work, "core_state", factor)
    rows = opm.convergence_study(geo.ellipse(2.0, 1.0), 3.0, list(range(4, 33, 4)), 660, gap_tol=1e-7)
    assert all(r.status == "converged" for r in rows)
    assert calls["mult"] == 0
    assert sum(r.iterations for r in rows) <= 10
    assert calls["core_state"] <= 20
