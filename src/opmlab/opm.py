"""Optimal prediction measures on a fixed boundary grid.

Minimizes B_n(nu, z0) over probability weights nu on given nodes.  This is a
smooth convex problem on the simplex: with M(w) the degree-n moment matrix,
the objective is c^H M(w)^{-1} c, the gradient coordinate at node i is
-|K_n(x_i, z0)|^2, and the weighted average of |K_n(., z0)|^2 equals the
objective itself.  The certificate gap max_x |K_n(x, z0)|^2 / B_n(z0) - 1 is
nonnegative on any feasible measure and zero exactly at a grid-optimal one.

The problem is a c-optimal design, and the solver uses two step types that
share one certificate primitive (the node scores |K_n(x_i, z0)|^2):

  * a short warmup of multiplicative reweighting w_i -> w_i * score_i / B,
    which is self-normalizing and lands on smooth optima within a few steps;
  * exchange rounds of Newton steps on the weights of the support plus
    entrants at zero weight: the max-score node and the max-score node of
    each atom's cell (the grid nodes nearest that atom).  Every atom can so
    move to a better node in the same round, and the Newton step removes the
    slow endgame of reweighting when the grid optimum splits an atom across
    adjacent nodes.

Before each Newton round the support is reduced without changing B.  With
L the Cholesky factor of M, y = M^{-1} c, k_i = u_i^H y and G the matrix
with columns L^{-1} u_i k_i, the weight Hessian is 2 Re(G^H G), and a weight
change d with G d = 0 gives (M + dM) y = M y = c: y, B and every node score
stay exactly as they were.  If also sum(d) = 0 the mass stays too.  Stepping
along such directions to a weight boundary (a Caratheodory reduction) leaves
at most rank([Re G; Im G; 1^T]) <= 2n + 3 nodes; a c-optimal design has an
optimum with at most 2n + 1 atoms (n + 1 for real data).  The cell entrants
come on top of that set, so the Newton KKT matrix may be singular; a ridge
keeps the solve defined, and each trial step is judged by its exact change
of B.

Each step is accepted only on certified descent, so the objective is
nonincreasing across iterations; a reduction is not a step and leaves the
objective as it was.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from . import bergman, geometry as geo, measure as msr
from .errors import EmptySupport, NotOptimal, OpmlabError
from .measure import DiscreteMeasure

_WEIGHT_FLOOR = 1e-8
_WARMUP_STEPS = 10
_NEWTON_STEPS = 40
_ZERO_WEIGHT = 1e-15  # a weight at or below this, on unit mass, counts as zero


@dataclass(frozen=True)
class OpmSolution:
    """Converged (or best-so-far) weights for one degree and prediction point."""

    degree: int
    point: complex
    objective: float
    certificate_gap: float
    iterations: int
    status: str  # "converged" | "max_iters" | "stalled" | "numerical"
    support: np.ndarray = field(repr=False)
    measure: DiscreteMeasure = field(repr=False)
    grid_size: int = 0
    objective_trace: np.ndarray | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _Work:
    """Shared arrays for one solve.

    Basis rows are the orthonormal polynomials of the uniform starting
    measure at the nodes, U[i, k] = q_k(x_i), read off the Arnoldi factor
    (its node rows carry sqrt(1/m)), so the grid is orthogonalized once and
    never evaluated again.  The moment matrix is the identity at the start
    and stays moderately conditioned along the whole weight path, which
    keeps certificate arithmetic accurate at high degree.
    """

    def __init__(self, nodes: np.ndarray, z0: complex, n: int):
        self.nodes = nodes
        self.m = nodes.size
        self.n = n
        fac = bergman.factor_nodes(nodes, np.full(self.m, 1.0 / self.m), n)
        self.U = (np.sqrt(self.m) * fac.Q).T
        self.Uc = self.U.conj()
        self.c = bergman._features(fac, np.asarray([z0]))[:, 0]

    def moment_matrix(self, w: np.ndarray) -> np.ndarray:
        s = np.flatnonzero(w)
        if s.size == self.m:
            s = slice(None)  # a view: no copies of U on the full grid
        M = self.U[s].T @ (w[s, None] * self.Uc[s])
        return 0.5 * (M + M.conj().T)

    def core_state(self, M: np.ndarray):
        """Cholesky factor, objective, and kernel coefficient vector y = M^{-1} c."""
        L = np.linalg.cholesky(M)
        zc = solve_triangular(L, self.c, lower=True, check_finite=False)
        B = float(np.real(np.vdot(zc, zc)))
        y = solve_triangular(L, zc, trans="C", lower=True, check_finite=False)
        return L, B, y

    def scores_state(self, M: np.ndarray):
        """Core state plus the node scores |K_n(x_i, z0)|^2."""
        L, B, y = self.core_state(M)
        scores = np.abs(self.Uc @ y) ** 2
        return L, B, y, scores


def _try_mult(work: _Work, w: np.ndarray, B: float, scores: np.ndarray):
    """Multiplicative reweighting w -> w * score / B, accepted only on descent.

    The update is self-normalizing in exact arithmetic (the weighted mean of
    the scores is B) and its direction has slope -Var_w(score)/B, so it
    descends whenever the scores are not constant on the support.  Returns
    (w, M, B) of the reweighted iterate or None.
    """
    w2 = w * scores / B
    total = w2.sum()
    if not np.isfinite(total) or total <= 0.0:
        return None
    w2 /= total
    M2 = work.moment_matrix(w2)
    try:
        _, B2, _ = work.core_state(M2)
    except np.linalg.LinAlgError:
        return None
    if B2 < B:
        return w2, M2, B2
    return None


def _caratheodory(C: np.ndarray, W: np.ndarray, rank: int, favored: int | None = None):
    """Zero entries of W >= 0 along the null space of C; C @ W stays fixed.

    The null space is spanned by the right singular vectors of C past `rank`.
    Each vector moves W to its first boundary, and the zeroed entry is then
    eliminated from the remaining vectors with the one that has the largest
    entry there, so every multiplier is at most 1 in modulus.  Each vector
    is oriented so its entry at `favored` is nonnegative: a zero-weight
    column there can gain weight but never blocks a step.
    """
    V = np.linalg.svd(C)[2][rank:].T
    W = W.copy()
    while V.shape[1]:
        v = V[:, 0]
        if favored is not None and v[favored] < 0.0:
            v = -v
        neg = v < 0.0
        if not np.any(neg):  # sum(v) = 0 (the mass row), so only rounding gets here
            V = V[:, 1:]
            continue
        ratios = np.full(W.size, np.inf)
        ratios[neg] = W[neg] / -v[neg]
        p = int(np.argmin(ratios))
        W = np.clip(W + ratios[p] * v, 0.0, None)
        W[p] = 0.0
        j = int(np.argmax(np.abs(V[p])))
        piv = V[:, j]
        V = np.delete(V, j, axis=1)
        V -= np.outer(piv, V[p] / piv[p])
        V[p] = 0.0
    return W


def _reduce_support(work: _Work, w: np.ndarray, M, L, B: float, y, entrant: int):
    """B-neutral Caratheodory reduction of the support plus the entrant.

    Moves weight along the null space of C = [Re G; Im G; 1^T], with G the
    columns L^{-1} u_i k_i / sqrt(B) (see the module docstring): B, y and
    the mass stay fixed, and at most rank(C) <= 2n + 3 nodes are left.  The
    1/sqrt(B) scaling keeps the mass row on the scale of the others, since
    B reaches 1e33.  Large supports are first merged in 4n + 6 contiguous
    groups that move by a common factor (recombination), so one small SVD
    removes about half of them.  The entrant (the max-score node, at zero
    weight) joins the last pass and may take over the weight of a node that
    leaves.  The atoms left define the cells from which `_iterate` draws
    the other entrants of the round.

    Returns (w, M, L, y) for the reduced weights, or the inputs when no node
    can be removed.  Returns None when the reduction fails: a pass removes
    nothing, the reduced moment matrix is not positive definite, or the
    recomputed B is above B by more than rounding (1e-14 relative).
    """
    # built in place: at the first round pos is the whole grid
    pos = np.union1d(np.flatnonzero(w), [entrant])
    G = solve_triangular(L, work.U[pos].T, lower=True, check_finite=False)
    G *= (work.Uc @ y)[pos] / np.sqrt(B)
    C = np.ones((2 * G.shape[0] + 1, pos.size))
    C[: G.shape[0]] = G.real
    C[G.shape[0] : -1] = G.imag
    del G
    sv = np.linalg.svd(C, compute_uv=False)
    rank = int(np.count_nonzero(sv > 1e-12 * sv[0]))
    if pos.size <= rank:
        return w, M, L, y
    e = int(np.searchsorted(pos, entrant))
    wp = w[pos]
    live = np.flatnonzero(wp)
    groups = 2 * C.shape[0]
    while live.size > groups:
        starts = np.arange(groups) * live.size // groups
        Wg = np.add.reduceat(wp[live], starts)
        Cw = C[:, live]
        Cw *= wp[live]
        Cg = np.add.reduceat(Cw, starts, axis=1) / Wg
        del Cw
        scale = np.repeat(_caratheodory(Cg, Wg, rank) / Wg, np.diff(starts, append=live.size))
        if np.all(scale > 0.0):
            return None  # a null vector always zeroes a group, so only rounding gets here
        wp[live] *= scale
        live = live[scale > 0.0]
    cols = np.union1d(live, [e])
    wp[cols] = _caratheodory(C[:, cols], wp[cols], rank, int(np.searchsorted(cols, e)))
    wp[wp < _ZERO_WEIGHT * wp.sum()] = 0.0
    w_red = np.zeros_like(w)
    w_red[pos] = wp / wp.sum()
    M_red = work.moment_matrix(w_red)
    try:
        L_red, B_red, y_red = work.core_state(M_red)
    except np.linalg.LinAlgError:
        return None
    if B_red > B * (1.0 + 1e-14):
        return None
    return w_red, M_red, L_red, y_red


def _cell_entrants(nodes: np.ndarray, w: np.ndarray, scores: np.ndarray, threshold: float):
    """The max-score node of each atom's cell, among nodes outside the support.

    Cells split the grid by nearest atom (Euclidean distance, so no grid
    order is assumed).  Only nodes whose score exceeds `threshold` qualify.
    """
    atoms = np.flatnonzero(w)
    cand = np.flatnonzero((w == 0.0) & (scores > threshold))
    if cand.size == 0:
        return cand
    cell = np.argmin(np.abs(nodes[cand, None] - nodes[atoms]), axis=1)
    order = np.lexsort((-scores[cand], cell))
    cell = cell[order]
    return cand[order][np.r_[True, cell[1:] != cell[:-1]]]


def _newton_solve(work: _Work, w, M, L, B, y, idx, gap_tol: float, on_step):
    """Equality-constrained Newton on the weights of the node subset `idx`.

    With G = Z diag(k), Z = L^{-1} U_idx^T and k_i = u_i^H M^{-1} c, the
    weight Hessian is H = 2 Re(G^H G).  Directions with G d = 0 and
    sum(d) = 0 leave M^{-1} c, and so B, exactly unchanged, and they make
    the KKT matrix singular.  `_reduce_support` removes them from the
    support, but the zero-weight entrants of an exchange round can bring
    them back, so `idx` may exceed rank([Re G; Im G; 1^T]) and the
    quadratic model then has no unique minimizer.  The 1e-12 ridge keeps
    the KKT solve defined, and the step stays safe because every trial is
    judged by its exact change of B and accepted only on descent.

    `idx` may hold nodes at zero weight (the entrants).  Each stays in the
    solve while its KKT step is nonnegative; those whose step is negative
    are dropped before any step is taken, and a node is also dropped once
    an accepted step takes it to zero.  Every other negative component
    bounds the step at the first weight boundary.  Each trial is judged on
    its normalized weights w' = (w + delta) / sum(w + delta) through the
    exact difference B(w') - B(w) = sum_i delta_i (B - Re(conj(k_i) k'_i)),
    with k' the kernel coefficients at w'.  That difference does not cancel,
    so descent is still resolved when it is far below B's rounding.  A step
    is accepted only when it is negative; `on_step` gets the new B, and the
    weights keep unit mass.  Returns (w, M, steps) with M consistent with w.
    """
    w = w.copy()
    steps = 0
    while steps < _NEWTON_STEPS:
        s = idx.size
        if s < 2:
            break
        Us = work.U[idx]
        k = Us.conj() @ y  # k_i = u_i^H M^{-1} c
        sc = np.abs(k) ** 2
        if sc.max() / B - 1.0 <= 0.25 * gap_tol:
            break
        Z = solve_triangular(L, Us.T, lower=True, check_finite=False)
        S2 = Z.conj().T @ Z
        H = 2.0 * np.real(np.conj(k)[:, None] * S2 * k[None, :])
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = H + np.eye(s) * (1e-12 * max(1.0, float(H.diagonal().max())))
        kkt[:s, s] = 1.0
        kkt[s, :s] = 1.0
        rhs = np.zeros(s + 1)
        rhs[:s] = sc  # minus the weight gradient
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        dw = sol[:s]
        if not np.all(np.isfinite(dw)) or np.abs(dw).max() == 0.0:
            break
        neg = dw < 0.0
        out = neg & (w[idx] <= _ZERO_WEIGHT)
        if np.any(out):
            idx = idx[~out]
            continue
        t = 1.0
        if np.any(neg):
            t = min(1.0, float(np.min(w[idx][neg] / -dw[neg])))
        accepted = False
        for _ in range(30):
            v = w[idx] + t * dw
            v[v <= _ZERO_WEIGHT] = 0.0
            w_try = w.copy()
            w_try[idx] = v
            w_try /= w_try.sum()
            M_try = work.moment_matrix(w_try)
            try:
                L_try, _, y_try = work.core_state(M_try)
            except np.linalg.LinAlgError:
                t *= 0.5
                continue
            dB = float((v - w[idx]) @ (B - np.real(np.conj(k) * (Us.conj() @ y_try))))
            if dB < 0.0:
                w, M, L, B, y = w_try, M_try, L_try, B + dB, y_try
                accepted = True
                steps += 1
                on_step(B)
                break
            t *= 0.5
        if not accepted:
            break
        idx = idx[w[idx] > 0.0]
    return w, M, steps


def solve_opm(
    nodes: np.ndarray,
    z0: complex,
    n: int,
    *,
    gap_tol: float = 1e-6,
    max_iters: int = 20000,
    trace: bool = False,
) -> OpmSolution:
    """Minimize B_n(., z0) over probability measures on `nodes`.

    Starts from uniform weights.  Returns a converged solution, or the best
    iterate flagged via `status` when the budget or the numerical floor is
    hit.  Weights below 1e-8 are zeroed and the rest renormalized on output,
    unless that would drop the support below n + 1 points or lift the
    certificate gap above `gap_tol`; in the latter case the output keeps
    whichever of the floored and unfloored weights has the smaller gap.
    `status` is "converged" only when the reported gap is at most `gap_tol`.
    """
    nodes = np.asarray(nodes, dtype=complex).ravel()
    if nodes.size < n + 1:
        raise EmptySupport(f"need at least {n + 1} nodes for degree {n}, got {nodes.size}")
    if np.min(np.abs(nodes - z0)) <= 1e-12:
        raise ValueError("prediction point z0 must not be a grid node")

    work = _Work(nodes, z0, n)
    m = work.m
    trace_vals: list[float] | None = [] if trace else None
    status, w, it = _iterate(work, np.full(m, 1.0 / m), gap_tol, max_iters, trace_vals)
    w, B, gap, status = _finalize(work, w, status, gap_tol)

    support = np.flatnonzero(w > 0.0)
    mu = DiscreteMeasure(nodes[support], w[support] / w[support].sum())
    return OpmSolution(
        degree=n,
        point=complex(z0),
        objective=B,
        certificate_gap=gap,
        iterations=it,
        status=status,
        support=support,
        measure=mu,
        grid_size=m,
        objective_trace=np.asarray(trace_vals) if trace else None,
    )


def _iterate(
    work: _Work,
    w: np.ndarray,
    gap_tol: float,
    max_iters: int,
    trace_vals: list[float] | None,
):
    """Run certified-descent steps until converged, stalled, or out of budget.

    Two phases.  A warmup of at most `_WARMUP_STEPS` multiplicative
    reweighting steps solves the cases whose optimum keeps broad support
    outright (one step from uniform lands on the discretized balayage).  It
    is followed by exchange rounds: a B-neutral reduction of the support to
    at most 2n + 3 nodes (`_reduce_support`), then a Newton solve on those
    atoms plus one zero-weight entrant per atom cell (`_cell_entrants`),
    among nodes scoring above B (1 + gap_tol / 4), the bound at which
    `_newton_solve` stops.  A round that takes no step ends the solve as
    stalled, because the next round would repeat it.

    An iteration is one accepted step of either type.  A reduction is not a
    step: it moves weight only along directions that leave y = M^{-1} c,
    and so B, exactly as they were, so it neither counts as an iteration
    nor adds a trace entry, and Newton continues from the B before it.  A
    reduction whose recomputed B disagrees beyond rounding ends the solve as
    "numerical" rather than hand Newton a singular system on the whole
    support.  The objective trace holds the starting B and the B after each
    accepted step, so it has iterations + 1 entries and is nonincreasing.

    Returns (status, best-gap weights, iterations used).
    """
    it = 0
    best_gap = np.inf
    best_w = w.copy()

    def step_taken(B):
        nonlocal it
        it += 1
        if trace_vals is not None:
            trace_vals.append(B)

    def check(wv, B, scores):
        """Track the best-gap iterate and classify; returns gap or a terminal status."""
        nonlocal best_gap, best_w
        gap = float(scores.max() / B - 1.0)
        if gap < best_gap:
            best_gap = gap
            best_w = wv.copy()
        if gap <= gap_tol:
            return "converged"
        if it >= max_iters:
            return "max_iters"
        return gap

    M = work.moment_matrix(w)
    for k in range(_WARMUP_STEPS):
        try:
            L, B, y, scores = work.scores_state(M)
        except np.linalg.LinAlgError:
            return "numerical", best_w, it
        if k == 0 and trace_vals is not None:
            trace_vals.append(B)  # the starting point
        gap = check(w, B, scores)
        if isinstance(gap, str):
            return gap, best_w, it
        mult = _try_mult(work, w, B, scores)
        if mult is None:
            break  # no descending reweighting; hand over to Newton rounds
        w, M, B = mult
        step_taken(B)

    it_round = -1
    while True:
        try:
            L, B, y, scores = work.scores_state(M)
        except np.linalg.LinAlgError:
            return "numerical", best_w, it
        gap = check(w, B, scores)
        if isinstance(gap, str):
            return gap, best_w, it
        if it == it_round:
            return "stalled", best_w, it  # the last round took no step; this one would repeat it
        it_round = it

        entrant = int(np.argmax(scores))
        try:
            reduced = _reduce_support(work, w, M, L, B, y, entrant)
        except np.linalg.LinAlgError:
            reduced = None
        if reduced is None:
            return "numerical", best_w, it
        w, M, L, y = reduced
        # the max-score entrant is in the support or heads its own cell
        entrants = _cell_entrants(work.nodes, w, scores, B * (1.0 + 0.25 * gap_tol))
        idx = np.union1d(np.flatnonzero(w), entrants)
        w, M, _ = _newton_solve(work, w, M, L, B, y, idx, gap_tol, step_taken)


def _finalize(work: _Work, w: np.ndarray, status: str, gap_tol: float):
    """Apply the weight floor where it keeps the certificate; recompute B and gap.

    The floored weights are kept when they leave at least n + 1 support nodes
    and a gap within `gap_tol`; otherwise the lower-gap of the floored and
    unfloored weights is returned.  A gap above `gap_tol` is never reported
    as converged.  Returns (w, B, gap, status).
    """

    def certify(v):
        v = v / v.sum()
        _, B, _, scores = work.scores_state(work.moment_matrix(v))
        return v, B, float(scores.max() / B - 1.0)

    floored = np.where(w < _WEIGHT_FLOOR, 0.0, w)
    if np.count_nonzero(floored) < work.n + 1:
        out = certify(w)
    else:
        out = certify(floored)
        if out[2] > gap_tol:
            out = min(out, certify(w), key=lambda c: c[2])
    if status == "converged" and out[2] > gap_tol:
        status = "stalled"
    return (*out, status)


def certificate_gap(mu: DiscreteMeasure, z0: complex, n: int, grid: np.ndarray) -> float:
    """max over the grid of |K_n(x, z0)|^2 / B_n(mu, z0) - 1.

    Nonnegative for any feasible measure whose support lies in the grid
    (the weighted average of |K_n|^2 over mu equals B_n); zero exactly at a
    grid-optimal prediction measure, where equality holds on the support.
    """
    fac = bergman.factorize(mu, n)
    gap, _, _ = bergman.grid_gap(fac, z0, np.asarray(grid, dtype=complex))
    return gap


@dataclass(frozen=True)
class SupportReport:
    """How close support nodes sit to the max-modulus set of the extremal polynomial."""

    ratios: np.ndarray
    max_deviation: float
    gap: float
    support: np.ndarray


def support_diagnostic(
    sol: OpmSolution, grid: np.ndarray, tau: float = _WEIGHT_FLOOR
) -> SupportReport:
    """Ratios |p_n(node)| / max_grid |p_n| over support nodes carrying weight > tau."""
    if sol.certificate_gap > bergman._GAP_GUARD:
        raise NotOptimal(f"solution gap {sol.certificate_gap:.3e} exceeds {bergman._GAP_GUARD}")
    mu = sol.measure
    keep = mu.weights > tau
    if not np.any(keep):
        raise EmptySupport(f"no support node carries weight above tau = {tau}")
    fac = bergman.factorize(mu, sol.degree)
    grid = np.asarray(grid, dtype=complex)
    kabs_grid = np.abs(bergman.kernel_values(fac, grid, sol.point))
    kabs_sup = np.abs(bergman.kernel_values(fac, mu.nodes[keep], sol.point))
    ratios = kabs_sup / kabs_grid.max()
    return SupportReport(
        ratios=ratios,
        max_deviation=float(1.0 - ratios.min()),
        gap=sol.certificate_gap,
        support=np.flatnonzero(keep),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    """One degree of a convergence study."""

    n: int
    objective: float
    tilde_bergman: float
    growth_ratio: float
    moment_discrepancy: float | None
    gap: float
    iterations: int
    seconds: float
    status: str


def convergence_study(
    geom: geo.CurveGeometry,
    z0: complex,
    degrees: list[int],
    m: int,
    *,
    gap_tol: float = 1e-6,
    max_iters: int = 20000,
    k_moments: int = 8,
) -> list[ConvergenceRow]:
    """Solve each degree on the canonical m-point grid and tabulate diagnostics.

    Rows that fail numerically are recorded with a status and NaN payload
    rather than aborting the study.  Moment discrepancies compare against the
    discretized balayage of the point mass and exist for curves only.
    """
    grid = msr.discretize_boundary(geom, m)
    phi_abs = abs(geo.exterior_map(geom, z0))
    target = msr.balayage_point_mass(geom, z0, m) if geom.is_curve else None

    def one(nn: int) -> ConvergenceRow:
        t0 = time.perf_counter()
        try:
            sol = solve_opm(grid, z0, nn, gap_tol=gap_tol, max_iters=max_iters)
        except OpmlabError as exc:
            dt = time.perf_counter() - t0
            nan = float("nan")
            return ConvergenceRow(nn, nan, nan, nan, None, nan, 0, dt, f"error: {exc}")
        dt = time.perf_counter() - t0
        tilde = sol.objective / phi_abs ** (2 * nn)
        disc = (
            msr.moment_discrepancy(sol.measure, target, k_moments)
            if target is not None
            else None
        )
        return ConvergenceRow(
            n=nn,
            objective=sol.objective,
            tilde_bergman=tilde,
            growth_ratio=float(np.sqrt(tilde)),
            moment_discrepancy=disc,
            gap=sol.certificate_gap,
            iterations=sol.iterations,
            seconds=dt,
            status=sol.status,
        )

    return [one(nn) for nn in degrees]
