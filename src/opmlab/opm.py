"""Optimal prediction measures on a fixed boundary grid.

Minimizes B_n(nu, z0) over probability weights nu on given nodes.  This is a
smooth convex problem on the simplex: with M(w) the degree-n moment matrix,
the objective is c^H M(w)^{-1} c, the gradient coordinate at node i is
-|K_n(x_i, z0)|^2, and the weighted average of |K_n(., z0)|^2 equals the
objective itself.  The certificate gap max_x |K_n(x, z0)|^2 / B_n(z0) - 1 is
nonnegative on any feasible measure and zero exactly at a grid-optimal one.

The problem is a c-optimal design, and the solver uses two step types that
share one certificate primitive (the node scores |K_n(x_i, z0)|^2):

  * a multiplicative reweighting w_i -> w_i * score_i / B, which is
    self-normalizing and very effective while the iterate is smooth;
  * a Newton polish of the weights restricted to the heaviest support nodes
    plus the max-score node, which enters at zero weight.  It removes the
    slow endgame of reweighting when the grid optimum splits an atom across
    adjacent nodes, and it is how nodes outside the support gain weight.

Each step is accepted only on certified descent, so the objective is
nonincreasing across iterations.
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
_WARMUP_STEPS = 100
_NEWTON_STEPS = 40


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

    Basis rows are the Bergman features of the uniform starting measure, so
    they are orthonormal at the start: the moment matrix there is the
    identity and stays moderately conditioned along the whole weight path.
    This keeps certificate arithmetic accurate at degrees where raw scaled
    monomials would have condition numbers near 1e10.
    """

    def __init__(self, nodes: np.ndarray, z0: complex, n: int):
        self.m = nodes.size
        self.n = n
        fac = bergman.factor_nodes(nodes, np.full(self.m, 1.0 / self.m), n)
        self.U = bergman._features(fac, nodes).T
        self.Uc = self.U.conj()
        self.c = bergman._features(fac, np.asarray([z0]))[:, 0]

    def moment_matrix(self, w: np.ndarray) -> np.ndarray:
        M = self.U.T @ (w[:, None] * self.Uc)
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


def _newton_solve(work: _Work, w, M, L, B, y, idx, gap_tol: float, on_step):
    """Equality-constrained Newton on the weights of the node subset `idx`.

    Reweighting identifies the support quickly but crawls when the grid
    optimum splits an atom across adjacent nodes (the weight Hessian is then
    nearly singular along the split direction); solving the restricted KKT
    system with H_ij = 2 Re(conj(k_i) S_ij k_j) removes that endgame.

    `idx` may hold a node at zero weight (the max-score entrant).  It stays
    in the solve while its KKT step is nonnegative and is dropped, before
    any step is taken, when that step is negative; a node is also dropped
    once an accepted step takes it to zero.  Every other negative component
    bounds the step at the first weight boundary, and a step is accepted
    only on strict descent.  The entrant changes neither M nor B until an
    accepted step moves it, so the objective never rises.  After each
    accepted step, `on_step` gets the objective of the normalized weights,
    B * sum(w): the KKT solve conserves mass only to rounding, and B scales
    as 1/mass.  Returns (w, M, steps) with M consistent with w.
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
        out = neg & (w[idx] <= 1e-15)
        if np.any(out):
            idx = idx[~out]
            continue
        t = 1.0
        if np.any(neg):
            t = min(1.0, float(np.min(w[idx][neg] / -dw[neg])))
        accepted = False
        for _ in range(30):
            delta = t * dw
            M_try = M + (Us.T * delta) @ work.Uc[idx]
            M_try = 0.5 * (M_try + M_try.conj().T)
            try:
                L_try, B_try, y_try = work.core_state(M_try)
            except np.linalg.LinAlgError:
                B_try = np.inf
            if B_try < B:
                w[idx] = np.clip(w[idx] + delta, 0.0, None)
                M, L, B, y = M_try, L_try, B_try, y_try
                accepted = True
                steps += 1
                on_step(B * w.sum())
                break
            t *= 0.5
        if not accepted:
            break
        idx = idx[w[idx] > 1e-15]
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

    Two phases.  A warmup of multiplicative reweighting steps handles
    iterates whose optimum keeps broad support (it solves the smooth cases
    outright).  It is followed by exchange rounds: a multiplicative cleanup
    of off-support weight, then a restricted Newton solve on the heaviest
    nodes plus the max-score node, which enters at zero weight.  Every step
    is accepted only on exact recomputed descent.

    An iteration is one accepted step of either type.  The objective trace
    holds the starting B and the B after each accepted step, so it has
    iterations + 1 entries and is nonincreasing.

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

    support_cap = max(8 * (work.n + 1), 64)
    no_progress = 0
    prev_B = np.inf
    while True:
        w = w / w.sum()
        M = work.moment_matrix(w)
        try:
            L, B, y, scores = work.scores_state(M)
        except np.linalg.LinAlgError:
            return "numerical", best_w, it
        gap = check(w, B, scores)
        if isinstance(gap, str):
            return gap, best_w, it
        if B >= prev_B * (1.0 - 1e-14):
            no_progress += 1
            if no_progress >= 3:
                return "stalled", best_w, it
        else:
            no_progress = 0
        prev_B = B

        # shed score-deficient weight everywhere before the restricted solve
        mult = _try_mult(work, w, B, scores)
        if mult is not None:
            w, M, B = mult
            step_taken(B)
            try:
                L, B, y, scores = work.scores_state(M)
            except np.linalg.LinAlgError:
                return "numerical", best_w, it

        pos = np.flatnonzero(w > 1e-10)
        if pos.size > support_cap:
            pos = pos[np.argsort(w[pos])[-support_cap:]]
        idx = np.union1d(pos, [int(np.argmax(scores))])
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
