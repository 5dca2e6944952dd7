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
    entrants at zero weight: the max-score node of each atom's cell (the
    grid nodes nearest that atom), the overall max-score node among them.
    Every atom can so move to a better node in the same round, and the
    Newton step removes the slow endgame of reweighting when the grid
    optimum splits an atom across adjacent nodes.

Before a Newton round a large support is reduced without changing B.  With
L the Cholesky factor of M and Li = L^{-1} its inverse (which
`_Work.core_state` returns, so that no triangular solve is needed),
y = M^{-1} c, k_i = u_i^H y and G the matrix with columns Li u_i k_i, the
weight Hessian is 2 Re(G^H G) = 2 D^T D with D = [Re G; Im G], and a weight
change d with D d = 0 gives (M + dM) y = M y = c: y, B and every node score
stay exactly as they were.  If also sum(d) = 0 the mass stays too.  Stepping
along such directions to a weight boundary (a Caratheodory reduction) leaves
at most rank([D; 1^T]) <= 2n + 3 nodes; a c-optimal design has an optimum
with at most 2n + 1 atoms.  The cell entrants come on top of that set, so
the Newton KKT matrix may be singular; a ridge keeps the solve defined, and
each step is judged by its exact change of B.  A Newton step solves
its quadratic model over the nonnegative weights, not only up to the first
weight boundary, so the nodes it empties leave in one step: the support
moves to the grid optimum in a few steps per round, not one node per step.

Conjugate pairs are folded when z0 is real and conjugation maps the grid
exactly onto itself (the circle, the ellipse and real-coefficient Laurent
curves, whose grids `measure.discretize_boundary` mirrors exactly).  B is
convex in the weights and unchanged by mirroring them, so the mirror average
of an optimum is optimal too: the solver works on the orbits {x, conj x},
one weight per orbit, split equally between x and conj x on output.  The
basis has real coefficients there, so c, y and M are real, and the Im G
columns of x and conj x cancel: D = Re G has n + 1 rows, the reduction
leaves at most n + 2 orbits, and a real c-optimal design needs at most
n + 1 atoms (Elfving 1952).  Real nodes (the segment) are the case where
every node is its own orbit: there U, M, L and G are float64 too.

A purely imaginary z0 = i a is folded through the same path when the
reflection x -> -conj(x) maps the grid exactly onto itself (the segment,
whose grid `measure.discretize_boundary` mirrors exactly as x[m-1-j] =
-x[j]): multiplying the nodes and z0 by -i, which is exact in floating
point, turns that reflection into conjugation and z0 into the real point a.
B, the node scores and the certificate are unchanged by a rotation of the
plane, since the polynomials of degree <= n are, and so are the Euclidean
distances that pick the cell entrants; the orbits on the segment are
{x, -x}.  Real nodes without that symmetry at a nonreal z0 are not folded:
there only c, y, k and G are complex.  No flag selects any of this; `_Work`
reads it off the grid and z0, once.

Each step is accepted only on certified descent, so the objective is
nonincreasing across iterations up to rounding: a reduction is not a step,
and in floating point it moves B (measured up to 1.4e-12 relative).  Each
iterate is certified once, in `_iterate`, and the solution reports the
weights, B and gap of the lowest-gap one as they were certified there.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from . import bergman, geometry as geo, measure as msr
from .errors import EmptySupport, OpmlabError
from .measure import DiscreteMeasure

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
    status: str  # "converged" | "max_iters" | "stalled" | "numerical"
    support: np.ndarray = field(repr=False)
    measure: DiscreteMeasure = field(repr=False)
    grid_size: int
    objective_trace: np.ndarray = field(repr=False)  # the starting B, then one B per step

    @property
    def iterations(self) -> int:
        """Accepted steps: one per trace entry after the start."""
        return self.objective_trace.size - 1

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

    A folded solve (real z0 on a grid that conjugation maps exactly onto
    itself, see the module docstring) keeps only the orbit representatives
    `rep`, the nodes with Im >= 0, in its rows.  Each weight is then the
    mass of an orbit {x, conj x} of `mult` nodes (1 on the real axis, else
    2), which `unfold` splits equally on the original grid; c is real, and
    so is the moment matrix Re(U^H W U), whose two real products use the
    `parts` Re U and Im U.  On real nodes U is real and `parts` is U itself,
    also at a nonreal z0 that is not folded.  Otherwise `rep` is the whole
    grid, `mult` is 1 and `parts` is None: U, c and M are complex.

    At z0 = i a on a grid that x -> -conj(x) maps exactly onto itself the
    work is built on the turned nodes -i x at the real point a, and folded
    as above (on the segment U is then complex, its rows the nodes x <= 0).
    Indices are those of the caller's grid throughout; only `nodes` holds
    turned positions, whose distances are those of the original.
    """

    def __init__(self, nodes: np.ndarray, z0: complex, n: int):
        self.m = nodes.size
        self.n = n
        w0 = np.full(self.m, 1.0 / self.m)
        z0 = complex(z0)
        mirror = None
        if z0.imag == 0.0:
            mirror = bergman._mirror(nodes, w0)
        elif z0.real == 0.0:
            turned = -1j * nodes  # exact: swaps Re and Im and flips one sign
            mirror = bergman._mirror(turned, w0)
            if mirror is not None:
                nodes, z0 = turned, -1j * z0
        fac = bergman.factor_nodes(nodes, w0, n, mirror)
        c = bergman._features(fac, np.asarray([z0]))[:, 0]
        self.fold = mirror is not None
        self.rep = np.flatnonzero(nodes.imag >= 0.0) if self.fold else np.arange(self.m)
        self.mirror = mirror[self.rep] if self.fold else self.rep
        self.mult = np.where(self.mirror == self.rep, 1.0, 2.0)
        self.nodes = nodes[self.rep]
        self._set_basis(np.ascontiguousarray(np.sqrt(self.m) * fac.Q.T), c.real if self.fold else c)

    def _set_basis(self, U: np.ndarray, c: np.ndarray) -> None:
        """Set U and c, and the arrays the products read from U."""
        self.U, self.c = U, c
        self.Uc = U.conj()  # U itself when U is real
        if np.isrealobj(U):
            self.parts = (self.U,)
        elif self.fold:
            self.parts = (np.ascontiguousarray(self.U.real), np.ascontiguousarray(self.U.imag))
        else:
            self.parts = None

    def leading(self, n: int) -> _Work:
        """The work of degree n <= self.n on the same grid and point.

        The leading n + 1 columns of U and entries of c are those of degree
        n (the leading blocks of the Arnoldi factor serve the lower degrees,
        see `bergman.factor_nodes`), so this builds no basis: U is a view.
        """
        sub = copy.copy(self)
        sub.n = n
        sub._set_basis(self.U[:, : n + 1], self.c[: n + 1])
        return sub

    def unfold(self, w: np.ndarray) -> np.ndarray:
        """Node weights on the original grid: each orbit's mass split equally."""
        out = np.zeros(self.m)
        out[self.rep] = out[self.mirror] = w / self.mult
        return out

    def moment_matrix(self, w: np.ndarray) -> np.ndarray:
        s = np.flatnonzero(w)
        if s.size == w.size:
            s = slice(None)  # a view: no copies of U on the full grid
        if self.parts is None:
            M = self.U[s].T @ (w[s, None] * self.Uc[s])
            return 0.5 * (M + M.conj().T)
        M = sum(P[s].T @ (w[s, None] * P[s]) for P in self.parts)
        return 0.5 * (M + M.T)

    def kernel(self, y: np.ndarray, rows=slice(None)) -> np.ndarray:
        """k_i = u_i^H y at `rows`, whose squared moduli are the node scores.

        A real U meets a complex y (real nodes, nonreal z0) as one real
        product with two columns, so U is never cast to complex.
        """
        if np.isrealobj(self.U) and np.iscomplexobj(y):
            t = self.U[rows] @ np.stack((y.real, y.imag), 1)
            return t[:, 0] + 1j * t[:, 1]
        return self.Uc[rows] @ y

    def frame(self, Li: np.ndarray, rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Real matrix D, one column per node of `rows`, with D d = 0 leaving y fixed.

        G = Li U_rows^T diag(k) has the columns Li u_i k_i; the weight
        Hessian is 2 D^T D and the reduction keeps C = [D; 1^T].  D is
        [Re G; Im G], or Re G alone in a folded solve, where the Im G of x
        and conj x cancel (on real nodes at real z0, G is real).
        """
        G = (Li @ self.U[rows].T) * k
        if self.fold:
            return np.ascontiguousarray(G.real)
        return np.vstack((G.real, G.imag))

    def core_state(self, M: np.ndarray):
        """Inverse Cholesky factor, objective, and kernel coefficients y = M^{-1} c.

        The Cholesky factorization is the positive-definiteness test (it
        raises LinAlgError).  Its inverse Li = L^{-1} then turns every
        triangular solve of the solver into a matrix product: M stays
        moderately conditioned in the orthonormal basis, so the explicit
        (n+1) x (n+1) inverse is as accurate as a substitution.
        """
        Li = np.linalg.inv(np.linalg.cholesky(M))
        zc = Li @ self.c
        B = float(np.real(np.vdot(zc, zc)))
        y = Li.conj().T @ zc
        return Li, B, y

    def scores_state(self, M: np.ndarray):
        """Core state plus the node scores |K_n(x_i, z0)|^2."""
        Li, B, y = self.core_state(M)
        scores = np.abs(self.kernel(y)) ** 2
        return Li, B, y, scores


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


def _caratheodory(C: np.ndarray, W: np.ndarray, rank: int):
    """Zero entries of W >= 0 along the null space of C; C @ W stays fixed.

    The null space is spanned by the right singular vectors of C past `rank`.
    Each vector moves W to its first boundary, and the zeroed entry is then
    eliminated from the remaining vectors with the one that has the largest
    entry there, so every multiplier is at most 1 in modulus.  The
    elimination runs in place on the vectors not yet used: the pivot vector
    becomes exactly zero (its multiplier is x / x = 1) and is passed over
    when its turn comes, so no vector is deleted or copied.
    """
    V = np.linalg.svd(C)[2][rank:]  # one null vector per row
    W = W.copy()
    ratios = np.empty(W.size)
    c = 0  # the rows before c are used up
    while c < V.shape[0]:
        v = V[c]
        neg = v < 0.0
        if not neg.any():  # sum(v) = 0 (the mass row): an eliminated vector, or rounding
            c += 1
            continue
        ratios.fill(-np.inf)
        np.divide(W, v, out=ratios, where=neg)  # minus the step to each boundary
        p = int(ratios.argmax())
        W -= ratios[p] * v
        np.maximum(W, 0.0, out=W)
        W[p] = 0.0
        col = V[c:, p]
        j = c + int(np.abs(col).argmax())
        V[c:] -= (col / V[j, p])[:, None] * V[j]  # row j becomes exactly zero
        col[:] = 0.0
    return W


def _reduce_support(work: _Work, w: np.ndarray, M, Li, B: float, y):
    """Caratheodory reduction of a support larger than twice the rows of C.

    Moves weight along the null space of C = [D; 1^T], with D = `_Work.frame`
    of the columns Li u_i k_i / sqrt(B) and Li = L^{-1} the inverse Cholesky
    factor of M (see the module docstring): B, y and the mass stay fixed, and
    at most rank(C) <= 2n + 3 nodes are left.  In a folded solve (real nodes
    at real z0 included) D = Re G, C has n + 2 rows and at most n + 2 orbits
    are left.
    The 1/sqrt(B) scaling keeps the mass row on the scale of the others,
    since B reaches 1e33.  The support is merged in twice as many contiguous
    groups as C has rows, each moving by a common factor (recombination), so
    one small SVD removes about half of them.  The atoms left define the
    cells from which `_iterate` draws the entrants of the round.

    Returns (w, M, Li, B, y) at the reduced weights, B recomputed: rounding
    moves it (measured up to 1.4e-12 relative).  A support of at most twice
    the rows of C is returned as it is.
    """
    pos = np.flatnonzero(w)
    C = np.vstack((work.frame(Li, pos, work.kernel(y, pos) / np.sqrt(B)), np.ones(pos.size)))
    groups = 2 * C.shape[0]
    if pos.size <= groups:
        return w, M, Li, B, y
    sv = np.linalg.svd(C, compute_uv=False)
    rank = int(np.count_nonzero(sv > 1e-12 * sv[0]))
    wp = w[pos]
    live = np.arange(pos.size)
    while live.size > groups:
        starts = np.arange(groups) * live.size // groups
        Wg = np.add.reduceat(wp[live], starts)
        Cw = C[:, live]
        Cw *= wp[live]
        Cg = np.add.reduceat(Cw, starts, axis=1) / Wg
        del Cw
        scale = np.repeat(_caratheodory(Cg, Wg, rank) / Wg, np.diff(starts, append=live.size))
        if np.all(scale > 0.0):
            break  # a null vector always zeroes a group, so only rounding gets here
        wp[live] *= scale
        live = live[scale > 0.0]
    wp[live] = _caratheodory(C[:, live], wp[live], rank)
    wp[wp < _ZERO_WEIGHT * wp.sum()] = 0.0
    w_red = np.zeros_like(w)
    w_red[pos] = wp / wp.sum()
    M_red = work.moment_matrix(w_red)
    return w_red, M_red, *work.core_state(M_red)


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


def _model_step(kkt: np.ndarray, rhs: np.ndarray, w0: np.ndarray):
    """Minimize the quadratic model over {w0 + d >= 0, sum(d) = 0} by a primal active set.

    `kkt` and `rhs` are the bordered system [[H, 1], [1^T, 0]] [d; lam] =
    [g; 0] of the model -g.d + d^T H d / 2 on all nodes.  Each pass solves it
    on the free nodes and moves from the current d toward that solution up
    to the first weight boundary; the node found there is fixed at zero
    (d_j = -w0_j, its pull kkt[:, j] w0_j moved to the right-hand side), so
    nodes only leave.  Nodes at zero weight (at most `_ZERO_WEIGHT`) whose
    direction is negative at the start leave together before any move, as a
    boundary at step length 0, fixed the same way.
    The model decreases along every move, and the loop ends when the
    solution on the free nodes is feasible.  Returns that d, or None when
    the solve yields no usable direction.
    """
    s = w0.size
    free = np.ones(s, dtype=bool)
    b = rhs.copy()
    d = np.zeros(s)
    lim = np.empty(s)
    moved = False
    while True:
        rows = np.append(np.flatnonzero(free), s)
        A = kkt.take(rows, 0).take(rows, 1)
        try:
            sol = np.linalg.solve(A, b[rows])
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(A, b[rows], rcond=None)
        if not np.isfinite(sol).all():
            return None
        target = -w0
        target[free] = sol[:-1]
        step = target - d  # zero at the fixed nodes
        neg = step < 0.0
        if not moved:
            out = neg & (w0 <= _ZERO_WEIGHT)
            if out.any():
                free &= ~out
                d[out] = -w0[out]
                b += kkt[:, np.flatnonzero(out)] @ w0[out]
                continue
        lim.fill(np.inf)
        np.divide(w0 + d, -step, out=lim, where=neg)
        j = int(lim.argmin())
        if lim[j] >= 1.0:
            return target if np.abs(target).max() > 0.0 else None
        d += lim[j] * step
        d[j] = -w0[j]
        free[j] = False
        b += kkt[:, j] * w0[j]
        moved = True


def _newton_solve(work: _Work, w, M, Li, B, y, idx, gap_tol: float, trace: list[float]):
    """Equality-constrained Newton on the weights of the node subset `idx`.

    With Li = L^{-1} the inverse Cholesky factor of M, G = Li U_idx^T diag(k)
    and k_i = u_i^H M^{-1} c, the weight Hessian is H = 2 D^T D, with
    D = [Re G; Im G], or Re G when folded (`_Work.frame`).  In a folded
    solve the weights are orbit masses, and the same H and the same exact
    dB below hold for them.  Directions with D d = 0 and sum(d) = 0 leave
    M^{-1} c, and so B, exactly unchanged, and they make the KKT matrix
    singular.  `_reduce_support` removes them from the support, but the
    zero-weight entrants of an exchange round can bring them back, so `idx`
    may exceed the rank of its C = [D; 1^T], and the quadratic model then
    has no unique minimizer.  The 1e-12 ridge keeps the KKT solve defined
    (its near-null component is what swaps one atom for another), and the
    step stays safe because it is judged by its exact change of B and taken
    only on descent.

    Each step minimizes the quadratic model -|k|^2 . d + d^T H d / 2 over
    the nonnegative weights of unit mass (`_model_step`), from one H: the
    nodes that the model empties leave in one certified step, where a step
    cut at the first weight boundary would drop one node per step.  `idx`
    may hold nodes at zero weight (the entrants); those whose KKT step is
    negative leave before any move, and a node is dropped once a step takes
    it to zero.  The model's point is tried first, then halved along the
    segment from w to it, which stays feasible by convexity: close to K the
    full step can ascend (the segment at x0 = 1.01), and a halved one then
    descends.  Each trial is judged on its normalized weights w' = (w +
    delta) / sum(w + delta) through the exact difference B(w') - B(w) =
    sum_i delta_i (B - Re(conj(k_i) k'_i)), with k' the kernel coefficients
    at w'.  That difference does not cancel, so descent is still resolved
    when it is far below B's rounding.  A step is taken only when it is
    negative, and its B is appended to `trace`; the round ends when no
    trial descends.  The weights keep unit mass.
    Returns (w, M, steps) with M consistent with w.
    """
    steps = 0
    while steps < _NEWTON_STEPS:
        s = idx.size
        if s < 2:
            break
        k = work.kernel(y, idx)  # k_i = u_i^H M^{-1} c
        sc = np.abs(k) ** 2
        if sc.max() / B - 1.0 <= 0.25 * gap_tol:
            break
        D = work.frame(Li, idx, k)
        H = 2.0 * (D.T @ D)
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = H + np.eye(s) * (1e-12 * max(1.0, float(H.diagonal().max())))
        kkt[:s, s] = 1.0
        kkt[s, :s] = 1.0
        rhs = np.zeros(s + 1)
        rhs[:s] = sc  # minus the weight gradient
        dw = _model_step(kkt, rhs, w[idx])
        if dw is None:
            break
        for h in range(30):  # the model's point, then halved toward w
            v = w[idx] + 0.5**h * dw
            v[v <= _ZERO_WEIGHT] = 0.0
            w_try = w.copy()
            w_try[idx] = v
            w_try /= w_try.sum()
            M_try = work.moment_matrix(w_try)
            try:
                Li_try, _, y_try = work.core_state(M_try)
            except np.linalg.LinAlgError:
                continue
            dB = float((v - w[idx]) @ (B - np.real(np.conj(k) * work.kernel(y_try, idx))))
            if dB < 0.0:
                break
        else:
            break  # no trial descends
        w, M, Li, B, y = w_try, M_try, Li_try, B + dB, y_try
        steps += 1
        trace.append(B)
        idx = idx[w[idx] > 0.0]
    return w, M, steps


def solve_opm(
    nodes: np.ndarray,
    z0: complex,
    n: int,
    *,
    gap_tol: float = 1e-6,
    max_iters: int = 20000,
) -> OpmSolution:
    """Minimize B_n(., z0) over probability measures on `nodes`.

    Starts from uniform weights.  Returns a converged solution, or the best
    iterate flagged via `status` when the budget or the numerical floor is
    hit.  The reported objective, gap and weights are those of the best
    certified iterate of `_iterate`, so `status` is "converged" exactly when
    the reported gap is at most `gap_tol`.  A folded solve (real z0 on a
    grid that conjugation maps onto itself, or z0 = i a on one that
    x -> -conj(x) maps onto itself, see the module docstring) gives the two
    nodes of each mirror pair bitwise equal weights, and `support` indexes
    the original grid.
    """
    nodes = _checked(nodes, z0, n)
    return _solve(_Work(nodes, z0, n), nodes, z0, gap_tol, max_iters)


def _checked(nodes: np.ndarray, z0: complex, n: int) -> np.ndarray:
    """The nodes as a flat complex array, once they admit a solve of degree n at z0."""
    nodes = np.asarray(nodes, dtype=complex).ravel()
    if nodes.size < n + 1:
        raise EmptySupport(f"need at least {n + 1} nodes for degree {n}, got {nodes.size}")
    if np.min(np.abs(nodes - z0)) <= 1e-12:
        raise ValueError("prediction point z0 must not be a grid node")
    return nodes


def _solve(
    work: _Work, nodes: np.ndarray, z0: complex, gap_tol: float, max_iters: int
) -> OpmSolution:
    """`solve_opm` on a built work of degree work.n for the grid `nodes` and z0."""
    status, (gap, B, w), trace = _iterate(work, work.mult / work.m, gap_tol, max_iters)
    w = work.unfold(w)
    support = np.flatnonzero(w > 0.0)
    mu = DiscreteMeasure(nodes[support], w[support] / w[support].sum())
    return OpmSolution(
        degree=work.n,
        point=complex(z0),
        objective=B,
        certificate_gap=gap,
        status=status,
        support=support,
        measure=mu,
        grid_size=work.m,
        objective_trace=np.asarray(trace),
    )


def _iterate(work: _Work, w: np.ndarray, gap_tol: float, max_iters: int):
    """Run certified-descent steps until converged, stalled, or out of budget.

    One loop with two phases.  A warmup of multiplicative reweighting steps
    solves the cases whose optimum keeps broad support outright (one step
    from uniform lands on the discretized balayage); it ends at the first
    rejected step or after `_WARMUP_STEPS` steps.  Exchange rounds follow:
    a B-neutral reduction of a large support to at most 2n + 3 nodes, n + 2
    orbits when folded (`_reduce_support`), then a Newton solve on those
    atoms plus one zero-weight entrant per atom cell (`_cell_entrants`),
    among nodes scoring above B (1 + gap_tol / 4), the bound at which
    `_newton_solve` stops.  A round that takes no step ends the solve as
    stalled, because the next round would repeat it.

    Every iterate is certified here, once: its B and gap come from one
    factorization of its moment matrix.  The start is the uniform weights,
    where M = I, so that certification always succeeds.

    An iteration is one accepted step of either type.  A reduction is not a
    step: it moves weight only along directions that leave y = M^{-1} c,
    and so B, as they were up to rounding (measured up to 1.4e-12
    relative), so it neither counts as an iteration nor adds a trace entry;
    Newton continues from the B recomputed at the reduced weights.  The
    objective trace holds the starting B and the B after each accepted
    step, so it has iterations + 1 entries and is nonincreasing up to that
    drift.

    Returns (status, (gap, B, w) of the lowest-gap certified iterate, trace).
    """
    trace: list[float] = []
    best = (np.inf, np.nan, w)
    warmup = True
    it_round = -1
    M = work.moment_matrix(w)
    while True:
        try:
            Li, B, y, scores = work.scores_state(M)
        except np.linalg.LinAlgError:
            return "numerical", best, trace
        if not trace:
            trace.append(B)  # the starting point
        it = len(trace) - 1
        gap = float(scores.max() / B - 1.0)
        if gap < best[0]:
            best = (gap, B, w)  # no step changes weights in place
        if gap <= gap_tol:
            return "converged", best, trace
        if it >= max_iters:
            return "max_iters", best, trace

        if warmup:
            mult = _try_mult(work, w, B, scores) if it < _WARMUP_STEPS else None
            if mult is not None:
                w, M, B = mult
                trace.append(B)
                continue
            warmup = False  # no descending reweighting, or the budget is spent
        if it == it_round:
            return "stalled", best, trace  # the last round took no step; this one would repeat it
        it_round = it

        try:
            w, M, Li, B, y = _reduce_support(work, w, M, Li, B, y)
        except np.linalg.LinAlgError:
            return "numerical", best, trace
        # the max-score node is in the support or heads its own cell
        entrants = _cell_entrants(work.nodes, w, scores, B * (1.0 + 0.25 * gap_tol))
        keep = w != 0.0  # a mask, not np.union1d, which imports numpy.ma (~19 ms)
        keep[entrants] = True
        idx = np.flatnonzero(keep)
        w, M, _ = _newton_solve(work, w, M, Li, B, y, idx, gap_tol, trace)


def certificate_gap(mu: DiscreteMeasure, z0: complex, n: int, grid: np.ndarray) -> float:
    """max over the grid of |K_n(x, z0)|^2 / B_n(mu, z0) - 1.

    Nonnegative for any feasible measure whose support lies in the grid
    (the weighted average of |K_n|^2 over mu equals B_n); zero exactly at a
    grid-optimal prediction measure, where equality holds on the support.
    """
    fac = bergman.factorize(mu, n)
    kabs = np.abs(bergman.kernel_values(fac, grid, z0))
    return float(kabs.max() ** 2 / bergman.bergman_value(fac, z0) - 1.0)


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

    The grid is factored once, at the largest degree it admits; every row
    solves on the leading blocks of that factor (`_Work.leading`), so each
    row equals its own `solve_opm` bitwise.  The first row's `seconds`
    include that build.  Should the build fail, each row factors on its own.
    """
    grid = np.asarray(msr.discretize_boundary(geom, m), dtype=complex)
    phi_abs = abs(geo.exterior_map(geom, z0))
    target = msr.balayage_point_mass(geom, z0, m) if geom.is_curve else None
    t0 = time.perf_counter()
    top = max((nn for nn in degrees if nn < grid.size), default=None)
    try:
        shared = None if top is None else _Work(grid, z0, top)
    except OpmlabError:
        shared = None  # the rows then factor alone, each failing on its own

    def one(nn: int, t0: float) -> ConvergenceRow:
        try:
            _checked(grid, z0, nn)
            work = _Work(grid, z0, nn) if shared is None else shared.leading(nn)
            sol = _solve(work, grid, z0, gap_tol, max_iters)
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

    rows = []
    for nn in degrees:
        rows.append(one(nn, t0))
        t0 = time.perf_counter()
    return rows
