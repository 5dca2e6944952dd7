"""Optimal prediction measures on a fixed boundary grid.

Minimizes B_n(nu, z0) over probability weights nu on given nodes.  This is a
smooth convex problem on the simplex: with M(w) the degree-n moment matrix,
the objective is c^H M(w)^{-1} c, the gradient coordinate at node i is
-|K_n(x_i, z0)|^2, and the weighted average of |K_n(., z0)|^2 equals the
objective itself.  The certificate gap max_x |K_n(x, z0)|^2 / B_n(z0) - 1 is
nonnegative on any feasible measure and zero exactly at a grid-optimal one.

The problem is a c-optimal design, and the solver uses two step types that
share one certificate primitive (the node scores |K_n(x_i, z0)|^2):

  * from uniform weights, a short warmup of multiplicative reweighting
    w_i -> w_i * score_i / B, which is self-normalizing and lands on smooth
    optima within a few steps (near the discretized balayage of the point
    mass, their limit as n grows);
  * Newton steps whose quadratic model runs over the whole grid: each
    iteration is one such step, with no inner loop on a fixed node set.

A given start (`solve_opm`'s `start`; on a curve, that balayage itself)
takes no warmup: it is certified as it is, and at high degree it already
converges with no step.

Each Newton step minimizes its quadratic model over the nonnegative weights
of unit mass on every node, growing the model's node set from the small
side (`_newton_step`), and is taken only on an exact decrease of B.  With
L the Cholesky factor of M and Li = L^{-1} its inverse (which
`_Work.core_state` returns, so that no triangular solve is needed),
y = M^{-1} c, k_i = u_i^H y and G the matrix with columns Li u_i k_i, the
weight Hessian is 2 Re(G^H G) = 2 D^T D with D = [Re G; Im G].  A support
larger than twice the rows of C = [D; 1^T] seeds the model with the
max-score node of each of that many contiguous support groups; a smaller
one seeds it with the support and its cell entrants.  Only when a broad
seed's model does not fall below the iterate's value, or no halving of its
step descends, does the step reduce the support first, without changing B:
a weight change d with D d = 0 and sum(d) = 0 leaves y, B, every node score
and the mass exactly as they were, and stepping along such directions to a
weight boundary (a Caratheodory reduction) leaves at most rank(C) <= 2n + 3
nodes; a c-optimal design has an optimum with at most 2n + 1 atoms.  That
fallback covers exactly broad optima, such as the circle's discretized
Poisson measure, which no sparse seed can tie.

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
nonincreasing across iterations up to rounding: a fallback reduction is not
a step, and in floating point it moves B (measured up to 1.4e-12 relative);
no other step moves B off its certified value.  Each
step returns the state (Li, B, y) that `_Work.core_state` computed for the
weights it accepted, so no matrix is factored twice; `_iterate` certifies
each iterate once, from that state, and the solution reports the weights,
B and gap of the lowest-gap one as they were certified there.  A solve
stalls when a step finds no descent, or when the best gap has not fallen
for `_STALL_STEPS` steps (a gap_tol below the rounding of the certificate).
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
_STALL_STEPS = 40  # a solve whose best gap has not fallen for this many steps stalls
_ZERO_WEIGHT = 1e-15  # a weight at or below this, on unit mass, counts as zero
_RELEASE_TOL = 1e-9  # a fixed node whose multiplier is below -this * max score is freed
_K_MOMENTS = 8  # moments 1..8 enter a convergence row's moment discrepancy


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

    @property
    def groups(self) -> int:
        """Twice the rows of C = [D; 1^T]: n + 2 when folded, else 2n + 3."""
        return 2 * (self.n + 2 if self.fold else 2 * self.n + 3)

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


def _try_mult(work: _Work, w: np.ndarray, B: float, scores: np.ndarray):
    """Multiplicative reweighting w -> w * score / B, accepted only on descent.

    The update is self-normalizing in exact arithmetic (the weighted mean of
    the scores is B) and its direction has slope -Var_w(score)/B, so it
    descends whenever the scores are not constant on the support.  Returns
    (w, (Li, B, y)) of the reweighted iterate or None.
    """
    w2 = w * scores / B
    total = w2.sum()
    if not np.isfinite(total) or total <= 0.0:
        return None
    w2 /= total
    try:
        state = work.core_state(work.moment_matrix(w2))
    except np.linalg.LinAlgError:
        return None
    if state[1] < B:
        return w2, state
    return None


def _caratheodory(C: np.ndarray, W: np.ndarray):
    """Zero entries of W >= 0 along the null space of C; C @ W stays fixed.

    The null space is spanned by the right singular vectors of C past its
    rank, the number of singular values above 1e-12 of the largest.
    Each vector moves W to its first boundary, and the zeroed entry is then
    eliminated from the remaining vectors with the one that has the largest
    entry there, so every multiplier is at most 1 in modulus.  The
    elimination runs in place on the vectors not yet used: the pivot vector
    becomes exactly zero (its multiplier is x / x = 1) and is passed over
    when its turn comes, so no vector is deleted or copied.
    """
    _, sv, V = np.linalg.svd(C)
    V = V[np.count_nonzero(sv > 1e-12 * sv[0]) :]  # one null vector per row
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


def _reduce_support(work: _Work, w: np.ndarray, Li, B: float, y):
    """Caratheodory reduction of a support larger than twice the rows of C.

    Moves weight along the null space of C = [D; 1^T], with D = `_Work.frame`
    of the columns Li u_i k_i / sqrt(B) and Li = L^{-1} the inverse Cholesky
    factor of M (see the module docstring): B, y and the mass stay fixed, and
    at most rank(C) <= 2n + 3 nodes are left.  In a folded solve (real nodes
    at real z0 included) D = Re G, C has n + 2 rows and at most n + 2 orbits
    are left.
    The 1/sqrt(B) scaling keeps the mass row on the scale of the others,
    since B reaches 1e33.  The support is merged in twice as many contiguous
    groups as C has rows (`_Work.groups`), each moving by a common factor
    (recombination), so one small SVD removes about half of them.
    `_newton_step` calls this only as its fallback, when a model seeded on
    a broad support finds no descent; the atoms left then seed its rerun.

    Returns (w, Li, B, y) at the reduced weights, B recomputed: rounding
    moves it (measured up to 1.4e-12 relative).  A support of at most twice
    the rows of C is returned as it is.
    """
    pos = np.flatnonzero(w)
    groups = work.groups
    if pos.size <= groups:
        return w, Li, B, y
    C = np.vstack((work.frame(Li, pos, work.kernel(y, pos) / np.sqrt(B)), np.ones(pos.size)))
    wp = w[pos]
    live = np.arange(pos.size)
    while live.size > groups:
        starts = np.arange(groups) * live.size // groups
        Wg = np.add.reduceat(wp[live], starts)
        Cw = C[:, live]
        Cw *= wp[live]
        Cg = np.add.reduceat(Cw, starts, axis=1) / Wg
        del Cw
        scale = np.repeat(_caratheodory(Cg, Wg) / Wg, np.diff(starts, append=live.size))
        if np.all(scale > 0.0):
            break  # a null vector always zeroes a group, so only rounding gets here
        wp[live] *= scale
        live = live[scale > 0.0]
    wp[live] = _caratheodory(C[:, live], wp[live])
    wp[wp < _ZERO_WEIGHT * wp.sum()] = 0.0
    w_red = np.zeros_like(w)
    w_red[pos] = wp / wp.sum()
    return w_red, *work.core_state(work.moment_matrix(w_red))


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
    (d_j = -w0_j, its pull kkt[:, j] w0_j moved to the right-hand side).
    Nodes at zero weight (at most `_ZERO_WEIGHT`) whose direction is
    negative at the start leave together before any move, as a boundary at
    step length 0, fixed the same way.
    When the solution on the free nodes is feasible, d moves there and the
    fixed nodes' multipliers mu = H d + lam - g are read off: mu_j < 0 means
    that weight on node j lowers the model, so the most negative one (below
    -`_RELEASE_TOL` max|g|) is freed, its pull taken back, and the passes go
    on from d.  So a zero-weight entrant that its first direction fixes
    comes back when the nodes fixed after it turn that direction round.
    The model decreases along every move, and the loop ends when no
    multiplier is negative: d is then the model's minimizer over the
    nonnegative weights.  A strictly convex model admits no cycle, but
    rounding could, so the passes are bounded by 4s; at the bound the
    current feasible d is returned.  Returns d, or None when the solve yields
    no usable direction.
    """
    s = w0.size
    free = np.ones(s, dtype=bool)
    b = rhs.copy()
    d = np.zeros(s)
    lim = np.empty(s)
    moved = False
    for _ in range(4 * s):
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
            d = target
            mu = kkt[:s, :s] @ d + sol[-1] - rhs[:s]  # the fixed nodes' multipliers
            mu[free] = np.inf
            j = int(mu.argmin())
            if mu[j] >= -_RELEASE_TOL * np.abs(rhs[:s]).max():
                break
            free[j] = True  # its weight lowers the model: let it back in
            b -= kkt[:, j] * w0[j]
        else:
            d += lim[j] * step
            d[j] = -w0[j]
            free[j] = False
            b += kkt[:, j] * w0[j]
        moved = True
    return d if np.abs(d).max() > 0.0 else None


def _newton_step(work: _Work, w, Li, B, y, k, gap_tol: float):
    """One Newton step whose quadratic model runs over the whole grid.

    The model -g . (v - w) + ||D (v - w)||^2 in the new weights v (g = |k|^2,
    D = `_Work.frame`, so its Hessian is H = 2 D^T D; orbit masses when
    folded) is minimized over the nonnegative weights of unit mass by column
    generation, as Lawson and Hanson's NNLS and Wolfe's minimum-norm point
    grow their sets.  v is zero off the model's set S, so the nodes of w
    outside S go to zero.  With b = D w, formed once from the support, and
    z = D_S v_S - b, the model's gradient on S is 2 D_S^T z - g_S.

    A support larger than `_Work.groups` (twice the rows of C, the bound of
    `_reduce_support`) seeds S with the max-score node of each of that many
    contiguous support groups, and v_S = w_S renormalized.  A smaller one
    seeds S with the support plus one entrant per atom cell
    (`_cell_entrants`), and v_S = w_S.  Each pass runs `_model_step` on S
    from the last pass's v_S, with H_S grown by the columns that enter, and
    prices every node j by its multiplier mu_j = 2 D_j^T z + lam - g_j:
    D_j^T z is Re(k_j u_j^T Li^T conj(z)), one product with U, so D is
    never formed for all nodes, and lam = v . (g - 2 D^T z) on S by
    complementarity.  The cell entrants (around the atoms of v) of the nodes
    priced below -tol join S, and nodes at zero in both w and v leave it.
    The passes end when none is left to enter, or when a pass does not
    lower the model (rounding could cycle).  The model's value is summed
    from the exact change of each pass, which resolves changes far below B.
    tol = B max(gap_tol, gap / 10) / 4, gap that of w: far from the optimum
    the model is solved only as far as the step can use (an inexact Newton
    step).  S may exceed the rank of [D_S; 1^T]; the 1e-12 ridge keeps the
    KKT solve defined, and the step is safe because it is judged by its
    exact change of B.

    The model's point is tried first, then halved toward w, which stays
    feasible by convexity (close to K the full step can ascend, as on the
    segment at x0 = 1.01).  A trial is judged on its normalized weights w'
    by the exact difference B(w') - B(w) = sum_i delta_i (B - Re(conj(k_i)
    k'_i)) over the nodes the step changes, k' the kernel coefficients at
    w'; it does not cancel, so descent far below B's rounding is resolved.
    From a broad seed the model must also fall below its value at w (zero).
    When it does not, or no trial descends, as at an exactly broad optimum
    (the circle's discretized Poisson measure) that no sparse S can tie,
    the step falls back on `_reduce_support` and reruns the same passes from
    the reduced support, which is small.  Returns (w', (Li, B, y) as
    `_Work.core_state` computed it at w', B + dB), or None when the model
    gives no direction or no trial descends from a small support.
    """
    while True:
        g = np.abs(k) ** 2  # minus the weight gradient
        tol = 0.25 * B * max(gap_tol, 0.1 * (g.max() / B - 1.0))
        pos = np.flatnonzero(w)
        b = work.frame(Li, pos, k[pos]) @ w[pos]  # D w
        broad = pos.size > work.groups
        if broad:  # the max-score node of each contiguous support group
            starts = np.arange(work.groups) * pos.size // work.groups
            group = np.repeat(np.arange(work.groups), np.diff(starts, append=pos.size))
            S = pos[np.lexsort((-g[pos], group))[starts]]
            vS = w[S] / w[S].sum()  # the model's point on S, from which each pass starts
        else:  # the support and its cell entrants
            keep = w != 0.0  # a mask, not np.union1d, which imports numpy.ma (~19 ms)
            keep[_cell_entrants(work.nodes, w, g, B + tol)] = True
            S = np.flatnonzero(keep)
            vS = w[S]
        D = work.frame(Li, S, k[S])
        H = 2.0 * (D.T @ D)
        v = np.zeros_like(w)
        v[S] = vS
        z = D @ vS - b
        q, q_last = z @ z - g @ (v - w), np.inf  # the model's value at v; 0 at v = w
        while True:
            s = S.size
            kkt = np.ones((s + 1, s + 1))
            kkt[:s, :s] = H + np.eye(s) * (1e-12 * max(1.0, float(H.diagonal().max())))
            kkt[s, s] = 0.0
            rhs = np.append(g[S] - 2.0 * (D.T @ z), 0.0)  # minus the model's gradient at vS
            e = _model_step(kkt, rhs, vS) if s > 1 else None
            if e is not None:
                De = D @ e
                q += De @ De - rhs[:s] @ e  # the exact change, resolved far below B
                vS = vS + e
                z = z + De
                v[S] = vS
            zc = z if work.fold else z[: z.size // 2] + 1j * z[z.size // 2 :]
            mu = 2.0 * np.real(k * np.conj(work.kernel(Li.T.conj() @ zc)))  # 2 D_j^T z
            mu += g[S] @ vS - 2.0 * ((z + b) @ z) - g  # lam = v . (g - 2 D^T z) on S
            mu[S] = np.inf
            E = _cell_entrants(work.nodes, v, -mu, tol)
            if E.size == 0 or q >= q_last:
                break
            q_last = q
            pos = np.flatnonzero((w[S] != 0.0) | (vS != 0.0))
            D = np.hstack((D[:, pos], work.frame(Li, E, k[E])))
            X = 2.0 * (D.T @ D[:, pos.size :])  # the columns of H that enter
            H = np.hstack((np.vstack((H.take(pos, 0).take(pos, 1), X[: pos.size].T)), X))
            S = np.append(S[pos], E)
            vS = np.append(vS[pos], np.zeros(E.size))
        T = np.flatnonzero(v != w)  # the nodes the step changes
        d = v[T] - w[T]
        if T.size and (q < 0.0 or not broad):  # a broad seed's model must fall below w's
            for h in range(30):  # the model's point, then halved toward w
                vt = w[T] + 0.5**h * d
                vt[vt <= _ZERO_WEIGHT] = 0.0
                w_try = w.copy()
                w_try[T] = vt
                w_try /= w_try.sum()
                try:
                    trial = work.core_state(work.moment_matrix(w_try))
                except np.linalg.LinAlgError:
                    continue
                kt = work.kernel(trial[2], T)
                dB = float((vt - w[T]) @ (B - np.real(np.conj(k[T]) * kt)))
                if dB < 0.0:
                    return w_try, trial, B + dB
        if not broad:
            return None  # no trial descends
        w, Li, B, y = _reduce_support(work, w, Li, B, y)
        k = work.kernel(y)


def solve_opm(
    nodes: np.ndarray,
    z0: complex,
    n: int,
    *,
    gap_tol: float = 1e-6,
    max_iters: int = 20000,
    start: np.ndarray | None = None,
) -> OpmSolution:
    """Minimize B_n(., z0) over probability measures on `nodes`.

    Starts from uniform weights and a short multiplicative warmup, or, when
    `start` is given, from those weights with no warmup: `start` holds one
    strictly positive, finite weight per node (length nodes.size, any total
    mass), and anything else raises ValueError.  On a curve the discretized
    balayage of the point mass at z0 (`measure.balayage_point_mass`, the
    limit of the optima) is such a start, and at high degree it certifies
    with no step.  A folded solve starts from each orbit's total of `start`.

    Each iteration is one step, a warmup step or one Newton step over the
    whole grid, and a solve takes at most `max_iters` of them.  Returns a
    converged solution, or the best iterate flagged via `status` ("stalled":
    no descent, or no fall of the best gap in 40 steps).  The reported objective,
    gap and weights are those of the best certified iterate of `_iterate`,
    so `status` is "converged" exactly when the reported gap is at most
    `gap_tol`.  A folded solve (real z0 on a grid that conjugation maps
    onto itself, or z0 = i a on one that x -> -conj(x) maps onto itself,
    see the module docstring) gives the two nodes of each mirror pair
    bitwise equal weights, and `support` indexes the original grid.
    """
    nodes = _checked(nodes, z0, n)
    return _solve(_Work(nodes, z0, n), nodes, z0, gap_tol, max_iters, start)


def _checked(nodes: np.ndarray, z0: complex, n: int) -> np.ndarray:
    """The nodes as a flat complex array, once they admit a solve of degree n at z0."""
    nodes = np.asarray(nodes, dtype=complex).ravel()
    if nodes.size < n + 1:
        raise EmptySupport(f"need at least {n + 1} nodes for degree {n}, got {nodes.size}")
    if np.min(np.abs(nodes - z0)) <= 1e-12:
        raise ValueError("prediction point z0 must not be a grid node")
    return nodes


def _solve(
    work: _Work, nodes: np.ndarray, z0: complex, gap_tol: float, max_iters: int, start=None
) -> OpmSolution:
    """`solve_opm` on a built work of degree work.n for the grid `nodes` and z0."""
    if start is None:
        w = work.mult / work.m
    else:
        start = np.asarray(start)
        if (
            start.dtype.kind not in "uif"
            or start.shape != (work.m,)
            or not np.all(np.isfinite(start) & (start > 0.0))
        ):
            raise ValueError(f"start: need {work.m} positive finite real weights, one per node")
        w = start[work.rep] + (work.mult - 1.0) * start[work.mirror]  # each orbit's mass
        w /= w.sum()
    status, (gap, B, w), trace = _iterate(work, w, gap_tol, max_iters, start is None)
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


def _iterate(work: _Work, w: np.ndarray, gap_tol: float, max_iters: int, warmup: bool):
    """Run certified-descent steps until converged, stalled, or out of budget.

    One loop, one step per iteration.  With `warmup` (the uniform start), a
    warmup of multiplicative reweighting steps solves the cases whose
    optimum keeps broad support outright (one step from uniform lands on
    the discretized balayage); it ends at the first rejected step or after
    `_WARMUP_STEPS` steps.  A given start skips it: from the balayage,
    reweighting only spends steps that Newton would spend better.  Every
    later iteration is one `_newton_step`, whose model runs over the whole
    grid.  The budget is checked before every step, so a solve takes at
    most `max_iters` steps.  It ends "stalled" when a Newton step finds no
    descent (the next step would repeat it), or when the best certified gap
    has not fallen for `_STALL_STEPS` steps: below the rounding of the
    certificate the steps still lower B by amounts the gap cannot show.

    Every iterate is certified here, once, from the state (Li, B, y) that
    its step computed: the scores are |u_i^H y|^2.  The only factorization
    here is the start's.  Positive weights on a grid that determines the
    basis keep M positive definite (M = I at the uniform weights), but
    should its Cholesky factorization fail in floating point, the solve
    ends "numerical" with no certified iterate: B is NaN and the gap inf.

    The fallback reduction inside a Newton step (`_reduce_support`) is not
    a step: it leaves y = M^{-1} c, and so B, as they were up to rounding
    (measured up to 1.4e-12 relative), so it adds no trace entry.  The
    objective trace holds the starting B and the B after each accepted
    step, so it has iterations + 1 entries and is nonincreasing up to that
    drift, which arises only on a step that falls back.

    Returns (status, (gap, B, w) of the lowest-gap certified iterate, trace).
    """
    best = (np.inf, np.nan, w)
    try:
        Li, B, y = work.core_state(work.moment_matrix(w))
    except np.linalg.LinAlgError:
        return "numerical", best, [np.nan]
    trace = [B]  # the starting point
    fell = 0  # the iteration at which the best gap last fell
    while True:
        k = work.kernel(y)
        scores = np.abs(k) ** 2
        it = len(trace) - 1
        gap = float(scores.max() / B - 1.0)
        if gap < best[0]:
            best, fell = (gap, B, w), it  # no step changes weights in place
        if gap <= gap_tol:
            return "converged", best, trace
        if it >= max_iters:
            return "max_iters", best, trace
        if it - fell >= _STALL_STEPS:
            return "stalled", best, trace  # steps at the rounding floor, with no gain

        if warmup:
            mult = _try_mult(work, w, B, scores) if it < _WARMUP_STEPS else None
            if mult is not None:
                w, (Li, B, y) = mult
                trace.append(B)
                continue
            warmup = False  # no descending reweighting, or the budget is spent
        try:
            step = _newton_step(work, w, Li, B, y, k, gap_tol)
        except np.linalg.LinAlgError:
            return "numerical", best, trace
        if step is None:
            return "stalled", best, trace  # the next step would repeat this one
        w, (Li, B, y), B_step = step
        trace.append(B_step)


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
) -> list[ConvergenceRow]:
    """Solve each degree on the canonical m-point grid and tabulate diagnostics.

    Rows that fail numerically are recorded with a status and NaN payload
    rather than aborting the study.  On a curve every row starts from the
    discretized balayage of the point mass, the limit of the optima, with
    no warmup (`solve_opm`'s `start`); a row whose start already certifies
    takes 0 iterations, and its moment discrepancy against that balayage,
    which exists for curves only, is then at rounding level.  The segment
    starts from uniform weights.

    The grid is factored once, at the largest degree it admits; every row
    solves on the leading blocks of that factor (`_Work.leading`), so each
    row equals its own `solve_opm` (with the same start) bitwise.  The first
    row's `seconds` include that build.  Should the build fail, each row
    factors on its own.
    """
    grid = np.asarray(msr.discretize_boundary(geom, m), dtype=complex)
    phi_abs = abs(geo.exterior_map(geom, z0))
    target = msr.balayage_point_mass(geom, z0, m) if geom.is_curve else None
    start = None if target is None else target.weights
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
            sol = _solve(work, grid, z0, gap_tol, max_iters, start)
        except OpmlabError as exc:
            dt = time.perf_counter() - t0
            nan = float("nan")
            return ConvergenceRow(nn, nan, nan, nan, None, nan, 0, dt, f"error: {exc}")
        dt = time.perf_counter() - t0
        tilde = sol.objective / phi_abs ** (2 * nn)
        disc = (
            msr.moment_discrepancy(sol.measure, target, _K_MOMENTS)
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
