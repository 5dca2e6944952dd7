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

A given start (`solve_opm`'s `start`; in `opm` and `convergence`, that
balayage itself) takes no warmup: it is certified as it is, and at high
degree it already converges with no step.

Each Newton step minimizes its quadratic model over the nonnegative weights
of unit mass on every node (`_newton_step`), and is taken only on an exact
decrease of B.  With L the Cholesky factor of M and Li = L^{-1} its inverse
(which `_Work.core_state` returns, so that no triangular solve is needed),
y = M^{-1} c, k_i = u_i^H y and G the matrix with columns Li u_i k_i, the
weight Hessian is 2 Re(G^H G) = 2 D^T D with D = [Re G; Im G].  With
a = Li c stacked the same way, the scores are g = D^T a, ||a||^2 = B and
D w = a, so the model -g . (v - w) + ||D (v - w)||^2 equals
||D v - t||^2 - B / 4 with t = 3 a / 2: each Newton step is the point of
conv{D_j} nearest t.  Wolfe's minimum-norm-point algorithm finds it on a
corral of at most rank + 1 affinely independent points: nodes and, from a
broad support, the iterate itself (D w = a).  Only a corral of nodes bounds
the new support (2n + 3 atoms; a c-optimal design has an optimum with
2n + 1).  One that keeps the iterate keeps its support, and no step reduces
a support at fixed B, so a broad start can end broad: the circle at
z0 = 1.1i, n = 8, m = 1000, gap_tol 1e-16 ends on every node.

Conjugate pairs are folded when z0 is real and conjugation maps the grid
exactly onto itself (the circle, the ellipse and real-coefficient Laurent
curves, whose grids `measure.discretize_boundary` mirrors exactly).  B is
convex in the weights and unchanged by mirroring them, so the mirror average
of an optimum is optimal too: the solver works on the orbits {x, conj x},
one weight per orbit, split equally between x and conj x on output.  The
basis has real coefficients there, so c, y and M are real, and the Im G
columns of x and conj x cancel: D = Re G has n + 1 rows, a corral holds at
most n + 2 orbits, and a real c-optimal design needs at most n + 1 atoms
(Elfving 1952).  Real nodes (the segment) are the case where every node is
its own orbit: there U, M, L and G are float64 too.

A purely imaginary z0 = i a is folded through the same path when the
reflection x -> -conj(x) maps the grid exactly onto itself (the segment,
whose grid `measure.discretize_boundary` mirrors exactly as x[m-1-j] =
-x[j]): multiplying the nodes and z0 by -i, which is exact in floating
point, turns that reflection into conjugation and z0 into the real point a.
B, the node scores and the certificate are unchanged by a rotation of the
plane, since the polynomials of degree <= n are; the orbits on the segment
are {x, -x}.  Real nodes without that symmetry at a nonreal z0 are not
folded: there only c, y, k and G are complex.  No flag selects any of this;
`_Work` reads it off the grid and z0, once.

Each step is accepted only on certified descent, so the objective is
nonincreasing across iterations up to rounding, and only an accepted step
moves B.  Each step returns the state (Li, B, y) that `_Work.core_state`
computed for the weights it accepted, so no matrix is factored twice;
`_iterate` certifies each iterate once, from that state, and the solution
reports the weights, B and gap of the lowest-gap one as they were certified
there.  A solve stalls when a step finds no descent, or when the best gap
has not fallen for `_STALL_STEPS` steps (a gap_tol below the rounding of
the certificate).
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
_PRICE_FLOOR = 1e-13  # a node must price below -this * B to enter a Newton model
_DEPENDENT = 1e-10  # a seed residual at most this times the largest seed direction is rounding
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


def _mirror(nodes: np.ndarray) -> np.ndarray | None:
    """Index of each node's conjugate, or None unless conjugation maps the
    nodes exactly (bitwise) onto themselves."""
    if not np.any(nodes.imag):
        return np.arange(nodes.size)  # real nodes are their own mirrors
    order = np.lexsort((nodes.imag, nodes.real))
    flip = np.lexsort((-nodes.imag, nodes.real))  # sorts conj(nodes) in the same order
    if not np.array_equal(nodes[order], nodes[flip].conj()):
        return None
    mirror = np.empty_like(order)
    mirror[order] = flip
    return mirror


class _Work:
    """Shared arrays for one solve.

    Basis rows are the orthonormal polynomials of the uniform starting
    measure at the nodes, U[i, k] = q_k(x_i), read off the Arnoldi factor
    (its node rows carry sqrt(mult / m)), so the grid is orthogonalized
    once and never evaluated again.  The moment matrix is the identity at
    the start and stays moderately conditioned along the whole weight path,
    which keeps certificate arithmetic accurate at high degree.

    The fold (see the module docstring) is read off the grid and z0 here,
    once: for the first exact turn t in (1, -i) with t z0 real under which
    conjugation maps the turned nodes t x exactly onto themselves
    (`_mirror`), the rows are the orbit representatives `rep` (Im t x >= 0),
    each weight the mass of an orbit of `mult` nodes (1 on the real axis,
    else 2), which `orbit_mass` sums and `unfold` splits equally.  They are
    factored in real arithmetic (`bergman.factor_nodes`'s `real`), so c and
    M = Re(U^H W U) are real, M formed from the `parts` Re U and Im U.  On
    real nodes U is real and `parts` is U itself, also at a nonreal z0 that
    is not folded.  Otherwise `rep` is the whole grid, `mult` is 1 and
    `parts` is None: U, c and M are complex.  Indices are those of the
    caller's grid throughout.
    """

    def __init__(self, nodes: np.ndarray, z0: complex, n: int):
        self.m = m = nodes.size
        self.n = n
        z0 = complex(z0)
        mirror = None
        for turn in (1.0, -1j):  # exact: -1j swaps Re and Im and flips one sign
            if (turn * z0).imag == 0.0 and (mirror := _mirror(turn * nodes)) is not None:
                nodes, z0 = turn * nodes, turn * z0
                break
        self.fold = mirror is not None
        self.rep = np.flatnonzero(nodes.imag >= 0.0) if self.fold else np.arange(m)
        self.mirror = mirror[self.rep] if self.fold else self.rep
        self.mult = np.where(self.mirror == self.rep, 1.0, 2.0)
        fac = bergman.factor_nodes(nodes[self.rep], self.mult / m, n, self.fold)
        c = bergman._features(fac, np.asarray([z0]))[:, 0]
        U = np.sqrt(m) * (fac.Q / np.sqrt(self.mult)).T
        self._set_basis(np.ascontiguousarray(U), c.real if self.fold else c)

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

    def orbit_mass(self, w: np.ndarray) -> np.ndarray:
        """Each orbit's total of the node weights w on the original grid: `unfold`'s inverse."""
        return w[self.rep] + (self.mult - 1.0) * w[self.mirror]

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

    def split(self, z: np.ndarray) -> np.ndarray:
        """The real vector [Re z; Im z], or Re z alone in a folded solve: the rows of D."""
        return z.real if self.fold else np.concatenate((z.real, z.imag))

    def frame(self, Li: np.ndarray, rows, k: np.ndarray) -> np.ndarray:
        """Real matrix D, one column per node of `rows`: the weight Hessian is 2 D^T D.

        G = Li U_rows^T diag(k) has the columns Li u_i k_i, and D is `split`(G):
        in a folded solve the Im G of x and conj x cancel.
        """
        G = (Li @ self.U[rows].T) * k
        if self.fold:
            return np.ascontiguousarray(G.real)
        return np.vstack((G.real, G.imag))

    def price(self, Li: np.ndarray, k: np.ndarray, x: np.ndarray) -> np.ndarray:
        """D_j^T x for every node j: Re(k_j conj(u_j^H Li^H x)), one product with U."""
        z = x if self.fold else x[: x.size // 2] + 1j * x[x.size // 2 :]
        return np.real(k * np.conj(self.kernel(Li.conj().T @ z)))

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


def _nearest_point(columns, price, t, w, g, center, level: float, tol: float, floor: float):
    """Wolfe's nearest point to t of the convex hull of the columns D_j.

    `columns(idx)` gives D_idx and `price(x)` the products D_j^T x of every
    node, so D is formed only on the corral: at most r + 1 affinely
    independent points (r = t.size) whose weights lam > 0 give x + t
    (Wolfe, Math. Programming 11, 1976).  It starts from the support of w at
    lam = w_S when that has at most r nodes, else from the iterate itself
    (the point D w = `center`) at lam = 1 and the r highest (cyclic) local
    maxima of g on the support, where atoms sit, at lam = 0, less dependent columns.

    Its directions from its first point are an orthonormal Q = Delta T, so
    the minimizer of ||x|| over its affine hull has its weights read off T.
    When they are positive, x moves there (a major cycle) and the node with
    the lowest multiplier mu_j = 2 (D_j^T x - (x + t)^T x) enters
    (`_enter`); otherwise x moves toward it up to the first weight boundary,
    and that point leaves (`_leave`).  The loop stops when no node prices
    below -`floor`, or below -`tol` once ||x||^2 < `level`.  Rounding could
    make it cycle, so it runs at most 4 (r + 1) + 4 |seed| cycles.  Returns
    the weights on the nodes, the iterate's share spread as w.
    """
    m, r = w.size, t.size
    S = np.flatnonzero(w)
    if S.size <= r:
        C, lam = columns(S), w[S]
    else:  # the iterate, then the r highest local maxima of the support's scores
        gS = g[S]
        peak = np.flatnonzero((gS >= np.roll(gS, 1)) & (gS >= np.roll(gS, -1)))
        S = S[np.sort(peak[np.argsort(-gS[peak], kind="stable")[:r]])]
        C = np.column_stack((center, columns(S)))
        S, lam = np.append(m, S), np.append(1.0, np.zeros(S.size))
    E = C[:, 1:] - C[:, :1]  # the seed's directions from its first node
    Q, R = np.linalg.qr(E)
    d = np.abs(R.diagonal())
    if d.size == 0 or d.min() > _DEPENDENT * d.max():
        T = np.linalg.inv(R)
    else:  # pivoted: the largest residual enters first, down to rounding
        Q, T = np.empty((r, 0)), np.empty((0, 0))
        norms = np.einsum("ij,ij->j", E, E)
        least = _DEPENDENT**2 * norms.max()
        order = [0]
        while norms.max() > least:
            i = int(norms.argmax())
            Q, T = _enter(Q, T, C[:, i + 1] - C[:, 0])
            order.append(i + 1)
            E -= np.outer(Q[:, -1], Q[:, -1] @ E)
            norms = np.einsum("ij,ij->j", E, E)
            norms[np.array(order[1:]) - 1] = -1.0
        S, C, lam = S[order], C[:, order], lam[order]
    lam = lam / lam.sum()
    for _ in range(4 * (r + 1) + 4 * S.size):
        beta = -T @ (Q.T @ (C[:, 0] - t))
        alpha = np.append(1.0 - beta.sum(), beta)  # the affine minimizer's weights
        if alpha.min() > 0.0:
            lam = alpha
            x = C @ lam - t
            mu = price(x) - (x + t) @ x  # half the multipliers
            j = int(mu.argmin())
            if mu[j] >= -0.5 * floor or (mu[j] >= -0.5 * tol and x @ x < level):
                break
            col = columns([j])[:, 0]
            grown = _enter(Q, T, col - C[:, 0], x, mu[j])
            if grown is None:
                break
            Q, T = grown
            S, C, lam = np.append(S, j), np.column_stack((C, col)), np.append(lam, 0.0)
        else:
            den = lam - alpha  # positive where alpha <= 0 < lam; zero only at lam = alpha = 0
            ratio = np.where(alpha > 0.0, np.inf, lam / np.maximum(den, np.finfo(float).tiny))
            p = int(ratio.argmin())
            lam = np.maximum(lam + ratio[p] * (alpha - lam), 0.0)
            Q, T = _leave(Q, T, T.sum(0) if p == 0 else T[p - 1], max(p - 1, 0))
            keep = np.arange(S.size) != p
            S, C, lam = S[keep], C[:, keep], lam[keep]
    v = np.zeros(m + 1)
    v[S] = lam
    return v[:m] + v[m] * w


def _enter(Q: np.ndarray, T: np.ndarray, delta: np.ndarray, x=None, price: float = 0.0):
    """Q and T grown by the direction delta, or None when its residual e does not carry `price`.

    At the affine minimizer x, orthogonal to Q, a node's price is e . x; an
    entrant with e . x above half its price lies in the span of Q up to rounding.
    """
    h = Q.T @ delta
    e = delta - Q @ h
    h2 = Q.T @ e  # a second Gram-Schmidt pass keeps Q orthonormal
    e -= Q @ h2
    if x is not None and not e @ x <= 0.5 * price:
        return None
    rho = np.sqrt(e @ e)
    col = np.append(-(T @ (h + h2)), 1.0) / rho  # the new direction's coefficients
    T = np.column_stack((np.vstack((T, np.zeros(h.size))), col))
    return np.column_stack((Q, e / rho)), T


def _leave(Q: np.ndarray, T: np.ndarray, tau: np.ndarray, i: int):
    """Q and T less the direction whose coefficients are tau, and T less row i.

    The Householder reflection v turns tau into a multiple of the last unit
    vector, so every column of Q v but the last is free of that direction.
    """
    v = tau.copy()
    v[-1] += np.copysign(np.sqrt(tau @ tau), tau[-1])
    v *= np.sqrt(2.0 / (v @ v))
    Q = Q[:, :-1] - np.outer(Q @ v, v[:-1])
    return Q, np.delete(T[:, :-1] - np.outer(T @ v, v[:-1]), i, 0)


def _newton_step(work: _Work, w, Li, B, y, k, gap_tol: float):
    """One Newton step whose quadratic model runs over the whole grid.

    The model -g . (v - w) + ||D (v - w)||^2 in the new weights v (g = |k|^2,
    D = `_Work.frame`; orbit masses when folded) is minimized over the
    nonnegative weights of unit mass.  With a = `_Work.split`(Li c),
    g = D^T a, ||a||^2 = B and D w = Li U^T (w k) = Li M y = a, so the
    model is ||D v - t||^2 - B / 4 with t = 3 a / 2: `_nearest_point` finds
    its minimizer, pricing every node by one product with U (`_Work.price`).
    Far from the optimum it is solved only as far as the step can use (an
    inexact Newton step): to tol = B max(gap_tol, gap / 10) / 4, gap that of
    w, once it lies below its value at w, and in any case to the rounding
    of the prices, -`_PRICE_FLOOR` B.

    The model's point is tried first, then halved toward w, which stays
    feasible by convexity (close to K the full step can ascend, as on the
    segment at x0 = 1.01).  A trial is judged on its normalized weights w'
    by the exact difference B(w') - B(w) = sum_i delta_i (B - Re(conj(k_i)
    k'_i)) over the nodes the step changes, k' the kernel coefficients at
    w'; it does not cancel, so descent far below B's rounding is resolved.
    Returns (w', (Li, B, y) as `_Work.core_state` computed it at w',
    B + dB), or None when no trial descends.
    """
    g = np.abs(k) ** 2  # minus the weight gradient
    tol = 0.25 * B * max(gap_tol, 0.1 * (g.max() / B - 1.0))
    a = work.split(Li @ work.c)
    v = _nearest_point(
        lambda idx: work.frame(Li, idx, k[idx]),
        lambda x: work.price(Li, k, x),
        1.5 * a, w, g, a, 0.25 * B, tol, _PRICE_FLOOR * B,
    )
    T = np.flatnonzero(v != w)  # the nodes the step changes
    d = v[T] - w[T]
    for h in range(30 if T.size else 0):  # the model's point, then halved toward w
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
    return None


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
    mass), and anything else raises ValueError.  The discretized balayage of
    the point mass at z0 (`measure.balayage_point_mass`, the limit of the
    optima) is such a start, and at high degree it certifies with no step.
    A folded solve starts from each orbit's total of `start`.  The warmup
    serves `start=None` alone: without it, Newton from uniform weights ends
    elsewhere on the optimal face (see `_iterate`).

    Each iteration is one step, a warmup step or one Newton step over the
    whole grid (the point of conv{D_j} nearest a target, see the module
    docstring), and a solve takes at most `max_iters` of them.  Returns a
    converged solution, or the best iterate flagged via `status` ("stalled":
    no descent, or no fall of the best gap in 40 steps).  The reported
    objective, gap and weights are those of the best certified iterate of `_iterate`,
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
    if start is not None:
        start = np.asarray(start)
        if (
            start.dtype.kind not in "uif"
            or start.shape != (work.m,)
            or not np.all(np.isfinite(start) & (start > 0.0))
        ):
            raise ValueError(f"start: need {work.m} positive finite real weights, one per node")
    w = work.orbit_mass(np.ones(work.m) if start is None else start)
    w /= w.sum()  # uniform: bitwise mult / m, since the orbit sizes sum to m exactly
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
    reweighting only spends steps that Newton would spend better.  The
    uniform start keeps it: from there without it, Newton ends elsewhere on
    the optimal face (other atoms and moments).  Every later iteration is one `_newton_step`, whose model (the point of a
    convex hull nearest a target, found by Wolfe's algorithm) runs over the
    whole grid.  The budget is checked before every step, so a solve takes at
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

    The objective trace holds the starting B and the B after each accepted
    step, so it has iterations + 1 entries and is nonincreasing up to the
    rounding of B itself: each step is taken on an exact decrease of B.

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
    moment_discrepancy: float
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
    rather than aborting the study.  Every row starts from the discretized
    balayage of the point mass, the limit of the optima, with no warmup
    (`solve_opm`'s `start`); a row whose start already certifies takes 0
    iterations, and its moment discrepancy against it is at rounding level.

    The grid is factored once, at the largest degree it admits; every row
    solves on the leading blocks of that factor (`_Work.leading`), so each
    row equals its own `solve_opm` (with the same start) bitwise.  The first
    row's `seconds` include that build.  Should the build fail, each row
    factors on its own.
    """
    grid = np.asarray(msr.discretize_boundary(geom, m), dtype=complex)
    phi_abs = abs(geo.exterior_map(geom, z0))
    target = msr.balayage_point_mass(geom, z0, m)
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
            sol = _solve(work, grid, z0, gap_tol, max_iters, target.weights)
        except OpmlabError as exc:
            dt = time.perf_counter() - t0
            nan = float("nan")
            return ConvergenceRow(nn, nan, nan, nan, nan, nan, 0, dt, f"error: {exc}")
        dt = time.perf_counter() - t0
        tilde = sol.objective / phi_abs ** (2 * nn)
        return ConvergenceRow(
            n=nn,
            objective=sol.objective,
            tilde_bergman=tilde,
            growth_ratio=float(np.sqrt(tilde)),
            moment_discrepancy=msr.moment_discrepancy(sol.measure, target, _K_MOMENTS),
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
