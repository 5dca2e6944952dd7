"""Bergman-type functions, reproducing kernels, and Christoffel quantities.

For a discrete probability measure nu and degree n, the central quantity is

    B_n(nu, z) = sup { |p(z)|^2 : deg p <= n, integral |p|^2 d nu <= 1 }
               = sum_{k<=n} |q_k(z)|^2,

the diagonal of the reproducing kernel of the degree-n polynomials in
L^2(nu), with q_0, ..., q_n the orthonormal polynomials of nu; its
reciprocal is the Christoffel function.  The q_k come from weighted Arnoldi
(Stieltjes) orthogonalization of 1, z, ..., z^n on the nodes ("Vandermonde
with Arnoldi", Brubeck, Nakatsukasa & Trefethen 2021): each new vector is z
times the last one, orthogonalized against all earlier ones, and the
coefficients form a Hessenberg matrix H with z q_k = sum_{j<=k+1} H[j,k] q_j.
That recurrence evaluates the q_k anywhere.  No monomial basis, moment
matrix or triangular solve is involved, so no Vandermonde condition number
limits the degree; what remains is a rank test (a vanishing subdiagonal of
H means the nodes do not determine the next degree).

Tilde-normalized variants divide out the exterior growth |Phi(z)|^{2n}; they
are the quantities whose near-monotonicity in n characterizes optimal
prediction measures on curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import CurveRequired, NotOptimal, RankDeficient
from .measure import DiscreteMeasure

_GAP_GUARD = 1e-2  # diagnostics demanding near-optimality refuse beyond this


@dataclass(frozen=True)
class _Factor:
    """Orthonormal polynomials of a weighted node set up to some degree."""

    H: np.ndarray  # (n+1, n) Hessenberg: z q_k = sum_{j<=k+1} H[j,k] q_j
    q0: float  # the constant q_0 = 1/sqrt(total weight)
    degree: int
    Q: np.ndarray  # (n+1, m) orthonormal node rows Q[k, i] = sqrt(w_i) q_k(x_i)


def factor_nodes(nodes: np.ndarray, weights: np.ndarray, n: int) -> _Factor:
    """Orthonormalize 1, z, ..., z^n on nodes carrying positive weights.

    The one place where the basis is built and its rank checked.  Classical
    Gram-Schmidt orthogonalizes z q_k against q_0..q_k, with a second pass
    when the first cancels more than 30% of the norm (Kahan-Parlett); a
    subdiagonal H[k+1,k] below 1e-14 of the norm of z q_k means the nodes do
    not determine degree k+1.  The leading blocks serve lower degrees.
    """
    if nodes.size < n + 1:
        raise RankDeficient(
            f"degree {n} needs at least {n + 1} support points, have {nodes.size}"
        )
    root_w = np.sqrt(weights)
    q0 = 1.0 / float(np.linalg.norm(root_w))
    Q = np.empty((n + 1, nodes.size), dtype=complex)
    Q[0] = root_w * q0
    H = np.zeros((n + 1, n), dtype=complex)
    for k in range(n):
        v = nodes * Q[k]
        Qk = Q[: k + 1]
        norm_in = np.linalg.norm(v)
        h = (Qk @ v.conj()).conj()  # Qk^H v, conjugating v rather than Qk
        v -= h @ Qk
        norm = np.linalg.norm(v)
        if norm < 0.7 * norm_in:
            h2 = (Qk @ v.conj()).conj()
            v -= h2 @ Qk
            h += h2
            norm = np.linalg.norm(v)
        if not norm > 1e-14 * norm_in:
            raise RankDeficient(f"nodes do not determine the polynomial space at degree {k + 1}")
        H[: k + 1, k] = h
        H[k + 1, k] = norm
        Q[k + 1] = v / norm
    return _Factor(H=H, q0=q0, degree=n, Q=Q)


def factorize(mu: DiscreteMeasure, n: int) -> _Factor:
    """Factor the measure at degree n over its support."""
    keep = mu.weights > 0.0
    return factor_nodes(mu.nodes[keep], mu.weights[keep], n)


def _recurrence(fac: _Factor, start: np.ndarray, times_z, n: int) -> np.ndarray:
    """Rows q_0..q_n by the Hessenberg recurrence from q_0 = start.

    `times_z` multiplies one row by z: pointwise for values at points, a
    shift for monomial coefficients.
    """
    out = np.empty((n + 1, start.size), dtype=complex)
    out[0] = start
    H = fac.H
    for k in range(n):
        out[k + 1] = (times_z(out[k]) - H[: k + 1, k] @ out[: k + 1]) / H[k + 1, k]
    return out


def _features(fac: _Factor, zs: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Columns y(z) = (q_0(z), ..., q_n(z)), so K(z, u) = y(u)^H y(z); n defaults to the factor's."""
    n = fac.degree if degree is None else degree
    if n > fac.degree:
        raise ValueError(f"factor holds degree {fac.degree}, requested {n}")
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    return _recurrence(fac, np.full(zs.size, fac.q0, dtype=complex), lambda q: zs * q, n)


def bergman_value(fac: _Factor, z: complex, degree: int | None = None) -> float:
    y = _features(fac, np.asarray([z]), degree)
    return float(np.real(np.vdot(y, y)))


def kernel_values(fac: _Factor, zs: np.ndarray, z0: complex) -> np.ndarray:
    """K_n(zs, z0) for an array of evaluation points."""
    y0 = _features(fac, np.asarray([z0]))[:, 0]
    Y = _features(fac, np.asarray(zs))
    return np.conj(y0) @ Y


@dataclass(frozen=True)
class BergmanEvaluation:
    """B_n and the Christoffel function at a point, with tilde variants."""

    degree: int
    point: complex
    bergman: float
    christoffel: float
    tilde_bergman: float | None = None
    tilde_christoffel: float | None = None


def bergman_function(
    mu: DiscreteMeasure,
    n: int,
    z: complex,
    geom: geo.CurveGeometry | None = None,
) -> BergmanEvaluation:
    """Evaluate B_n(mu, z); with a geometry, also the |Phi|^{2n}-normalized forms."""
    fac = factorize(mu, n)
    B = bergman_value(fac, z)
    tilde_b = tilde_c = None
    if geom is not None:
        growth = abs(geo.exterior_map(geom, z)) ** (2 * n)
        tilde_b = B / growth
        tilde_c = growth / B
    return BergmanEvaluation(
        degree=n,
        point=complex(z),
        bergman=B,
        christoffel=1.0 / B,
        tilde_bergman=tilde_b,
        tilde_christoffel=tilde_c,
    )


def grid_gap(fac: _Factor, z0: complex, grid: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Normalized certificate max_x |K(x,z0)|^2 / B(z0) - 1, plus |K| and B."""
    y0 = _features(fac, np.asarray([z0]))[:, 0]
    B = float(np.real(np.vdot(y0, y0)))
    kabs = np.abs(np.conj(y0) @ _features(fac, grid))
    gap = float(kabs.max() ** 2 / B - 1.0)
    return gap, kabs, B


def extremal_growth_polynomial(
    nu: DiscreteMeasure, n: int, z0: complex, grid: np.ndarray
) -> tuple[np.ndarray, float]:
    """Normalized kernel section p_n = K_n(., z0)/max_grid |K_n(., z0)|.

    Returns the monomial coefficients of p_n (ascending powers of z) and
    M_n = |p_n(z0)|.  Requires nu to be near-optimal for z0 on the grid.
    """
    fac = factorize(nu, n)
    gap, kabs, B = grid_gap(fac, z0, np.asarray(grid, dtype=complex))
    if gap > _GAP_GUARD:
        raise NotOptimal(f"certificate gap {gap:.3e} exceeds {_GAP_GUARD}")
    kmax = float(kabs.max())
    M = B / kmax
    y0 = _features(fac, np.asarray([z0]))[:, 0]
    start = np.zeros(fac.degree + 1, dtype=complex)
    start[0] = fac.q0
    # z times a polynomial of degree < n shifts its coefficients up by one
    coeffs = _recurrence(fac, start, lambda c: np.roll(c, 1), fac.degree)
    return np.conj(y0) @ coeffs / kmax, M


def tilde_monotonicity_defect(
    geom: geo.CurveGeometry,
    mu: DiscreteMeasure,
    N: int,
    n: int,
    z: complex,
) -> float:
    """tilde_B_{N-n}(mu, z) / tilde_B_N(mu, z) - 1; <= 0 means weak monotonicity holds.

    Both degrees are evaluated from one factorization (nested leading blocks),
    so the ratio is consistent to roundoff.  Defined on closed curves only.
    """
    if not geom.is_curve:
        raise CurveRequired("tilde monotonicity compares curve geometries only")
    if not (0 < n <= N):
        raise ValueError(f"need 0 < n <= N, got n={n}, N={N}")
    fac = factorize(mu, N)
    B_hi = bergman_value(fac, z)
    B_lo = bergman_value(fac, z, degree=N - n)
    growth = abs(geo.exterior_map(geom, z)) ** (2 * n)
    return float((B_lo / B_hi) * growth - 1.0)
