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
from .errors import CurveRequired, RankDeficient
from .measure import DiscreteMeasure


@dataclass(frozen=True)
class _Factor:
    """Orthonormal polynomials of a weighted node set up to some degree."""

    H: np.ndarray  # (n+1, n) Hessenberg: z q_k = sum_{j<=k+1} H[j,k] q_j
    q0: float  # the constant q_0 = 1/sqrt(total weight)
    degree: int
    Q: np.ndarray  # (n+1, m) node rows Q[k, i] = sqrt(w_i) q_k(x_i)


def factor_nodes(nodes: np.ndarray, weights: np.ndarray, n: int, real: bool = False) -> _Factor:
    """Orthonormalize 1, z, ..., z^n on nodes carrying positive weights.

    The one place where the basis is built and its rank checked.  Classical
    Gram-Schmidt orthogonalizes z q_k against q_0..q_k, with a second pass
    when the first cancels more than 30% of the norm (Kahan-Parlett); a
    subdiagonal H[k+1,k] below 1e-14 of the norm of z q_k means the nodes do
    not determine degree k+1.  The leading blocks serve lower degrees: pass k
    reads only Q[:k+1], so Q[:k+1] and H[:k+1, :k] are bitwise those of a
    factor of degree k (`opm.convergence_study` factors its grid once so).

    With `real`, the nodes are the representatives of the orbits {x, conj x}
    of a node set that conjugation maps onto itself, each carrying its
    orbit's mass (the solver's fold, see `opm._Work`).  The orthonormal
    polynomials then have real coefficients, so only the real part of each
    projection is kept and H is real.  Real nodes (the segment) are their
    own orbits without being told: Q and H are then float64, built in real
    arithmetic.  Evaluation through `_features` stays complex, since
    evaluation points need not be real.
    """
    if nodes.size < n + 1:
        raise RankDeficient(
            f"degree {n} needs at least {n + 1} support points, have {nodes.size}"
        )
    x = nodes if np.any(nodes.imag) else nodes.real
    real = real or np.isrealobj(x)
    root_w = np.sqrt(weights)

    def project(v, Qk):
        """Qk^H v, conjugating v rather than Qk; only its real part for a real basis."""
        h = (Qk @ v.conj()).conj()
        return h.real if real else h

    q0 = 1.0 / float(np.linalg.norm(root_w))
    Q = np.empty((n + 1, x.size), dtype=x.dtype)
    Q[0] = root_w * q0
    H = np.zeros((n + 1, n), dtype=float if real else complex)
    for k in range(n):
        v = x * Q[k]
        Qk = Q[: k + 1]
        norm_in = np.linalg.norm(v)
        h = project(v, Qk)
        v -= h @ Qk
        norm = np.linalg.norm(v)
        if norm < 0.7 * norm_in:
            h2 = project(v, Qk)
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


def _features(fac: _Factor, zs: np.ndarray) -> np.ndarray:
    """Columns y(z) = (q_0(z), ..., q_n(z)), so K(z, u) = y(u)^H y(z), n the factor's degree.

    Rows come from the Hessenberg recurrence z q_k = sum_{j<=k+1} H[j,k] q_j,
    so the first k + 1 rows are those of degree k.
    """
    n = fac.degree
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    out = np.empty((n + 1, zs.size), dtype=complex)
    out[0] = fac.q0
    H = fac.H
    for k in range(n):
        out[k + 1] = (zs * out[k] - H[: k + 1, k] @ out[: k + 1]) / H[k + 1, k]
    return out


def bergman_value(fac: _Factor, z: complex) -> float:
    y = _features(fac, np.asarray([z]))
    return float(np.real(np.vdot(y, y)))


def _nested_values(fac: _Factor, z: complex, low: int) -> tuple[float, float]:
    """B at the factor's degree and at degree `low <= degree` from one feature column.

    B_low is the partial sum of the column's first low + 1 rows: the leading
    blocks of a factor serve the lower degrees.
    """
    y = _features(fac, np.asarray([z]))[:, 0]
    return float(np.real(np.vdot(y, y))), float(np.real(np.vdot(y[: low + 1], y[: low + 1])))


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


def tilde_monotonicity_defect(
    geom: geo.CurveGeometry,
    mu: DiscreteMeasure,
    N: int,
    n: int,
    z: complex,
) -> float:
    """tilde_B_{N-n}(mu, z) / tilde_B_N(mu, z) - 1; <= 0 means weak monotonicity holds.

    Both degrees are evaluated from one factorization and one feature column
    (nested leading rows), so the ratio is consistent to roundoff.  Defined
    on closed curves only.
    """
    if not geom.is_curve:
        raise CurveRequired("tilde monotonicity compares curve geometries only")
    if not (0 < n <= N):
        raise ValueError(f"need 0 < n <= N, got n={n}, N={N}")
    return _tilde_defect(geom, mu, N, n, z)


def _tilde_defect(
    geom: geo.CurveGeometry, mu: DiscreteMeasure, N: int, n: int, z: complex
) -> float:
    """`tilde_monotonicity_defect` without its checks, so it is defined on arcs too."""
    B_hi, B_lo = _nested_values(factorize(mu, N), z, N - n)
    growth = abs(geo.exterior_map(geom, z)) ** (2 * n)
    return float((B_lo / B_hi) * growth - 1.0)
