"""Bergman-type functions, reproducing kernels, and Christoffel quantities.

For a discrete probability measure nu and degree n, the central quantity is

    B_n(nu, z) = sup { |p(z)|^2 : deg p <= n, integral |p|^2 d nu <= 1 }
               = v(z)^H G^{-1} v(z),

the diagonal of the reproducing kernel of the degree-n polynomials in
L^2(nu); its reciprocal is the Christoffel function.  Everything is computed
through a QR factorization of the weighted node basis matrix, never by
forming or inverting the moment (Gram) matrix: nodes are affinely
preconditioned (translated by their centroid, scaled by their radius about
it) and the resulting Vandermonde columns are equilibrated before QR, so the
triangular factor's conditioning mirrors the intrinsic difficulty of the
degree rather than an artifact of the raw monomial basis.

Tilde-normalized variants divide out the exterior growth |Phi(z)|^{2n}; they
are the quantities whose near-monotonicity in n characterizes optimal
prediction measures on curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import geometry as geo
from .errors import CurveRequired, IllConditioned, NotOptimal, RankDeficient
from .measure import DiscreteMeasure

_COND_LIMIT = 1e12
_GAP_GUARD = 1e-2  # diagnostics demanding near-optimality refuse beyond this


@dataclass(frozen=True)
class AffineFrame:
    """Record of the preconditioning z -> (z - center)/scale."""

    center: complex
    scale: float

    def coord(self, z):
        return (np.asarray(z, dtype=complex) - self.center) / self.scale


def frame_for_nodes(nodes: np.ndarray) -> AffineFrame:
    center = complex(np.mean(nodes))
    scale = float(np.max(np.abs(nodes - center)))
    if not (scale > 1e-300):
        scale = 1.0
    return AffineFrame(center=center, scale=scale)


@dataclass(frozen=True)
class _Factor:
    """QR factor of the weighted, equilibrated node basis at some degree."""

    frame: AffineFrame
    colscale: np.ndarray  # length n+1
    R: np.ndarray  # (n+1, n+1) upper triangular, R^H R = equilibrated Gram
    degree: int
    cond: float


def factor_nodes(nodes: np.ndarray, weights: np.ndarray, n: int) -> _Factor:
    """Factor the degree-n basis on nodes carrying positive weights.

    The one place where the basis matrix is built (frame, Vandermonde,
    equilibration, QR) and its rank and conditioning are checked; the
    leading blocks of the factor serve lower degrees.
    """
    if nodes.size < n + 1:
        raise RankDeficient(
            f"degree {n} needs at least {n + 1} support points, have {nodes.size}"
        )
    frame = frame_for_nodes(nodes)
    zeta = frame.coord(nodes)
    A = np.sqrt(weights)[:, None] * np.conj(np.vander(zeta, n + 1, increasing=True))
    colscale = np.linalg.norm(A, axis=0)
    if np.any(colscale == 0.0):
        raise RankDeficient("degenerate node configuration (zero basis column)")
    R = np.linalg.qr(A / colscale, mode="r")
    diag = np.abs(np.diagonal(R))
    if diag.min() <= 1e-14 * diag.max():
        raise RankDeficient("nodes do not determine the polynomial space at this degree")
    cond = float(np.linalg.cond(R))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise IllConditioned(
            f"condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e} at degree {n}"
        )
    return _Factor(frame=frame, colscale=colscale, R=R, degree=n, cond=cond)


def factorize(mu: DiscreteMeasure, n: int) -> _Factor:
    """Factor the measure at degree n over its support."""
    keep = mu.weights > 0.0
    return factor_nodes(mu.nodes[keep], mu.weights[keep], n)


def _features(fac: _Factor, zs: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Columns y(z) with K(z, u) = y(u)^H y(z); degree defaults to the factor's."""
    n = fac.degree if degree is None else degree
    if n > fac.degree:
        raise ValueError(f"factor holds degree {fac.degree}, requested {n}")
    zeta = fac.frame.coord(np.atleast_1d(zs))
    V = np.vander(zeta, n + 1, increasing=True) / fac.colscale[: n + 1]
    Rn = fac.R[: n + 1, : n + 1]
    return solve_triangular(Rn, V.T, trans="C", lower=False)


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

    Returns monomial coefficients of p_n (ascending, original variable) and
    M_n = |p_n(z0)|.  Requires nu to be near-optimal for z0 on the grid.
    """
    fac = factorize(nu, n)
    gap, kabs, B = grid_gap(fac, z0, np.asarray(grid, dtype=complex))
    if gap > _GAP_GUARD:
        raise NotOptimal(f"certificate gap {gap:.3e} exceeds {_GAP_GUARD}")
    kmax = float(kabs.max())
    M = B / kmax
    y0 = _features(fac, np.asarray([z0]))[:, 0]
    beta = np.conj(solve_triangular(fac.R, y0, lower=False)) / fac.colscale
    return _shift_coefficients(beta / kmax, fac.frame), M


def _shift_coefficients(coeffs_zeta: np.ndarray, frame: AffineFrame) -> np.ndarray:
    """Rewrite sum c_j ((z - c)/s)^j as monomial coefficients in z."""
    n = coeffs_zeta.size - 1
    out = np.zeros(n + 1, dtype=complex)
    row = np.zeros(n + 1, dtype=complex)  # monomial coefficients of ((z - c)/s)^j
    row[0] = 1.0
    out += coeffs_zeta[0] * row
    for j in range(1, n + 1):
        new = np.zeros(n + 1, dtype=complex)
        new[1 : j + 1] = row[:j]
        new[:j] -= frame.center * row[:j]
        row = new / frame.scale
        out += coeffs_zeta[j] * row
    return out


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
