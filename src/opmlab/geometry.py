"""Planar compacta and their exterior conformal structure.

A geometry is described through the conformal map Psi from the exterior of
the closed unit disk onto the exterior of the set, normalized so that
Psi(w) = b*w + b0 + b1/w + ... with b > 0.  The logarithmic capacity is b.
The inverse map Phi = Psi^{-1} gives the Green function log|Phi| and the
level curves Psi(r*e^{i*theta}).  Faber polynomials are generated from the
Laurent coefficients by recurrence, never by contour integration.

Supported kinds: the unit circle, ellipses with semi-axes a > b > 0, the
segment [-1, 1] (an arc, not a curve), and user-supplied finite Laurent
tails ("laurent").
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CurveRequired,
    DomainViolation,
    InsideDomain,
    InvalidGeometry,
    NoConvergence,
)

_NEWTON_MAX_ITERS = 50
_NEWTON_TOL = 1e-12
_MAP_POST_TOL = 1e-10
_INJECTIVITY_TOL = 1e-9
_EXTERIOR_TOL = 1e-9
_FABER_SAMPLES = 256


@dataclass(frozen=True)
class CurveGeometry:
    """Compact set with exterior map Psi(w) = lead*w + center + sum tail[k-1]/w^k."""

    kind: str  # "circle" | "ellipse" | "interval" | "laurent"
    lead: float
    center: complex = 0.0
    tail: tuple[complex, ...] = ()
    axis_a: float | None = None  # ellipse only
    axis_b: float | None = None

    @property
    def capacity(self) -> float:
        return self.lead

    @property
    def is_curve(self) -> bool:
        """False exactly for arcs (the segment), where the exterior map is 2:1 on |w|=1."""
        return self.kind != "interval"

    @property
    def inner_radius(self) -> float:
        """Radius down to which the closed-form/validated map remains univalent."""
        if self.kind == "circle":
            return 0.0
        if self.kind == "ellipse":
            return math.sqrt(self.tail[0].real / self.lead)
        return 1.0

    def __repr__(self) -> str:  # compact, config-like
        if self.kind == "ellipse":
            return f"CurveGeometry(ellipse a={self.axis_a} b={self.axis_b})"
        if self.kind == "laurent":
            return f"CurveGeometry(laurent capacity={self.lead} center={self.center} tail={self.tail})"
        return f"CurveGeometry({self.kind})"


def unit_circle() -> CurveGeometry:
    return CurveGeometry(kind="circle", lead=1.0)


def interval() -> CurveGeometry:
    """The segment [-1, 1]; Psi is the Joukowski map (w + 1/w)/2, capacity 1/2."""
    return CurveGeometry(kind="interval", lead=0.5, tail=(0.5,))


def ellipse(a: float, b: float) -> CurveGeometry:
    """Ellipse with semi-axes a > b > 0; Psi(w) = (a+b)/2 * w + (a-b)/2 / w."""
    if not (np.inf > a > b > 0):
        raise InvalidGeometry(f"ellipse requires finite a > b > 0, got a={a}, b={b}")
    c1 = (a + b) / 2.0
    c2 = (a - b) / 2.0
    return CurveGeometry(kind="ellipse", lead=c1, tail=(complex(c2),), axis_a=float(a), axis_b=float(b))


def laurent_curve(capacity: float, center: complex = 0.0, tail: tuple[complex, ...] = ()) -> CurveGeometry:
    """Curve given by a finite Laurent tail; Psi must be injective on |w| >= 1.

    The tail is accepted exactly when sum_k k|b_k| < capacity, which proves
    Psi univalent on |w| >= 1 without sampling.  For |w1|, |w2| >= 1,

        (Psi(w1) - Psi(w2)) / (w1 - w2)
            = capacity - sum_k b_k sum_{j<k} w1^-(k-j) w2^-(j+1),

    and each of the k inner terms has modulus <= 1, so the quotient has
    modulus >= capacity - sum_k k|b_k| > 0 and Psi(w1) != Psi(w2).
    """
    if not (np.inf > capacity > 0):
        raise InvalidGeometry(f"capacity must be positive and finite, got {capacity}")
    if not np.all(np.isfinite([complex(center), *(complex(c) for c in tail)])):
        raise InvalidGeometry(f"center and tail must be finite, got {center!r}, {tail!r}")
    margin = sum(k * abs(complex(c)) for k, c in enumerate(tail, start=1))
    if margin >= capacity:
        raise InvalidGeometry(
            f"Laurent tail weight {margin:.6g} reaches the leading coefficient "
            f"{capacity:.6g}; Psi may fold on the exterior"
        )
    return CurveGeometry(
        kind="laurent",
        lead=float(capacity),
        center=complex(center),
        tail=tuple(complex(c) for c in tail),
    )


def psi(geom: CurveGeometry, w):
    """Exterior map evaluated at w (scalar or array), |w| >= inner radius."""
    w = np.asarray(w, dtype=complex)
    z = geom.lead * w + geom.center
    if geom.tail:
        winv = 1.0 / w
        p = winv.copy()
        for c in geom.tail:
            z = z + c * p
            p = p * winv
    return z


def psi_prime(geom: CurveGeometry, w):
    w = np.asarray(w, dtype=complex)
    d = np.full_like(w, geom.lead)
    if geom.tail:
        winv = 1.0 / w
        p = winv * winv
        for k, c in enumerate(geom.tail, start=1):
            d = d - k * c * p
            p = p * winv
    return d


def exterior_map(geom: CurveGeometry, z: complex) -> complex:
    """Phi(z): the conformal coordinate of z in the exterior of the unit disk."""
    w = phi_array(geom, np.asarray([z], dtype=complex))[0]
    return complex(w)


def require_exterior(geom: CurveGeometry, z0: complex) -> complex:
    """Phi(z0) for a point strictly exterior to the set, |Phi(z0)| > 1 + 1e-9.

    Any other point raises InsideDomain.  This is the one exterior test:
    `measure.balayage_point_mass` calls it, and so reach it the `opm`,
    `convergence` and `balayage` commands, which start from the balayage.
    """
    w = exterior_map(geom, z0)
    if abs(w) <= 1.0 + _EXTERIOR_TOL:
        raise InsideDomain(
            f"z0: must lie strictly exterior to the boundary, |Phi(z0)| = {abs(w):.12g}"
        )
    return w


def phi_array(geom: CurveGeometry, z: np.ndarray) -> np.ndarray:
    """Vectorized Phi.  Raises InsideDomain if any point falls beyond the collar."""
    z = np.asarray(z, dtype=complex)
    if geom.kind == "circle":
        w = z.copy()
        if np.any(np.abs(w) == 0.0):
            raise InsideDomain("Phi is singular at the center of the disk")
        return w
    if geom.kind == "ellipse":
        return _phi_ellipse(geom, z)
    if geom.kind == "interval":
        return _phi_interval(z)
    return _phi_newton(geom, z)


def _phi_ellipse(geom: CurveGeometry, z: np.ndarray) -> np.ndarray:
    c1 = geom.lead
    c2 = geom.tail[0]
    # roots of c1*w^2 - z*w + c2 = 0; their product is c2/c1, take the outer one
    disc = np.sqrt(z * z - 4.0 * c1 * c2)
    w1 = (z + disc) / (2.0 * c1)
    w2 = (z - disc) / (2.0 * c1)
    w = np.where(np.abs(w1) >= np.abs(w2), w1, w2)
    rmin = geom.inner_radius
    if np.any(np.abs(w) < rmin * (1.0 - 1e-9)):
        raise InsideDomain("point maps below the univalence radius of the ellipse")
    bad = np.abs(w) < rmin * (1.0 + 1e-12)
    if np.any(bad):
        # both preimages sit on the critical circle: z lies on the focal segment
        raise InsideDomain("point lies on the focal segment of the ellipse")
    _check_roundtrip(geom, w, z)
    return w


def _phi_interval(z: np.ndarray) -> np.ndarray:
    s = np.sqrt(z * z - 1.0)
    w1 = z + s
    w2 = z - s
    w = np.where(np.abs(w1) >= np.abs(w2), w1, w2)
    # on the segment both candidates have modulus 1; either is a valid boundary value
    return w


def _phi_newton(geom: CurveGeometry, z: np.ndarray) -> np.ndarray:
    w = (z - geom.center) / geom.lead
    small = np.abs(w) < 0.5
    if np.any(small):
        w = np.where(small, 1.0 + 0j, w)
    scale = np.maximum(1.0, np.abs(z))
    converged = np.zeros(z.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_ITERS):
        f = psi(geom, w) - z
        converged = np.abs(f) <= _NEWTON_TOL * scale
        if np.all(converged):
            break
        d = psi_prime(geom, w)
        if np.any(np.abs(d) < 1e-300):
            raise NoConvergence("Newton hit a critical point of Psi")
        step = np.where(converged, 0.0, f / d)
        w = w - step
    else:
        raise NoConvergence(
            f"Newton inversion did not converge in {_NEWTON_MAX_ITERS} iterations"
        )
    if np.any(np.abs(w) < 1.0 - _INJECTIVITY_TOL):
        raise InsideDomain("point lies inside the curve")
    _check_roundtrip(geom, w, z)
    return w


def _check_roundtrip(geom: CurveGeometry, w: np.ndarray, z: np.ndarray) -> None:
    err = np.max(np.abs(psi(geom, w) - z) / np.maximum(1.0, np.abs(z)))
    if err > _MAP_POST_TOL:
        raise NoConvergence(f"map inversion residual {err:.3e} exceeds {_MAP_POST_TOL}")


def level_curve_nodes(geom: CurveGeometry, r: float, m: int) -> np.ndarray:
    """m samples Psi(r * e^{2*pi*i*j/m}), j = 0..m-1."""
    if m < 1:
        raise ValueError(f"need at least one node, got m={m}")
    if r < max(geom.inner_radius, 1e-12) * (1.0 - 1e-12):
        raise DomainViolation(
            f"level r={r} is below the univalence radius {geom.inner_radius}"
        )
    w = r * np.exp(2j * np.pi * np.arange(m) / m)
    return psi(geom, w)


@dataclass(frozen=True)
class FaberTable:
    """Coefficient rows (ascending powers) of the Faber polynomials F_0..F_n."""

    capacity: float
    rows: tuple = field(repr=False)

    def coefficients(self, n: int) -> np.ndarray:
        return self.rows[n]


def faber_polynomials(geom: CurveGeometry, n_max: int) -> FaberTable:
    """Faber polynomials of the geometry, normalized so F_n(z)/Phi(z)^n -> 1.

    Built from the Laurent coefficients of Psi by the recurrence

        b*F_m = (z - b0)*F_{m-1} - sum_{k=1}^{min(K, m-1)} b_k F_{m-1-k}
                - (m-1)*b_{m-1}   (last term only while m-1 <= K),

    which is the coefficient-matching form of the generating relation between
    Psi'/(Psi - z) and the F_n.  The leading coefficient of F_n is capacity^-n.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    b = geom.lead
    b0 = geom.center
    tail = geom.tail
    rows: list[np.ndarray] = [np.array([1.0 + 0j])]
    for m in range(1, n_max + 1):
        prev = rows[m - 1]
        acc = np.zeros(m + 1, dtype=complex)
        acc[1:] += prev          # z * F_{m-1}
        acc[:m] -= b0 * prev
        for k, bk in enumerate(tail, start=1):
            if k > m - 1:
                break
            acc[: m - k] -= bk * rows[m - 1 - k]
        if 1 <= m - 1 <= len(tail):
            acc[0] -= (m - 1) * tail[m - 2]
        rows.append(acc / b)
    return FaberTable(capacity=b, rows=tuple(rows))


def faber_asymptotic_deviation(geom: CurveGeometry, n: int, R: float) -> float:
    """max over 256 samples of Gamma_R (R >= 1) of |F_n(z)/Phi(z)^n - 1|.

    At z = Psi(w), w = R e^{i theta}, Phi(z) = w is exact.  The recurrence
    of `faber_polynomials` runs on G_k = F_k(z)/w^k, with (z - b0)/w formed
    as b + sum_j b_j w^-(j+1), so the result is accurate to rounding at any n.
    """
    if not geom.is_curve:
        raise CurveRequired("Faber deviation on a level curve needs a closed curve")
    if R < 1.0:
        raise DomainViolation(f"need R >= 1, got R={R}")
    b, tail = geom.lead, geom.tail
    m = _FABER_SAMPLES
    winv = 1.0 / (R * np.exp(2j * np.pi * np.arange(m) / m))
    wpow = [winv ** (j + 1) for j in range(len(tail) + 1)]  # w^-(j+1)
    shift = b + sum(c * p for c, p in zip(tail, wpow[1:]))  # (z - b0) / w
    G = [np.ones(m, dtype=complex)]
    for k in range(1, n + 1):
        acc = shift * G[k - 1]
        for j, bj in enumerate(tail[: k - 1], start=1):
            acc -= bj * wpow[j] * G[k - 1 - j]
        if 1 <= k - 1 <= len(tail):
            acc -= (k - 1) * tail[k - 2] * wpow[k - 1]
        G.append(acc / b)
    return float(np.max(np.abs(G[n] - 1.0)))
