"""Szego functions on the unit circle and the curve-to-circle transport identity.

Circle densities are taken with respect to normalized arclength dtheta/2pi, so
a probability density has grid mean 1 and the trivial density f = 1 gives
D = 1 and lambda_inf = 1 - |z|^2.  All integrals are trapezoidal sums on the
uniform angular grid t_j = 2 pi j / m, which is spectrally accurate for the
smooth periodic integrands used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import bergman, geometry as geo
from .errors import CurveRequired, NotSzegoClass, TooCloseToBoundary
from .measure import DiscreteMeasure, _json_num

_DENSITY_FLOOR = 1e-12
_RADIUS_LIMIT = 0.99
_EQUALITY_TOL = 1e-6


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def _circle_points(m: int) -> np.ndarray:
    """The uniform angular grid exp(2 pi i j / m), cached read-only."""
    return _read_only(np.exp(2j * np.pi * np.arange(m) / m))


@lru_cache(maxsize=8)
def _herglotz(m: int, z: complex) -> np.ndarray:
    """The Herglotz kernel (p + z) / (p - z) on the m-point grid, cached read-only."""
    pts = _circle_points(m)
    return _read_only((pts + z) / (pts - z))


@lru_cache(maxsize=8)
def _trig_table(m: int, max_degree: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(cos k t, sin k t) for k = 1..max_degree on t = 2 pi j / m, cached read-only."""
    t = 2.0 * np.pi * np.arange(m) / m
    return tuple(
        (_read_only(np.cos(k * t)), _read_only(np.sin(k * t))) for k in range(1, max_degree + 1)
    )


@dataclass(frozen=True)
class CircleDensity:
    """Positive density against dtheta/2pi sampled on the uniform angular grid."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel().copy()
        if vals.size < 8:
            raise ValueError("circle density needs at least 8 grid values")
        if vals.min() < _DENSITY_FLOOR:
            raise NotSzegoClass(
                f"density min {vals.min():.3e} below floor {_DENSITY_FLOOR:.0e}"
            )
        if abs(vals.mean() - 1.0) > 1e-10:
            raise ValueError(
                f"density grid mean must be 1 (dtheta/2pi convention), got {vals.mean()!r}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def points(self) -> np.ndarray:
        return _circle_points(self.m)


def uniform_density(m: int = 4096) -> CircleDensity:
    return CircleDensity(np.ones(m))


def poisson_density(w0: complex, m: int = 4096) -> CircleDensity:
    """Poisson kernel at w0, i.e. the balayage density of a point mass at w0."""
    w0 = complex(w0)
    if abs(w0) >= 1.0:
        raise ValueError(f"Poisson density needs |w0| < 1, got |w0| = {abs(w0)!r}")
    pts = _circle_points(m)
    vals = (1.0 - abs(w0) ** 2) / np.abs(pts - w0) ** 2
    return CircleDensity(vals / vals.mean())


def random_density(m: int, rng: np.random.Generator, max_degree: int = 6) -> CircleDensity:
    """exp of a random real trigonometric polynomial, normalized to mean 1."""
    g = np.full(m, rng.uniform(-1.0, 1.0))
    for cos_k, sin_k in _trig_table(m, max_degree):
        a, b = rng.uniform(-1.0, 1.0, size=2)
        g += a * cos_k + b * sin_k
    vals = np.exp(g)
    return CircleDensity(vals / vals.mean())


def szego_function_raw(values: np.ndarray, z: complex) -> complex:
    """D for a possibly unnormalized positive density; scales as sqrt under f -> c f."""
    values = np.asarray(values, dtype=float).ravel()
    z = complex(z)
    if abs(z) > _RADIUS_LIMIT:
        raise TooCloseToBoundary(f"|z| = {abs(z)!r} exceeds {_RADIUS_LIMIT}")
    if values.min() < _DENSITY_FLOOR:
        raise NotSzegoClass(
            f"density min {values.min():.3e} below floor {_DENSITY_FLOOR:.0e}"
        )
    integral = np.sum(_herglotz(values.size, z) * np.log(values)) / (2.0 * values.size)
    return complex(np.exp(integral))


@dataclass(frozen=True)
class SzegoEvaluation:
    point: complex
    szego_value: complex
    lambda_inf: float

    def to_json_obj(self) -> dict:
        return {
            "point": [self.point.real, self.point.imag],
            "szego_value": [_json_num(self.szego_value.real), _json_num(self.szego_value.imag)],
            "lambda_inf": _json_num(self.lambda_inf),
        }


def szego_function(f: CircleDensity, z: complex) -> SzegoEvaluation:
    """D(f, z) and the Christoffel limit lambda_inf = (1 - |z|^2) |D|^2."""
    d = szego_function_raw(f.values, z)
    lam = (1.0 - abs(complex(z)) ** 2) * abs(d) ** 2
    return SzegoEvaluation(point=complex(z), szego_value=d, lambda_inf=float(lam))


@dataclass(frozen=True)
class OptimalityReport:
    """Random-density sweep against the Poisson maximizer at a fixed point."""

    w0: complex
    trials: int
    seed: int
    max_lambda: float
    poisson_lambda: float
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "w0": [self.w0.real, self.w0.imag],
            "trials": self.trials,
            "seed": self.seed,
            "max_lambda": _json_num(self.max_lambda),
            "poisson_lambda": _json_num(self.poisson_lambda),
            "violations": [{**v, "lambda": _json_num(v["lambda"])} for v in self.violations],
        }


def verify_circle_optimality(
    w0: complex,
    trials: int,
    seed: int,
    *,
    m: int = 4096,
    densities: list | None = None,
) -> OptimalityReport:
    """Check that no trial density beats the Poisson density at w0.

    Each trial draws its own generator seeded with seed + index, so results do
    not depend on evaluation order.  A trial violates unless its lambda_inf
    is at most the Poisson value plus 1e-6 (so a NaN violates), or if it
    ties the Poisson value within 1e-6 without matching the Poisson density
    pointwise.  `max_lambda` is NaN when any trial's lambda_inf is.
    `densities` substitutes explicit trial densities for the random family.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if densities is not None and len(densities) == 0:
        raise ValueError("densities must be nonempty when given")
    w0 = complex(w0)
    pois = poisson_density(w0, m)
    lam_pois = szego_function(pois, w0).lambda_inf
    violations = []
    lams = []
    for i in range(trials):
        if densities is not None:
            f = densities[i % len(densities)]
            if not isinstance(f, CircleDensity):
                f = CircleDensity(np.asarray(f, dtype=float))
        else:
            f = random_density(m, np.random.default_rng(seed + i))
        lam = szego_function(f, w0).lambda_inf
        lams.append(lam)
        if not lam <= lam_pois + _EQUALITY_TOL:
            violations.append(
                {"trial": i, "kind": "exceeds_poisson", "lambda": float(lam)}
            )
        elif abs(lam - lam_pois) <= _EQUALITY_TOL:
            if f.m != pois.m or np.max(np.abs(f.values - pois.values)) > _EQUALITY_TOL:
                violations.append(
                    {
                        "trial": i,
                        "kind": "equality_without_poisson_density",
                        "lambda": float(lam),
                    }
                )
    return OptimalityReport(
        w0=w0,
        trials=trials,
        seed=seed,
        max_lambda=float(np.max(lams)),
        poisson_lambda=float(lam_pois),
        violations=violations,
    )


def transport_check(
    geom: geo.CurveGeometry, mu: DiscreteMeasure, z: complex, n_probe: int
) -> tuple[float, float]:
    """Compare tilde-lambda on the curve with lambda_inf of the pushforward density.

    `mu` must live on the canonical boundary grid (images of the uniform
    angular grid under the exterior parametrization) so that its pushforward
    to the circle has density m * w_j at angle t_j.  Returns (lhs, rhs):
    lhs = |Phi(z)|^{2 n_probe} * lambda_{n_probe}(mu, z), rhs = lambda_inf of
    the pushforward at the reflected point 1 / conj(Phi(z)).
    """
    if not geom.is_curve:
        raise CurveRequired("transport identity needs a closed curve, not an arc")
    m = len(mu)
    expected = geo.level_curve_nodes(geom, 1.0, m)
    scale = 1.0 + np.max(np.abs(expected))
    if np.max(np.abs(mu.nodes - expected)) > 1e-9 * scale:
        raise ValueError("measure must be sampled on the canonical m-point boundary grid")
    density = CircleDensity(m * mu.weights)
    phi_z = geo.exterior_map(geom, z)
    fac = bergman.factorize(mu, n_probe)
    b_val = bergman.bergman_value(fac, z)
    lhs = float(abs(phi_z) ** (2 * n_probe) / b_val)
    w = 1.0 / np.conj(phi_z)
    rhs = float(szego_function(density, complex(w)).lambda_inf)
    return lhs, rhs
