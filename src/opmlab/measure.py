"""Discrete probability measures on boundary node sets.

Measures are weight vectors over complex nodes.  Boundary grids come from the
geometry's level curve at r = 1 (Chebyshev points for the segment).  The
balayage of an exterior point mass onto a closed curve is the harmonic
measure seen from that point; on the conformal circle it is the Poisson
kernel at the reflected point 1/conj(Phi(z0)), discretized by the
trapezoidal rule on the uniform angular grid, which is spectrally accurate
for smooth densities.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import CurveRequired, EmptySupport, InsideDomain

_WEIGHT_SUM_TOL = 1e-12
_DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure sum w_i * delta_{x_i} with distinct nodes."""

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if nodes.size == 0:
            raise EmptySupport("a measure needs at least one node")
        if nodes.shape != weights.shape:
            raise ValueError("nodes and weights must have matching lengths")
        if np.any(weights < -1e-15):
            raise ValueError(f"negative weight {weights.min():.3e}")
        weights = np.maximum(weights, 0.0)
        total = weights.sum()
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        nodes, weights = _deduplicate(nodes, weights)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.nodes.size

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.weights > 0.0))


def _deduplicate(nodes: np.ndarray, weights: np.ndarray):
    """Merge nodes that coincide within tolerance, keeping first-seen order.

    Lexsorted neighbours closer than the tolerance join one group; the group
    keeps its lexsort-first node and the sum of its weights.
    """
    order = np.lexsort((nodes.imag, nodes.real))
    starts = np.r_[True, np.abs(np.diff(nodes[order])) > _DEDUP_TOL]
    if starts.all():
        return nodes.copy(), weights.copy()
    merged = np.bincount(np.cumsum(starts) - 1, weights=weights[order])
    reps = order[starts]
    first = np.argsort(reps)  # first-seen order of representatives
    return nodes[reps[first]], merged[first]


def uniform_measure(nodes: np.ndarray) -> DiscreteMeasure:
    """Equal weights on the given nodes."""
    nodes = np.asarray(nodes, dtype=complex).ravel()
    if nodes.size == 0:
        raise EmptySupport("cannot build a uniform measure on zero nodes")
    return DiscreteMeasure(nodes, np.full(nodes.size, 1.0 / nodes.size))


def discretize_boundary(geom: geo.CurveGeometry, m: int) -> np.ndarray:
    """Canonical m-point boundary grid of the geometry.

    Closed curves use the r = 1 level curve; the segment uses Chebyshev
    points cos(pi*j/(m-1)), which cluster like its equilibrium measure.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if geom.kind == "interval":
        if m == 1:
            return np.array([1.0 + 0j])
        return np.cos(np.pi * np.arange(m) / (m - 1)).astype(complex)
    return geo.level_curve_nodes(geom, 1.0, m)


def holomorphic_moments(mu: DiscreteMeasure, k_max: int) -> np.ndarray:
    """Moments sum_i w_i x_i^k for k = 0..k_max."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    out = np.empty(k_max + 1, dtype=complex)
    p = np.ones_like(mu.nodes)
    for k in range(k_max + 1):
        out[k] = np.dot(mu.weights, p)
        p = p * mu.nodes
    return out


def moment_discrepancy(mu: DiscreteMeasure, nu: DiscreteMeasure, k_max: int) -> float:
    """max over 1 <= k <= k_max of |m_k(mu) - m_k(nu)|."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    a = holomorphic_moments(mu, k_max)
    b = holomorphic_moments(nu, k_max)
    return float(np.max(np.abs(a[1:] - b[1:])))


def pushforward(mu: DiscreteMeasure, geom: geo.CurveGeometry) -> DiscreteMeasure:
    """Image measure under Phi, nodes renormalized to modulus exactly 1."""
    w = geo.phi_array(geom, mu.nodes)
    mods = np.abs(w)
    if np.any(mods == 0.0):
        raise InsideDomain("pushforward hit the disk center")
    return DiscreteMeasure(w / mods, mu.weights.copy())


def balayage_point_mass(geom: geo.CurveGeometry, z0: complex, m: int) -> DiscreteMeasure:
    """Harmonic measure of the exterior point z0, discretized on the boundary grid.

    Weights are proportional to the Poisson kernel at w0 = 1/conj(Phi(z0))
    evaluated on the uniform angular grid; nodes are Psi(e^{i t_j}).
    """
    if not geom.is_curve:
        raise CurveRequired("balayage onto an arc is not supported")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    w = geo.exterior_map(geom, z0)
    if abs(w) <= 1.0 + 1e-12:
        raise InsideDomain(f"z0 must be strictly exterior, |Phi(z0)| = {abs(w):.6g}")
    w0 = 1.0 / np.conj(w)
    t = 2.0 * np.pi * np.arange(m) / m
    boundary = np.exp(1j * t)
    density = (1.0 - abs(w0) ** 2) / np.abs(boundary - w0) ** 2
    weights = density / density.sum()
    return DiscreteMeasure(geo.psi(geom, boundary), weights)


def measure_from_boundary_density(geom: geo.CurveGeometry, values: np.ndarray) -> DiscreteMeasure:
    """Weights proportional to `values` on the canonical m-point grid of a curve."""
    if not geom.is_curve:
        raise CurveRequired("boundary densities live on closed curves")
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise EmptySupport("empty density")
    if np.any(values <= 0.0):
        raise ValueError("density values must be positive")
    nodes = discretize_boundary(geom, values.size)
    return DiscreteMeasure(nodes, values / values.sum())


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the binary64 value (<= 17 digits)."""
    return repr(float(x))


def _atomic_write_text(path, text: str) -> None:
    """Write `text` to a temp file beside `path`, then rename it over `path`."""
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_csv(mu: DiscreteMeasure, path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["re_node", "im_node", "weight"])
    for x, w in zip(mu.nodes, mu.weights):
        writer.writerow([_fmt(x.real), _fmt(x.imag), _fmt(w)])
    _atomic_write_text(path, buf.getvalue())


def load_csv(path) -> DiscreteMeasure:
    nodes: list[complex] = []
    weights: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["re_node", "im_node", "weight"]:
            raise ValueError(f"unexpected CSV header {header}")
        for row in reader:
            nodes.append(complex(float(row[0]), float(row[1])))
            weights.append(float(row[2]))
    return DiscreteMeasure(np.array(nodes), np.array(weights))


def to_json_obj(mu: DiscreteMeasure) -> list:
    return [[float(x.real), float(x.imag), float(w)] for x, w in zip(mu.nodes, mu.weights)]


def save_json(mu: DiscreteMeasure, path) -> None:
    _atomic_write_text(path, json.dumps(to_json_obj(mu)))


def load_json(path) -> DiscreteMeasure:
    with open(path) as fh:
        triples = json.load(fh)
    nodes = np.array([complex(t[0], t[1]) for t in triples])
    weights = np.array([t[2] for t in triples])
    return DiscreteMeasure(nodes, weights)
