import math

import numpy as np
import pytest

from opmlab import geometry as geo, measure as msr
from opmlab.errors import CurveRequired, EmptySupport, InsideDomain


def test_measure_validation():
    nodes = np.array([1.0, 1j, -1.0])
    msr.DiscreteMeasure(nodes, np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ValueError):
        msr.DiscreteMeasure(nodes, np.array([0.5, 0.25]))
    with pytest.raises(ValueError):
        msr.DiscreteMeasure(nodes, np.array([0.7, 0.4, -0.1]))
    with pytest.raises(ValueError):
        msr.DiscreteMeasure(nodes, np.array([0.5, 0.3, 0.3]))
    with pytest.raises(EmptySupport):
        msr.DiscreteMeasure(np.array([]), np.array([]))


def test_duplicate_nodes_merge_weights_first_seen_order():
    nodes = np.array([2.0, 1j, 2.0, -1.0])
    mu = msr.DiscreteMeasure(nodes, np.array([0.1, 0.2, 0.3, 0.4]))
    assert mu.support_size == 3
    assert mu.nodes[0] == 2.0 and mu.nodes[1] == 1j and mu.nodes[2] == -1.0
    assert mu.weights[0] == pytest.approx(0.4)
    assert mu.weights.sum() == pytest.approx(1.0)


def _deduplicate_loop(nodes, weights):
    """Reference: walk the lexsorted nodes, merging each into the open group's first node."""
    order = np.lexsort((nodes.imag, nodes.real))
    merged_into = np.arange(nodes.size)
    prev = None
    for i in order:
        if prev is not None and abs(nodes[i] - nodes[prev]) <= msr._DEDUP_TOL:
            merged_into[i] = prev
        else:
            prev = i
    reps = np.unique(merged_into)
    return nodes[reps], np.array([weights[merged_into == r].sum() for r in reps])


def test_deduplicate_matches_the_loop_reference():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        nodes = np.round(rng.normal(size=m) + 1j * rng.normal(size=m), 1)
        nodes += (rng.uniform(size=m) < 0.3) * 1e-13 * rng.normal(size=m)
        weights = rng.uniform(size=m)
        got = msr._deduplicate(nodes, weights)
        want = _deduplicate_loop(nodes, weights)
        assert np.array_equal(got[0], want[0])
        np.testing.assert_allclose(got[1], want[1], rtol=1e-14, atol=0.0)  # 40 summands, eps 2.2e-16


def test_uniform_measure():
    mu = msr.uniform_measure(np.exp(2j * np.pi * np.arange(8) / 8))
    assert np.allclose(mu.weights, 0.125)


def test_discretize_boundary_circle_and_interval():
    grid = msr.discretize_boundary(geo.unit_circle(), 16)
    assert np.allclose(np.abs(grid), 1.0)
    assert grid[0] == pytest.approx(1.0)
    xs = msr.discretize_boundary(geo.interval(), 21)
    assert np.allclose(xs.imag, 0.0)
    assert xs.min() == pytest.approx(-1.0) and xs.max() == pytest.approx(1.0)
    # Chebyshev-style clustering: spacing shrinks toward the endpoints
    gaps = np.diff(np.sort(xs.real))
    assert gaps[0] < gaps[len(gaps) // 2]


@pytest.mark.parametrize("m", [659, 660])
def test_symmetric_grids_are_exactly_mirrored(m):
    """Real-coefficient curves get x[m - j] = conj(x[j]) bitwise, real axis nodes
    included; a complex Laurent tail keeps the plain level-curve samples; the
    segment gets x[m - 1 - j] = -x[j] bitwise, with an exact 0 in the middle."""
    j = np.arange(m)
    x = msr.discretize_boundary(geo.interval(), m)
    assert not np.any(x.imag)
    assert np.array_equal(x[m - 1 - j], -x)
    assert m % 2 == 0 or x[m // 2] == 0.0
    assert np.abs(x - np.cos(np.pi * j / (m - 1))).max() <= 1e-15
    for g in (geo.unit_circle(), geo.ellipse(2.0, 1.0), geo.laurent_curve(1.0, 0.0, (0.0, 0.15))):
        x = msr.discretize_boundary(g, m)
        assert np.array_equal(x[(-j) % m], x.conj())
        assert x[0].imag == 0.0 and (m % 2 or x[m // 2].imag == 0.0)
        assert np.abs(x - geo.level_curve_nodes(g, 1.0, m)).max() <= 1e-14
    g = geo.laurent_curve(1.0, 0.0, (0.1j, 0.15))
    assert np.array_equal(msr.discretize_boundary(g, m), geo.level_curve_nodes(g, 1.0, m))


def test_holomorphic_moments_circle_uniform():
    mu = msr.uniform_measure(msr.discretize_boundary(geo.unit_circle(), 64))
    mom = msr.holomorphic_moments(mu, 5)
    assert mom[0] == pytest.approx(1.0)
    assert np.allclose(mom[1:], 0.0, atol=1e-15)


def test_balayage_moments_match_reflected_point():
    """Boundary moments of the swept point mass are conj(z0)^{-k} on the circle."""
    g = geo.unit_circle()
    for z0 in (2.0, 1.5 + 0.7j, -3.0j):
        mu = msr.balayage_point_mass(g, z0, 512)
        mom = msr.holomorphic_moments(mu, 6)
        expect = np.array([np.conj(z0) ** (-k) for k in range(7)])
        expect[0] = 1.0
        assert np.allclose(mom, expect, atol=1e-12)
        assert np.all(mu.weights > 0.0)
        assert mu.weights.sum() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "g", [geo.unit_circle(), geo.ellipse(2.0, 1.0), geo.laurent_curve(1.0, 0.1 + 0.2j, (0.1 + 0.05j,))]
)
def test_balayage_lives_on_the_boundary_grid(g):
    """balayage.csv and moment_discrepancy compare measures node by node."""
    mu = msr.balayage_point_mass(g, 3.0 + 1.0j, 2000)
    assert np.array_equal(mu.nodes, msr.discretize_boundary(g, 2000))


@pytest.mark.parametrize(
    "z0, m",
    [(2.0, 2000), (1.01, 2000), (1j, 2000), (1 + 0.5j, 2000), (2.0, 64), (1j, 64), (1 + 0.5j, 64)],
)
def test_segment_balayage_moments_match_the_joukowski_pullback(z0, m):
    """On [-1, 1] the balayage is the Poisson measure of w0 = 1/conj(Phi(z0))
    pulled back by x = (e^{it} + e^{-it}) / 2, so its k-th moment is
    2^-k sum_j C(k, j) rho(2j - k), with rho(q) = w0^q for q >= 0 and
    conj(w0)^-q for q < 0.  (At z0 = 1.01 on 64 nodes the trapezoidal rule
    aliases at |w0|^(2(m - 1)), about 1e-8, so that case is left out.)"""
    g = geo.interval()
    mu = msr.balayage_point_mass(g, z0, m)
    assert np.array_equal(mu.nodes, msr.discretize_boundary(g, m))
    w0 = 1.0 / np.conj(geo.exterior_map(g, z0))

    def rho(q):
        return w0**q if q >= 0 else np.conj(w0) ** (-q)

    expect = [sum(math.comb(k, j) * rho(2 * j - k) for j in range(k + 1)) / 2**k for k in range(9)]
    assert np.max(np.abs(msr.holomorphic_moments(mu, 8) - expect)) <= 1e-13


def test_balayage_requires_an_exterior_point():
    with pytest.raises(InsideDomain):
        msr.balayage_point_mass(geo.unit_circle(), 0.5, 64)
    with pytest.raises(InsideDomain):
        msr.balayage_point_mass(geo.interval(), 0.5, 64)
    with pytest.raises(InsideDomain, match="exterior"):  # the CLI's line, |Phi(z0)| > 1 + 1e-9
        msr.balayage_point_mass(geo.unit_circle(), 1.0 + 5e-10, 64)
    assert len(msr.balayage_point_mass(geo.unit_circle(), 1.0 + 2e-9, 64)) == 64


def test_moment_discrepancy_zero_on_self():
    mu = msr.balayage_point_mass(geo.ellipse(2.0, 1.0), 3.0, 256)
    assert msr.moment_discrepancy(mu, mu, 8) == 0.0


def test_pushforward_circle_recovers_angles():
    g = geo.ellipse(2.0, 1.0)
    mu = msr.balayage_point_mass(g, 3.0, 128)
    nu = msr.pushforward(mu, g)
    assert np.allclose(np.abs(nu.nodes), 1.0, atol=1e-10)
    assert np.allclose(nu.weights, mu.weights)


def test_measure_from_boundary_density_normalizes():
    g = geo.unit_circle()
    vals = 1.0 + 0.3 * np.cos(2.0 * np.pi * np.arange(64) / 64)
    mu = msr.measure_from_boundary_density(g, vals)
    assert mu.weights.sum() == pytest.approx(1.0)
    assert len(mu) == 64
    with pytest.raises(ValueError):
        msr.measure_from_boundary_density(g, np.array([1.0, -0.5]))
    with pytest.raises(CurveRequired):
        msr.measure_from_boundary_density(geo.interval(), vals)


def test_csv_roundtrip(tmp_path):
    mu = msr.balayage_point_mass(geo.unit_circle(), 2.0 + 1.0j, 37)
    p = tmp_path / "mu.csv"
    msr.save_csv(mu, p)
    back = msr.load_csv(p)
    assert np.array_equal(back.nodes, mu.nodes)
    assert np.array_equal(back.weights, mu.weights)
    # identical serialization is byte-for-byte deterministic
    p2 = tmp_path / "mu2.csv"
    msr.save_csv(mu, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    mu = msr.balayage_point_mass(geo.unit_circle(), 2.0, 37)
    p_csv = tmp_path / "mu.csv"
    msr.save_csv(mu, p_csv)
    before = p_csv.read_bytes()

    cell, calls = msr._cell, []

    def cell_failing_partway(x):
        calls.append(x)
        if len(calls) > 30:
            raise OSError("disk full")
        return cell(x)

    monkeypatch.setattr(msr, "_cell", cell_failing_partway)
    other = msr.uniform_measure(msr.discretize_boundary(geo.unit_circle(), 50))
    with pytest.raises(OSError):
        msr.save_csv(other, p_csv)
    assert p_csv.read_bytes() == before


def test_load_csv_rejects_foreign_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,mass\r\n1.0,0.0,1.0\r\n")
    with pytest.raises(ValueError):
        msr.load_csv(p)
