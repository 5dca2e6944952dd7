import numpy as np
import pytest

from opmlab import bergman, geometry as geo, measure as msr
from opmlab.errors import CurveRequired, RankDeficient


def gs_bergman(mu, n, z):
    """Oracle: sum of |orthonormal polynomial|^2 at z via modified Gram-Schmidt.

    Independent of the package's QR/Cholesky path: orthonormalizes raw
    monomials against the discrete inner product by explicit projection.
    """
    basis = [np.vander(mu.nodes, n + 1, increasing=True)[:, k].astype(complex) for k in range(n + 1)]
    ortho = []
    ortho_at_z = []
    for k in range(n + 1):
        v = basis[k].copy()
        vz = complex(z) ** k
        for q, qz in zip(ortho, ortho_at_z):
            coef = np.sum(mu.weights * np.conj(q) * v)
            v = v - coef * q
            vz = vz - coef * qz
        nrm = np.sqrt(np.real(np.sum(mu.weights * np.abs(v) ** 2)))
        ortho.append(v / nrm)
        ortho_at_z.append(vz / nrm)
    return float(np.sum(np.abs(np.asarray(ortho_at_z)) ** 2))


def test_arclength_closed_form():
    """B_n of the uniform circle measure at |z| > 1 has a finite geometric sum."""
    mu = msr.uniform_measure(msr.discretize_boundary(geo.unit_circle(), 256))
    for z in (2.0, 1.5j, -1.2 + 0.8j):
        r2 = abs(z) ** 2
        for n in range(1, 21):
            got = bergman.bergman_value(bergman.factorize(mu, n), z)
            expect = (r2 ** (n + 1) - 1.0) / (r2 - 1.0)
            assert got == pytest.approx(expect, rel=1e-8)


def test_balayage_measure_hits_power_growth():
    g = geo.unit_circle()
    for z0 in (2.0, 1.0 + 1.5j):
        mu = msr.balayage_point_mass(g, z0, 512)
        for n in (1, 3, 6):
            got = bergman.bergman_value(bergman.factorize(mu, n), z0)
            assert got == pytest.approx(abs(z0) ** (2 * n), rel=1e-12)


def test_gram_schmidt_oracle_agreement():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = 12
        nodes = np.exp(2j * np.pi * rng.uniform(size=m)) * rng.uniform(0.8, 1.2, size=m)
        w = rng.uniform(0.1, 1.0, size=m)
        mu = msr.DiscreteMeasure(nodes, w / w.sum())
        z = 1.8 * np.exp(2j * np.pi * rng.uniform())
        for n in (1, 2):
            fast = bergman.bergman_value(bergman.factorize(mu, n), complex(z))
            slow = gs_bergman(mu, n, complex(z))
            assert fast == pytest.approx(slow, rel=1e-10)


def test_rank_deficiency_detected():
    mu = msr.DiscreteMeasure(np.array([1.0, 1j]), np.array([0.5, 0.5]))
    with pytest.raises(RankDeficient):
        bergman.factorize(mu, 4)


def test_kernel_reproduces_bergman_value():
    mu = msr.balayage_point_mass(geo.unit_circle(), 2.0, 128)
    fac = bergman.factorize(mu, 5)
    z0 = 2.0
    B = bergman.bergman_value(fac, z0)
    K = bergman.kernel_values(fac, np.array([z0]), z0)[0]
    assert K.real == pytest.approx(B, rel=1e-12)
    assert K.imag == pytest.approx(0.0, abs=1e-9)
    # reproducing property: sum_i w_i K(x_i, z0) conj(p(x_i)) = conj(p(z0)), p = 1
    kv = bergman.kernel_values(fac, mu.nodes, z0)
    assert np.sum(mu.weights * kv) == pytest.approx(1.0, rel=1e-10)


def test_bergman_function_tilde_fields():
    g = geo.unit_circle()
    mu = msr.balayage_point_mass(g, 2.0, 256)
    ev = bergman.bergman_function(mu, 4, 2.0, geom=g)
    assert ev.bergman == pytest.approx(4.0**4, rel=1e-12)
    assert ev.christoffel == pytest.approx(4.0**-4, rel=1e-12)
    assert ev.tilde_bergman == pytest.approx(1.0, rel=1e-12)
    assert ev.tilde_christoffel == pytest.approx(1.0, rel=1e-12)
    ev2 = bergman.bergman_function(mu, 4, 2.0)
    assert ev2.tilde_bergman is None


def test_nested_degrees_share_factorization():
    mu = msr.balayage_point_mass(geo.unit_circle(), 2.0, 128)
    fac = bergman.factorize(mu, 8)
    for n in range(1, 9):
        nested = bergman._nested_values(fac, 2.0, n)[1]
        fresh = bergman.bergman_value(bergman.factorize(mu, n), 2.0)
        assert nested == pytest.approx(fresh, rel=1e-10)


def test_reflection_identity_random_circle_measures():
    """|z|^{2n} lambda_n(mu, z) = lambda_n(mu, 1/conj(z)) for measures on the circle."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(24, 64))
        nodes = np.exp(2j * np.pi * rng.uniform(size=m))
        w = rng.uniform(0.05, 1.0, size=m)
        mu = msr.DiscreteMeasure(nodes, w / w.sum())
        n = int(rng.integers(1, 9))
        r = rng.uniform(1.1, 2.5)
        z = r * np.exp(2j * np.pi * rng.uniform())
        B_out = bergman.bergman_value(bergman.factorize(mu, n), complex(z))
        B_in = bergman.bergman_value(bergman.factorize(mu, n), complex(1.0 / np.conj(z)))
        lhs = abs(z) ** (2 * n) / B_out
        rhs = 1.0 / B_in
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_tilde_monotonicity_circle_exact():
    """On the circle the normalized growth is nondecreasing in the degree."""
    rng = np.random.default_rng(3)
    g = geo.unit_circle()
    for _ in range(20):
        m = 48
        nodes = np.exp(2j * np.pi * rng.uniform(size=m))
        w = rng.uniform(0.1, 1.0, size=m)
        mu = msr.DiscreteMeasure(nodes, w / w.sum())
        N = int(rng.integers(2, 12))
        n = int(rng.integers(1, N + 1))
        z = complex(rng.uniform(1.2, 3.0) * np.exp(2j * np.pi * rng.uniform()))
        defect = bergman.tilde_monotonicity_defect(g, mu, N, n, z)
        assert defect <= 1e-10


def test_tilde_monotonicity_refuses_arcs():
    mu = msr.uniform_measure(msr.discretize_boundary(geo.interval(), 32))
    with pytest.raises(CurveRequired):
        bergman.tilde_monotonicity_defect(geo.interval(), mu, 4, 1, 2.0)


@pytest.mark.parametrize(
    "nodes, n, z0",
    [
        (msr.discretize_boundary(geo.ellipse(2.0, 1.0), 660), 12, 3.0),
        (-1j * msr.discretize_boundary(geo.interval(), 2000), 30, 1.0),  # z0 = i, turned
    ],
    ids=["ellipse21", "turned-segment"],
)
def test_real_factor_of_orbits_matches_the_unfolded_factor(nodes, n, z0):
    """On the representatives (Im x >= 0) of the orbits {x, conj x}, each at
    its orbit's mass, `factor_nodes(real=True)` is the complex factor of the
    whole grid: the same rows once rescaled, a float64 H, the same B."""
    m = nodes.size
    rep = np.flatnonzero(nodes.imag >= 0.0)
    mult = np.where(nodes[rep].imag > 0.0, 2.0, 1.0)
    assert mult.sum() == m  # the grid is closed under conjugation
    folded = bergman.factor_nodes(nodes[rep], mult / m, n, real=True)
    full = bergman.factor_nodes(nodes, np.full(m, 1.0 / m), n)
    assert folded.H.dtype == np.float64 and full.H.dtype == complex
    assert np.max(np.abs(folded.Q / np.sqrt(mult) - full.Q[:, rep])) <= 1e-12
    B = bergman.bergman_value(full, z0)
    assert abs(bergman.bergman_value(folded, z0) / B - 1.0) <= 1e-13
