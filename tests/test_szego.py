import numpy as np
import pytest

from opmlab import geometry as geo, measure as msr, szego
from opmlab.errors import CurveRequired, NotSzegoClass, TooCloseToBoundary


def test_density_validation():
    with pytest.raises(ValueError):
        szego.CircleDensity(np.ones(4))  # too coarse
    with pytest.raises(NotSzegoClass):
        vals = np.ones(64)
        vals[3] = 0.0
        szego.CircleDensity(vals)
    with pytest.raises(ValueError):
        szego.CircleDensity(np.full(64, 2.0))  # mean must be 1
    d = szego.uniform_density(64)
    assert d.values.mean() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        d.values[0] = 5.0  # frozen buffer


def test_uniform_density_gives_unit_szego_function():
    d = szego.uniform_density(512)
    for z in (0.0, 0.3 + 0.4j, -0.7j):
        ev = szego.szego_function(d, z)
        assert ev.szego_value == pytest.approx(1.0, abs=1e-10)
        assert ev.lambda_inf == pytest.approx(1.0 - abs(z) ** 2, rel=1e-10)


def test_poisson_density_normalizes_lambda():
    """At its defining point the reweighted density restores lambda = 1."""
    for w0 in (0.5, 0.3 - 0.2j, 0.7j):
        d = szego.poisson_density(w0, 4096)
        ev = szego.szego_function(d, w0)
        assert ev.lambda_inf == pytest.approx(1.0, rel=1e-10)
        # |D(w0)|^2 = 1/(1-|w0|^2) in closed form
        assert abs(ev.szego_value) ** 2 == pytest.approx(1.0 / (1.0 - abs(w0) ** 2), rel=1e-10)
    with pytest.raises(ValueError):
        szego.poisson_density(1.2, 256)


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_random_density_matches_the_uncached_formula(seed):
    """The cached trig tables give bitwise the values of the direct formula, in its order."""
    m = 4096
    rng = np.random.default_rng(seed)
    t = 2.0 * np.pi * np.arange(m) / m
    g = np.full(m, rng.uniform(-1.0, 1.0))
    for k in range(1, 7):
        a, b = rng.uniform(-1.0, 1.0, size=2)
        g += a * np.cos(k * t) + b * np.sin(k * t)
    vals = np.exp(g)
    expected = vals / vals.mean()
    got = szego.random_density(m, np.random.default_rng(seed)).values
    assert np.array_equal(got, expected)
    assert np.array_equal(szego.uniform_density(m).points, np.exp(2j * np.pi * np.arange(m) / m))


def test_herglotz_kernel_is_read_only_and_exact():
    m = 4096
    pts = np.exp(2j * np.pi * np.arange(m) / m)
    for z in (0.5 + 0j, 0.3 - 0.2j, -0.7j):
        kernel = szego._herglotz(m, z)
        assert not kernel.flags.writeable
        assert np.array_equal(kernel, (pts + z) / (pts - z))
        assert szego._herglotz(m, z) is kernel


def test_szego_function_raw_matches_the_uncached_formula():
    values = szego.random_density(4096, np.random.default_rng(5)).values
    pts = np.exp(2j * np.pi * np.arange(values.size) / values.size)
    for z in (0.0, 0.5, 0.3 - 0.2j, -0.7j, 0.98):
        z = complex(z)
        expected = complex(np.exp(np.sum((pts + z) / (pts - z) * np.log(values)) / (2.0 * values.size)))
        assert szego.szego_function_raw(values, z) == expected  # bitwise
        assert szego.szego_function_raw(values, z) == expected  # and again from the cache


def test_szego_function_multiplicative_scaling():
    """D(c * f) = sqrt(c) * D(f): the geometric-mean structure of the exponent."""
    rng = np.random.default_rng(21)
    base = szego.random_density(2048, rng)
    z = 0.4 + 0.1j
    d_base = szego.szego_function_raw(base.values, z)
    for c in (2.0, 0.25):
        d_scaled = szego.szego_function_raw(c * base.values, z)
        assert d_scaled == pytest.approx(np.sqrt(c) * d_base, rel=1e-12)


def test_even_density_conjugation_symmetry():
    """Densities even in the angle produce D(conj(z)) = conj(D(z))."""
    m = 1024
    t = 2.0 * np.pi * np.arange(m) / m
    vals = 1.0 + 0.4 * np.cos(t) + 0.2 * np.cos(3.0 * t)
    vals /= vals.mean()
    d = szego.CircleDensity(vals)
    for z in (0.3 + 0.5j, -0.2 - 0.6j):
        a = szego.szego_function(d, z).szego_value
        b = szego.szego_function(d, np.conj(z)).szego_value
        assert a == pytest.approx(np.conj(b), rel=1e-10)


def test_grid_doubling_converges():
    # same seed draws the same trig polynomial; only the quadrature grid changes
    z = 0.35 - 0.25j
    coarse = szego.random_density(2048, np.random.default_rng(4))
    fine = szego.random_density(4096, np.random.default_rng(4))
    a = szego.szego_function(coarse, z).lambda_inf
    b = szego.szego_function(fine, z).lambda_inf
    assert abs(a - b) < 1e-8


def test_boundary_guard():
    d = szego.uniform_density(256)
    with pytest.raises(TooCloseToBoundary):
        szego.szego_function(d, 0.999)


def test_circle_optimality_report():
    rep = szego.verify_circle_optimality(0.5, trials=40, seed=123)
    assert rep.passed
    assert rep.violations == []
    assert rep.poisson_lambda == pytest.approx(1.0, abs=1e-8)
    assert rep.max_lambda < rep.poisson_lambda
    obj = rep.to_json_obj()
    assert obj["w0"] == [0.5, 0.0]
    assert obj["trials"] == 40 and obj["seed"] == 123


def test_circle_optimality_flags_equality_imposter():
    """A planted Poisson density is allowed to reach the optimum; others are not."""
    m = 1024
    pois = szego.poisson_density(0.5, m)
    rep = szego.verify_circle_optimality(0.5, trials=1, seed=0, m=m, densities=[pois])
    assert rep.passed  # equality + pointwise Poisson match = legitimate
    # a tampered report path: scaling another density to tie the optimum is impossible
    # without being the Poisson density itself, so random trials never tie
    rep2 = szego.verify_circle_optimality(0.5, trials=60, seed=7, m=m)
    assert all(v["kind"] != "exceeds_poisson" for v in rep2.to_json_obj()["violations"])


def test_circle_optimality_rejects_bad_trial_sets():
    with pytest.raises(ValueError, match="trials"):
        szego.verify_circle_optimality(0.5, trials=0, seed=0)
    with pytest.raises(ValueError, match="densities"):
        szego.verify_circle_optimality(0.5, trials=3, seed=0, densities=[])


def test_transport_identity_circle_closed_form():
    g = geo.unit_circle()
    m = 2048
    mu = msr.uniform_measure(msr.discretize_boundary(g, m))
    lhs, rhs = szego.transport_check(g, mu, 2.0, 30)
    assert lhs == pytest.approx(0.75, abs=0.02)
    assert rhs == pytest.approx(0.75, rel=1e-8)


def test_transport_identity_ellipse():
    g = geo.ellipse(2.0, 1.0)
    m = 2048
    nodes = geo.level_curve_nodes(g, 1.0, m)
    dens = np.abs(geo.psi_prime(g, np.exp(2j * np.pi * np.arange(m) / m)))
    mu = msr.measure_from_boundary_density(g, dens)
    lhs, rhs = szego.transport_check(g, mu, 3.0, 40)
    assert lhs == pytest.approx(rhs, rel=0.05)


def test_transport_check_validates_inputs():
    g = geo.ellipse(2.0, 1.0)
    mu = msr.uniform_measure(msr.discretize_boundary(g, 64))
    with pytest.raises(CurveRequired):
        szego.transport_check(geo.interval(), mu, 2.0, 10)
    shifted = msr.DiscreteMeasure(mu.nodes * 1.001, mu.weights)
    with pytest.raises(ValueError):
        szego.transport_check(g, shifted, 3.0, 10)
