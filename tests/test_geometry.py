import numpy as np
import pytest

from opmlab import geometry as geo
from opmlab.errors import (
    CurveRequired,
    DomainViolation,
    InsideDomain,
    InvalidGeometry,
    NoConvergence,
)


def test_factories_and_capacity():
    assert geo.unit_circle().capacity == 1.0
    assert geo.interval().capacity == 0.5
    assert geo.ellipse(2.0, 1.0).capacity == 1.5
    g = geo.laurent_curve(1.25, 0.5j, (0.1, 0.0, 0.05j))
    assert g.capacity == 1.25
    assert g.is_curve
    assert not geo.interval().is_curve


def test_invalid_shapes_rejected():
    with pytest.raises(InvalidGeometry):
        geo.ellipse(1.0, 2.0)
    with pytest.raises(InvalidGeometry):
        geo.ellipse(-1.0, -2.0)
    with pytest.raises(InvalidGeometry):
        geo.laurent_curve(0.0)
    # tail heavy enough to destroy univalence of psi
    with pytest.raises(InvalidGeometry):
        geo.laurent_curve(1.0, 0.0, (0.0, 2.0))
    # non-finite parameters would reach the JSON reports as NaN or inf
    for bad in (
        lambda: geo.ellipse(np.inf, 1.0),
        lambda: geo.laurent_curve(np.inf),
        lambda: geo.laurent_curve(1.0, complex(np.nan, 0.0)),
        lambda: geo.laurent_curve(1.0, 0.0, (complex(0.1, np.nan),)),
    ):
        with pytest.raises(InvalidGeometry):
            bad()


def test_near_margin_laurent_curve_is_accepted():
    """sum k|b_k| = 0.999 < capacity proves Psi univalent, so no sampling is needed to accept it."""
    g = geo.laurent_curve(1.0, 0.0, (0.0, 0.4995))
    z = geo.level_curve_nodes(g, 1.0, 512)
    sep = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(sep, np.inf)
    assert sep.min() > 0.0  # the bound's promise, seen on the boundary samples
    # a slit-thin ellipse whose 512 boundary samples lie 2.5e-10 apart is univalent too
    assert geo.laurent_curve(1.0, 0.0, (1.0 - 1e-8,)).capacity == 1.0
    with pytest.raises(InvalidGeometry):  # the bound is strict
        geo.laurent_curve(1.0, 0.0, (0.0, 0.5))


def test_circle_maps_are_identity():
    g = geo.unit_circle()
    for z in (2.0, 1.5j, -3.0 + 0.25j):
        assert geo.exterior_map(g, z) == pytest.approx(z)
        assert complex(geo.psi(g, z)) == pytest.approx(z)
    assert np.log(abs(geo.exterior_map(g, 2.0))) == pytest.approx(np.log(2.0))


@pytest.mark.parametrize(
    "gname",
    ["circle", "ellipse", "laurent"],
)
def test_psi_phi_roundtrip_on_curves(gname):
    g = {
        "circle": geo.unit_circle(),
        "ellipse": geo.ellipse(2.0, 1.0),
        "laurent": geo.laurent_curve(1.1, 0.3, (0.0, 0.12, 0.04j)),
    }[gname]
    rng = np.random.default_rng(17)
    for _ in range(40):
        w = (1.05 + rng.uniform(0.0, 3.0)) * np.exp(2j * np.pi * rng.uniform())
        z = complex(geo.psi(g, w))
        back = geo.exterior_map(g, z)
        assert back == pytest.approx(w, rel=1e-10)


def test_interval_map_closed_form():
    g = geo.interval()
    # psi(w) = (w + 1/w)/2 maps |w| > 1 onto C minus [-1, 1]
    assert geo.exterior_map(g, 2.0) == pytest.approx(2.0 + np.sqrt(3.0))
    assert complex(geo.psi(g, 2.0 + np.sqrt(3.0))) == pytest.approx(2.0)
    # the two square-root branches must both land outside the disk
    for z in (1.5, -2.5, 1j, 0.3 + 0.8j):
        w = geo.exterior_map(g, z)
        assert abs(w) > 1.0
        assert complex(geo.psi(g, w)) == pytest.approx(complex(z), abs=1e-12)


def test_map_domain_limits():
    """Phi continues analytically inside the curve down to the fold; below it, errors."""
    # the circle's Phi is the identity; only its singular center is refused
    with pytest.raises(InsideDomain):
        geo.exterior_map(geo.unit_circle(), 0.0)
    g = geo.ellipse(2.0, 1.0)
    # interior ring point: continuation gives |w| between the collar and 1
    w = geo.exterior_map(g, 0.5 + 0.2j)
    assert g.inner_radius < abs(w) < 1.0
    with pytest.raises(InsideDomain):
        geo.exterior_map(g, 0.2)  # on the focal segment, the two branches collide
    with pytest.raises((InsideDomain, NoConvergence)):
        geo.exterior_map(geo.laurent_curve(1.1, 0.0, (0.2,)), 0.1)
    with pytest.raises(DomainViolation):
        geo.level_curve_nodes(g, 0.5, 8)  # level below the collar of the ellipse


def test_phi_array_matches_scalar_map():
    g = geo.ellipse(2.0, 1.0)
    zs = np.array([3.0, 2.5j, -4.0 + 1.0j, 2.0 + 0.9j])
    ws = geo.phi_array(g, zs)
    for z, w in zip(zs, ws):
        assert w == pytest.approx(geo.exterior_map(g, complex(z)))


def test_level_curve_nodes_lie_on_level_sets():
    g = geo.laurent_curve(1.2, 0.1j, (0.0, 0.1))
    for r in (1.0, 1.5, 2.0):
        nodes = geo.level_curve_nodes(g, r, 64)
        assert nodes.shape == (64,)
        mods = np.abs(geo.phi_array(g, nodes)) if r > 1.0 else None
        if mods is not None:
            assert np.allclose(mods, r, atol=1e-9)
    with pytest.raises(DomainViolation):
        geo.level_curve_nodes(g, 0.5, 16)


def test_green_log_modulus_properties():
    """The Green function log|Phi| grows like log|z| - log(capacity) and vanishes on the curve."""
    g = geo.ellipse(2.0, 1.0)
    far = np.log(abs(geo.exterior_map(g, 1e6))) - np.log(1e6)
    assert far == pytest.approx(-np.log(g.capacity), abs=1e-5)
    nodes = geo.level_curve_nodes(g, 1.0, 32)
    # boundary values vanish
    vals = [abs(geo.exterior_map(g, complex(x * (1 + 1e-9)))) for x in nodes[:4]]
    assert max(vals) == pytest.approx(1.0, abs=1e-6)


class TestFaber:
    def test_circle_faber_are_monomials(self):
        table = geo.faber_polynomials(geo.unit_circle(), 6)
        for n in range(7):
            c = table.coefficients(n)
            expect = np.zeros(n + 1, dtype=complex)
            expect[n] = 1.0
            assert np.allclose(c, expect, atol=1e-14)

    def test_interval_faber_double_chebyshev(self):
        # F_n = 2 T_n on [-1, 1] for n >= 1
        table = geo.faber_polynomials(geo.interval(), 5)
        for n in range(1, 6):
            two_tn = 2.0 * np.polynomial.chebyshev.cheb2poly([0.0] * n + [1.0])
            assert np.allclose(table.coefficients(n), two_tn, rtol=0.0, atol=1e-12)

    def test_leading_coefficient_is_inverse_capacity_power(self):
        g = geo.ellipse(2.0, 1.0)
        table = geo.faber_polynomials(g, 8)
        for n in range(1, 9):
            lead = table.coefficients(n)[-1]
            assert lead == pytest.approx(g.capacity ** (-n), rel=1e-12)

    @pytest.mark.parametrize(
        "g,R",
        [
            (geo.unit_circle(), 1.3),
            (geo.ellipse(2.0, 1.0), 1.5),
            (geo.laurent_curve(1.0, 0.0, (0.0, 0.15)), 2.0),
        ],
    )
    def test_normalized_faber_near_phi_power(self, g, R):
        dev = geo.faber_asymptotic_deviation(g, 20, R)
        assert dev < 1e-8

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (5.0, 1.0), (3.0, 2.0)])
    @pytest.mark.parametrize("R", [1.0, 1.5])
    def test_ellipse_deviation_matches_closed_form_to_high_degree(self, a, b, R):
        """F_n(Psi(w)) = w^n + rho^n w^-n with rho = (a - b)/(a + b), so the
        deviation is rho^n R^-2n, on Gamma itself (R = 1) too."""
        g = geo.ellipse(a, b)
        for n in range(1, 257, 5):  # 1, 6, ..., 256
            dev = geo.faber_asymptotic_deviation(g, n, R)
            assert abs(dev - ((a - b) / (a + b)) ** n * R ** (-2 * n)) <= 1e-13, n

    def test_circle_deviation_is_exactly_zero(self):
        for R in (1.0, 1.3):
            assert geo.faber_asymptotic_deviation(geo.unit_circle(), 200, R) == 0.0

    def test_deviation_needs_curve_and_exterior_level(self):
        with pytest.raises(CurveRequired):
            geo.faber_asymptotic_deviation(geo.interval(), 5, 1.5)
        with pytest.raises(DomainViolation):
            geo.faber_asymptotic_deviation(geo.unit_circle(), 5, 0.9)
