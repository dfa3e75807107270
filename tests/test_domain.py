"""Densities, potentials, grids: closed-form values and consistency checks."""

import numpy as np
import pytest

from corrsearch.domain import (
    DomainError,
    _gauss_legendre,
    _unit_gauss_legendre,
    ExponentialDensity,
    ExponentialMixtureDensity,
    ExternalPotential,
    QuadratureGrid,
    SpaceSpec,
    Tabulated1DDensity,
    default_grid,
    external_energy,
    sq_norm,
    sum_last,
    uniform_1d_grid,
)

from conftest import HE_ZETA, radial_angular_grid, random_points


# ---------------------------------------------------------------------------
# density values
# ---------------------------------------------------------------------------


def test_exponential_value_at_origin():
    rho = ExponentialDensity(zeta=1.0, n_electrons=1)
    # N zeta^3/pi at r=0 with N=zeta=1
    assert rho.value(np.zeros(3)) == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_exponential_decays_to_zero():
    rho = ExponentialDensity(zeta=1.0, n_electrons=2)
    far = np.array([0.0, 0.0, 50.0])
    assert rho.value(far) < 1e-30


def test_exponential_normalization_he():
    rho = ExponentialDensity(zeta=HE_ZETA, n_electrons=2)
    total = default_grid(rho).integrate(rho.value)
    assert total == pytest.approx(2.0, rel=1e-8)


@pytest.mark.parametrize("refine", [1.0, 1.5, 2.0])
@pytest.mark.parametrize(
    "density",
    [
        ExponentialDensity(zeta=1.0, n_electrons=1),
        ExponentialDensity(zeta=HE_ZETA, n_electrons=2),
        ExponentialMixtureDensity(zetas=(0.8, 2.0), weights=(0.3, 0.7), n_electrons=3),
    ],
)
def test_normalization_at_every_refinement(density, refine):
    grid = radial_angular_grid(
        r_max=30.0,
        n_radial=int(128 * refine),
        n_theta=int(24 * refine),
        n_phi=int(24 * refine),
    )
    total = grid.integrate(density.value)
    assert total == pytest.approx(density.n_electrons, rel=1e-8)


def test_normalization_1d():
    rho = ExponentialDensity(zeta=1.3, n_electrons=2, dim=1)
    total = default_grid(rho).integrate(rho.value)
    assert total == pytest.approx(2.0, rel=1e-8)


def test_density_rejects_wrong_dimension():
    rho = ExponentialDensity(zeta=1.0, n_electrons=1)
    with pytest.raises(DomainError):
        rho.value(np.zeros(2))


def test_invalid_parameters_rejected():
    with pytest.raises(DomainError):
        ExponentialDensity(zeta=-1.0, n_electrons=1)
    with pytest.raises(DomainError):
        ExponentialDensity(zeta=1.0, n_electrons=0)
    with pytest.raises(DomainError):
        ExponentialMixtureDensity(zetas=(1.0, 2.0), weights=(0.5, 0.6), n_electrons=1)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_log_gradient_magnitude_is_two_zeta():
    rho = ExponentialDensity(zeta=1.0, n_electrons=2)
    rng = np.random.default_rng(3)
    pts = random_points(rng, 20, 3)
    ratio = np.linalg.norm(rho.gradient(pts), axis=-1) / rho.value(pts)
    np.testing.assert_allclose(ratio, 2.0, rtol=1e-10)


def test_gradient_finite_difference_at_unit_radius():
    rho = ExponentialDensity(zeta=HE_ZETA, n_electrons=2)
    p = np.array([0.3, -0.5, 0.8])
    p *= 1.0 / np.linalg.norm(p)
    step = 1e-5
    fd = np.empty(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = step
        fd[k] = (rho.value(p + e) - rho.value(p - e)) / (2.0 * step)
    np.testing.assert_allclose(rho.gradient(p), fd, rtol=1e-6)


@pytest.mark.parametrize(
    "density",
    [
        ExponentialDensity(zeta=1.0, n_electrons=1),
        ExponentialDensity(zeta=HE_ZETA, n_electrons=2),
        ExponentialMixtureDensity(zetas=(0.8, 2.0), weights=(0.3, 0.7), n_electrons=3),
    ],
)
def test_gradient_finite_difference_random_points(density):
    rng = np.random.default_rng(11)
    pts = random_points(rng, 100, 3, r_min=0.1)
    step = 1e-5
    grad = density.gradient(pts)
    fd = np.empty_like(grad)
    for k in range(3):
        e = np.zeros(3)
        e[k] = step
        fd[:, k] = (density.value(pts + e) - density.value(pts - e)) / (2.0 * step)
    rel = np.linalg.norm(grad - fd, axis=-1) / np.linalg.norm(grad, axis=-1)
    assert rel.max() <= 1e-6


def test_gradient_undefined_at_origin():
    rho = ExponentialDensity(zeta=1.0, n_electrons=1)
    with pytest.raises(DomainError):
        rho.gradient(np.zeros(3))


def test_uniform_tabulated_gradient_is_zero():
    x = np.linspace(-4.0, 4.0, 81)
    rho = Tabulated1DDensity(x, np.ones_like(x), n_electrons=2)
    pts = np.linspace(-3.0, 3.0, 13)[:, None]
    np.testing.assert_array_equal(rho.gradient(pts), 0.0)


@pytest.mark.parametrize(
    "x",
    [np.linspace(3.0, -3.0, 61), np.array([0.0, 1.0, 3.0]), np.array([0.5])],
    ids=["decreasing", "uneven", "one-point"],
)
def test_tabulated_grid_must_be_increasing_and_uniform(x):
    # a decreasing table has a uniform but negative spacing: it must fail on
    # the grid rule that the grid oracle shares, not later on its mass
    with pytest.raises(DomainError, match="increasing, uniform grid"):
        Tabulated1DDensity(x, np.ones_like(x), 2)


def test_tabulated_normalization_and_interpolation():
    x = np.linspace(-6.0, 6.0, 241)
    vals = np.exp(-np.abs(x))
    rho = Tabulated1DDensity(x, vals, n_electrons=2)
    assert float(rho.values.sum() * rho.h) == pytest.approx(2.0, rel=1e-12)
    # outside the table the density vanishes
    assert rho.value(np.array([[7.0]]))[0] == 0.0


CDF_DENSITIES = {
    "exponential-3d": ExponentialDensity(zeta=1.3, n_electrons=2),
    "mixture-3d": ExponentialMixtureDensity((0.8, 2.5), (0.3, 0.7), n_electrons=3),
    "exponential-1d": ExponentialDensity(zeta=0.7, n_electrons=2, dim=1),
    "mixture-1d": ExponentialMixtureDensity((0.6, 1.9), (0.5, 0.5), n_electrons=2, dim=1),
    "tabulated": Tabulated1DDensity(
        np.linspace(-6.0, 6.0, 241), np.exp(-0.5 * np.linspace(-6.0, 6.0, 241) ** 2), 2
    ),
}


def _cdf_by_quadrature(density, q):
    """The integral of rho/N over radii up to q in 3D, or over x up to q in
    1D, by 16-node Gauss-Legendre panels; in 1D the panels start at -40,
    and their edges include the cusp at 0 and every node of a table, so
    each panel's integrand is smooth."""
    if density.dim == 3:
        edges = np.linspace(0.0, q, 9)
    else:
        edges = np.union1d(np.linspace(-40.0, 0.0, 161), getattr(density, "x", []))
        edges = np.append(edges[edges < q], q)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t, w = _gauss_legendre(16, a, b)
        points = np.zeros((16, density.dim))
        points[:, -1] = t
        jacobian = 4.0 * np.pi * t * t if density.dim == 3 else 1.0
        total += float(np.sum(w * jacobian * density.value(points)))
    return total / density.n_electrons


@pytest.mark.parametrize("kind", list(CDF_DENSITIES))
def test_cdf_is_the_integral_of_rho_over_n(kind):
    density = CDF_DENSITIES[kind]
    q = np.array([0.05, 0.4, 1.0, 2.2, 4.0]) if density.dim == 3 else np.array(
        [-4.1, -1.23, -0.3, 0.0, 0.17, 0.9, 2.6]
    )
    points = np.zeros((q.size, density.dim))
    points[:, -1] = q
    reference = [_cdf_by_quadrature(density, x) for x in q]
    # a table's cdf interpolates its node values linearly, so between nodes
    # it is off by at most h^2/8 max|rho'|/N = 5e-5
    tol = 1e-4 if kind == "tabulated" else 1e-12
    np.testing.assert_allclose(density.cdf(points), reference, rtol=0.0, atol=tol)
    # the 3D cdf depends on the radius only
    rotated = points[:, ::-1] if density.dim == 3 else points
    np.testing.assert_allclose(density.cdf(rotated), density.cdf(points), rtol=1e-15)


@pytest.mark.parametrize("kind", list(CDF_DENSITIES))
def test_cdf_is_monotone_from_zero_to_one(kind):
    density = CDF_DENSITIES[kind]
    lo = 0.0 if density.dim == 3 else -40.0
    points = np.zeros((4001, density.dim))
    points[:, -1] = np.linspace(lo, 40.0, 4001)
    f = density.cdf(points)
    assert np.all(np.diff(f) >= 0.0)
    assert f[0] == pytest.approx(0.0, abs=1e-15)
    assert f[-1] == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# external potential and its integral
# ---------------------------------------------------------------------------


def test_external_energy_he():
    rho = ExponentialDensity(zeta=HE_ZETA, n_electrons=2)
    v = ExternalPotential(kind="coulomb-nucleus", z=2.0)
    e = external_energy(rho, v, default_grid(rho))
    assert e == pytest.approx(-6.75, abs=1e-6)


def test_external_energy_hydrogen():
    rho = ExponentialDensity(zeta=1.0, n_electrons=1)
    v = ExternalPotential(kind="coulomb-nucleus", z=1.0)
    e = external_energy(rho, v, default_grid(rho))
    assert e == pytest.approx(-1.0, abs=1e-6)


def test_external_energy_none_kind():
    rho = ExponentialDensity(zeta=1.0, n_electrons=2)
    v = ExternalPotential(kind="none", z=0.0)
    assert external_energy(rho, v, default_grid(rho)) == 0.0


SPHERICAL = [
    ExponentialDensity(zeta=1.0, n_electrons=2),
    ExponentialDensity(zeta=HE_ZETA, n_electrons=2),
    ExponentialDensity(zeta=2.5, n_electrons=2),
    ExponentialMixtureDensity(zetas=(0.8, 2.0), weights=(0.3, 0.7), n_electrons=3),
]


@pytest.mark.parametrize("rho", SPHERICAL)
def test_radial_rule_matches_product_grid(rho):
    # the default 3D grid is the product grid's radial rule alone; on the
    # spherical one-body integrands the angular sum is 4 pi exactly, so the
    # two agree to rounding
    from corrsearch.functionals import weizsacker_term

    product = radial_angular_grid(r_max=max(20.0, 14.0 / min(_zetas(rho))))
    radial = default_grid(rho)
    assert radial.nodes.shape == (128, 3)
    v = ExternalPotential(kind="coulomb-nucleus", z=2.0)
    for a, b in (
        (weizsacker_term(rho, radial), weizsacker_term(rho, product)),
        (external_energy(rho, v, radial), external_energy(rho, v, product)),
        (radial.integrate(rho.value), product.integrate(rho.value)),
    ):
        assert a == pytest.approx(b, rel=1e-14, abs=0.0)


def _zetas(rho):
    return rho.zetas if isinstance(rho, ExponentialMixtureDensity) else (rho.zeta,)


def test_radial_rule_refuses_a_non_spherical_potential():
    # the softened line potential on a 3D density depends on x alone: the
    # radial rule must not integrate it, the product grid still does
    rho = ExponentialDensity(zeta=1.0, n_electrons=2)
    v = ExternalPotential(kind="softened-1d", z=1.0, softening=0.5)
    with pytest.raises(DomainError):
        external_energy(rho, v, default_grid(rho))
    product = external_energy(rho, v, radial_angular_grid(r_max=20.0))
    assert np.isfinite(product) and product < 0.0


def test_external_energy_linear_in_z():
    # closed form: integral of rho/r = N zeta, so E = -N Z zeta
    rho = ExponentialDensity(zeta=1.2, n_electrons=2)
    grid = default_grid(rho)
    values = []
    for z in [0.5, 1.0, 2.0, 3.5, 5.0]:
        v = ExternalPotential(kind="coulomb-nucleus", z=z)
        values.append(external_energy(rho, v, grid))
    ratios = np.array(values) / np.array([0.5, 1.0, 2.0, 3.5, 5.0])
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
    assert ratios[0] == pytest.approx(-2.0 * 1.2, abs=1e-6)


def test_external_energy_linear_in_zeta():
    v = ExternalPotential(kind="coulomb-nucleus", z=2.0)
    values = []
    zetas = [0.7, 1.0, 1.5, 2.0, 2.5]
    for zeta in zetas:
        rho = ExponentialDensity(zeta=zeta, n_electrons=2)
        values.append(external_energy(rho, v, default_grid(rho)))
    ratios = np.array(values) / np.array(zetas)
    np.testing.assert_allclose(ratios, -4.0, rtol=1e-7)


def test_external_energy_dim_mismatch():
    rho = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    v = ExternalPotential(kind="softened-1d", z=1.0)
    grid3 = radial_angular_grid(r_max=10.0, n_radial=8, n_theta=4, n_phi=4)
    with pytest.raises(DomainError):
        external_energy(rho, v, grid3)


def test_softened_potential_finite_everywhere():
    v = ExternalPotential(kind="softened-1d", z=2.0, softening=1.0)
    x = np.linspace(-5.0, 5.0, 101)[:, None]
    vals = v.value(x)
    assert np.all(np.isfinite(vals))
    assert vals.min() == pytest.approx(-2.0)
    assert np.all(vals <= 0.0)


def test_potential_validation():
    with pytest.raises(DomainError):
        ExternalPotential(kind="magnetic", z=1.0)
    with pytest.raises(DomainError):
        ExternalPotential(kind="coulomb-nucleus", z=-1.0)


# ---------------------------------------------------------------------------
# space / one-particle volume
# ---------------------------------------------------------------------------


def test_omega_is_domain_volume_over_n():
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=2)
    ball = 4.0 / 3.0 * np.pi
    assert ball * space.omega_radius**3 == pytest.approx(ball * 1000.0 / 2.0)
    # omega stays a ball: radius scales with N^(1/3)
    assert space.omega_radius == pytest.approx(10.0 / 2.0 ** (1.0 / 3.0))

    line = SpaceSpec(dim=1, radius=6.0, n_electrons=3)
    assert 2.0 * line.omega_radius == pytest.approx(12.0 / 3.0)


def test_space_validation():
    with pytest.raises(DomainError):
        SpaceSpec(dim=2, radius=1.0)
    with pytest.raises(DomainError):
        SpaceSpec(dim=3, radius=-1.0)
    with pytest.raises(DomainError):
        SpaceSpec(dim=1, radius=1.0, softening=0.0)


def test_uniform_omega_draws_inside():
    space = SpaceSpec(dim=3, radius=5.0, n_electrons=2)
    rng = np.random.default_rng(0)
    pts = space.uniform_omega(2000, rng)
    assert pts.shape == (2000, 3)
    assert space.in_omega(pts).all()
    # mean radius of uniform ball draws is 3b/4
    r = np.sqrt((pts**2).sum(axis=1))
    assert r.mean() == pytest.approx(0.75 * space.omega_radius, rel=0.02)


def test_grid_weights_positive():
    for grid in (radial_angular_grid(10.0, 16, 8, 8), uniform_1d_grid(5.0, 64)):
        assert np.all(grid.weights > 0.0)


def test_quadrature_grid_shape_guard():
    with pytest.raises(DomainError):
        QuadratureGrid("bad", np.zeros((4, 1)), np.ones(3))


def test_density_sampling_matches_density():
    # radial mean of the 3D exponential cloud is 3/(2 zeta)
    rho = ExponentialDensity(zeta=1.0, n_electrons=1)
    rng = np.random.default_rng(42)
    pts = rho.sample(200_000, rng)
    r = np.sqrt((pts**2).sum(axis=1))
    assert r.mean() == pytest.approx(1.5, abs=0.01)


@pytest.mark.parametrize("shape", [(3,), (1024, 3), (1024, 1), (64, 5, 3), (7, 4, 1), (9, 12)])
def test_in_order_sums_are_bit_equal_to_the_reduction(shape):
    # the kernel adds short last axes in order (|x|^2, the moved satellite's
    # pair-term changes); numpy's reduction over fewer than 8 terms does
    # too, and bit-identical chains rely on the match
    rng = np.random.default_rng(len(shape))
    points = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3, size=shape)
    for layout in (points, np.asfortranarray(points), points[..., ::-1]):
        np.testing.assert_array_equal(sum_last(layout), np.sum(layout, axis=-1))
        np.testing.assert_array_equal(sq_norm(layout), np.sum(layout * layout, axis=-1))


@pytest.mark.parametrize("n", [24, 128, 160])
def test_gauss_legendre_unit_rule_is_cached_and_read_only(n):
    # every grid of n nodes shares one solved rule: it must be leggauss's
    # bit for bit, and no caller may write into it
    x, w = _unit_gauss_legendre(n)
    want_x, want_w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_array_equal(x, want_x)
    np.testing.assert_array_equal(w, want_w)
    assert _unit_gauss_legendre(n)[0] is x
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("dim", [3, 1])
def test_mixture_hinted_value_on_strided_views(dim):
    # the step loop passes rho the moved satellites as an (m, d) view of a
    # chain-last (d, m) array, with their radii; that must equal a full
    # evaluation of the same points as a C-ordered array
    mix = ExponentialMixtureDensity(zetas=(0.8, 2.0), weights=(0.3, 0.7), n_electrons=3, dim=dim)
    new = np.random.default_rng(dim).standard_normal((dim, 128)).T
    assert not new.flags.c_contiguous or dim == 1
    hinted = mix.value(new, np.sqrt(sq_norm(new)))
    np.testing.assert_array_equal(hinted, mix.value(np.ascontiguousarray(new)))
    assert hinted.shape == (128,)


@pytest.mark.parametrize("kind", ["exponential-3d", "exponential-1d", "mixture", "tabulated"])
def test_value_with_radius_equals_value_without(kind):
    # the hinted evaluation passes the radii it has already taken; every
    # density must give bit for bit what it gives from the points alone,
    # with and without out, and must leave the radii as they were.  The
    # tabulated density is not radial and ignores them
    x = np.linspace(-3.0, 3.0, 61)
    density, dim = {
        "exponential-3d": (ExponentialDensity(zeta=1.3, n_electrons=2), 3),
        "exponential-1d": (ExponentialDensity(zeta=1.3, n_electrons=2, dim=1), 1),
        "mixture": (ExponentialMixtureDensity((0.8, 2.0), (0.3, 0.7), n_electrons=3), 3),
        "tabulated": (Tabulated1DDensity(x, np.exp(-x * x), n_electrons=2), 1),
    }[kind]
    points = np.random.default_rng(5).standard_normal((dim, 97)).T
    radius = np.sqrt(sq_norm(points))
    if kind == "tabulated":
        radius = np.full(97, np.nan)
    given = radius.copy()
    want = density.value(points)
    np.testing.assert_array_equal(density.value(points, radius), want)
    out = np.empty(97)
    assert density.value(points, radius, out) is out
    np.testing.assert_array_equal(out, want)
    out = np.empty(97)
    assert density.value(points, None, out) is out
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(radius, given)
