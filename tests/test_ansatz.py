"""Conditional families: pair kernel, log-values, scores, normalizations."""

import numpy as np
import pytest

from corrsearch.ansatz import (
    AnsatzError,
    FrozenOrbitalProduct,
    GaussianToy,
    PairwiseBiparametric,
    SimpleFactorized,
    check_conditions,
    log_normalization_pairwise,
    normalization_simple,
    pair_energy,
    pair_energy_grad_x,
)
from corrsearch.domain import (
    ExponentialDensity,
    SpaceSpec,
    Tabulated1DDensity,
    ball_grid,
    uniform_1d_grid,
)

from conftest import HE_ZETA


def he_pair():
    density = ExponentialDensity(zeta=1.0, n_electrons=2)
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=2)
    return density, space


def lithium_like(n=3):
    density = ExponentialDensity(zeta=1.0, n_electrons=n)
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=n)
    return density, space


# ---------------------------------------------------------------------------
# pair kernel
# ---------------------------------------------------------------------------


def test_pair_energy_closed_form():
    density, space = he_pair()
    r = np.array([0.0, 0.0, 0.5])
    r2 = np.array([0.0, 0.0, -0.5])
    rho_half = 2.0 / np.pi * np.exp(-1.0)
    expected = rho_half * rho_half / 1.0
    assert pair_energy(density, space, r, r2) == pytest.approx(expected, rel=1e-12)


def test_pair_energy_symmetric():
    density, space = he_pair()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(40, 3))
    np.testing.assert_array_equal(
        pair_energy(density, space, x, y), pair_energy(density, space, y, x)
    )


def test_pair_energy_zero_density_wins():
    # tabulated density vanishes outside its range; the product-zero rule
    # takes precedence even at exact coincidence
    x = np.linspace(-2.0, 2.0, 41)
    density = Tabulated1DDensity(x, np.exp(-x * x), n_electrons=2)
    space = SpaceSpec(dim=1, radius=4.0, n_electrons=2)
    outside = np.array([3.5])
    inside = np.array([0.5])
    assert pair_energy(density, space, outside, inside) == 0.0
    assert pair_energy(density, space, outside, outside) == 0.0


def test_pair_energy_coincidence_is_inf():
    density, space = he_pair()
    p = np.array([0.1, 0.2, 0.3])
    assert pair_energy(density, space, p, p) == np.inf
    # softened 1D kernel is finite at contact, but the signaling value
    # still marks the coincidence
    density1 = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    space1 = SpaceSpec(dim=1, radius=6.0, n_electrons=2)
    q = np.array([0.4])
    assert pair_energy(density1, space1, q, q) == np.inf


def test_pair_energy_divergence_near_contact():
    density, space = he_pair()
    p = np.array([0.5, 0.0, 0.0])
    vals = [
        pair_energy(density, space, p, p + np.array([eps, 0.0, 0.0]))
        for eps in (1e-2, 1e-5, 1e-8)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_pair_energy_gradient_matches_fd():
    density, space = he_pair()
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=(20, 3)) + 2.0
    grad = pair_energy_grad_x(density, space, x, y)
    step = 1e-6
    fd = np.empty_like(grad)
    for k in range(3):
        e = np.zeros(3)
        e[k] = step
        fd[:, k] = (
            pair_energy(density, space, x + e, y)
            - pair_energy(density, space, x - e, y)
        ) / (2.0 * step)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)


# ---------------------------------------------------------------------------
# log f~ values
# ---------------------------------------------------------------------------


def test_pairwise_zero_couplings_test_mode():
    density, space = lithium_like()
    ans = PairwiseBiparametric(density, space, gamma=0.0, beta=0.0, test_mode=True)
    rng = np.random.default_rng(2)
    r = np.array([0.3, 0.0, 0.0])
    sats = space.uniform_omega(2, rng)
    assert ans.log_unnormalized(r, sats) == 0.0


def test_pairwise_conditioning_coincidence_is_minus_inf():
    density, space = he_pair()
    ans = PairwiseBiparametric(density, space, gamma=1.0, beta=1.0)
    r = np.array([0.2, -0.1, 0.4])
    sats = r[None, :].copy()
    assert ans.log_unnormalized(r, sats) == -np.inf


def test_pairwise_three_electron_term_sum():
    density, space = lithium_like()
    ans = PairwiseBiparametric(density, space, gamma=1.0, beta=2.0)
    r = np.array([0.0, 0.0, 0.7])
    s2 = np.array([0.8, 0.0, -0.3])
    s3 = np.array([-0.5, 0.6, 0.1])
    expected = -(
        pair_energy(density, space, r, s2)
        + pair_energy(density, space, r, s3)
        + 2.0 * pair_energy(density, space, s2, s3)
    )
    got = ans.log_unnormalized(r, np.stack([s2, s3]))
    assert got == pytest.approx(expected, rel=1e-12)


def test_satellite_coincidence_pairwise_vs_simple():
    density, space = lithium_like()
    r = np.array([0.0, 0.0, 0.7])
    s = np.array([0.8, 0.0, -0.3])
    sats = np.stack([s, s])
    pairwise = PairwiseBiparametric(density, space, gamma=1.0, beta=1.0)
    simple = SimpleFactorized(density, space)
    assert pairwise.log_unnormalized(r, sats) == -np.inf
    assert np.isfinite(simple.log_unnormalized(r, sats))


def test_confined_support():
    density, space = he_pair()
    ans = PairwiseBiparametric(density, space, gamma=1.0, beta=0.0)
    r = np.array([0.1, 0.0, 0.0])
    outside = np.array([[space.omega_radius + 1.0, 0.0, 0.0]])
    assert ans.log_unnormalized(r, outside) == -np.inf
    frozen = FrozenOrbitalProduct(density, space)
    assert np.isfinite(frozen.log_unnormalized(r, outside))


def test_permutation_symmetry():
    density, space = lithium_like(4)
    rng = np.random.default_rng(17)
    r = np.array([0.0, 0.2, -0.1])
    sats = space.uniform_omega(3, rng)
    for ans in (
        PairwiseBiparametric(density, space, gamma=0.7, beta=0.4),
        SimpleFactorized(density, space),
        FrozenOrbitalProduct(density, space),
    ):
        base = ans.log_unnormalized(r, sats)
        for _ in range(6):
            perm = rng.permutation(3)
            assert ans.log_unnormalized(r, sats[perm]) == pytest.approx(
                base, rel=1e-12
            )


def _hint_family(name, n, dim):
    density = ExponentialDensity(zeta=1.0, n_electrons=n, dim=dim)
    space = SpaceSpec(dim=dim, radius=4.0, n_electrons=n)
    if name == "pairwise-beta0":
        return PairwiseBiparametric(density, space, gamma=0.8, beta=0.0)
    if name == "pairwise":
        return PairwiseBiparametric(density, space, gamma=0.8, beta=1.5)
    if name == "test-mode":
        return PairwiseBiparametric(density, space, gamma=0.0, beta=1.5, test_mode=True)
    if name == "simple":
        return SimpleFactorized(density, space)
    if name == "frozen":
        return FrozenOrbitalProduct(density, space)
    return GaussianToy(density, space, width=0.7)


HINT_CASES = [
    (name, n, dim)
    for name in ("pairwise-beta0", "pairwise")
    for n in (2, 3, 6)
    for dim in (3, 1)
] + [
    (name, n, dim)
    for name in ("test-mode", "simple", "frozen", "gaussian-toy")
    for n in (2, 6)
    for dim in (3, 1)
]


@pytest.mark.parametrize("name,n,dim", HINT_CASES)
def test_move_hint_matches_full_evaluation(name, n, dim):
    # random single-satellite move sequences, walked like the sampler: the
    # hinted value of each proposal against the full evaluation of it, and
    # the accepted hinted value carried forward as the next log_old.  A
    # carried value is a running sum of term changes, so its rounding error
    # scales with the largest |log f~| the chain has held, not with the
    # current value (which can be far smaller); that is the relative scale
    ans = _hint_family(name, n, dim)
    n_sat, m = ans.n_satellites, 64
    rng = np.random.default_rng(n * 10 + dim)
    rows = np.arange(m)
    r = ans.density.sample(m, rng)
    cur = np.stack([ans.initial_satellites(r[c], rng) for c in range(m)])
    log_cur = ans.log_unnormalized(r, cur)
    scale = np.abs(log_cur)
    for step in range(300):
        k = rng.integers(n_sat, size=m)
        old = cur[rows, k]
        new = old + 0.6 * rng.standard_normal((m, dim))
        # exact zero-weight targets: onto r, onto another satellite, outside omega
        kind = step % 4
        if kind == 1:
            new[::5] = r[::5]
        elif kind == 2 and n_sat >= 2:
            new[::5] = cur[rows, (k + 1) % n_sat][::5]
        elif kind == 3:
            new[::5] = 1.5 * ans.space.omega_radius
        proposal = cur.copy()
        proposal[rows, k] = new
        hinted = ans.log_unnormalized(r, proposal, moved=(k, old, log_cur))
        full = ans.log_unnormalized(r, proposal)
        np.testing.assert_array_equal(np.isneginf(hinted), np.isneginf(full))
        finite = np.isfinite(full)
        err = np.abs(hinted[finite] - full[finite])
        assert np.all(err <= 1e-12 * np.maximum(np.abs(full), scale)[finite])
        accept = np.log(rng.random(m)) < hinted - log_cur
        cur[accept] = proposal[accept]
        log_cur = np.where(accept, hinted, log_cur)
        scale = np.maximum(scale, np.abs(log_cur))


def test_parameter_validation():
    density, space = he_pair()
    with pytest.raises(AnsatzError):
        PairwiseBiparametric(density, space, gamma=0.0, beta=1.0)
    with pytest.raises(AnsatzError):
        PairwiseBiparametric(density, space, gamma=1.0, beta=-0.5)
    with pytest.raises(AnsatzError):
        PairwiseBiparametric(density, space, gamma=np.inf, beta=0.0)
    other_space = SpaceSpec(dim=3, radius=10.0, n_electrons=3)
    with pytest.raises(AnsatzError):
        SimpleFactorized(density, other_space)


def test_shape_guard():
    density, space = lithium_like()
    ans = SimpleFactorized(density, space)
    r = np.zeros(3)
    with pytest.raises(AnsatzError):
        ans.log_unnormalized(r, np.zeros((1, 3)))  # needs 2 satellites


# ---------------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------------


def test_normalization_simple_zero_density():
    # conditioning point outside the tabulated support: E_H == 0, so the
    # integrand is 1 and Ebar = -ln vol(omega)
    x = np.linspace(-1.0, 1.0, 21)
    density = Tabulated1DDensity(x, np.ones_like(x), n_electrons=2)
    space = SpaceSpec(dim=1, radius=4.0, n_electrons=2)  # omega = [-2, 2]
    ans = SimpleFactorized(density, space)
    grid = uniform_1d_grid(space.omega_radius, n=512)
    ebar = normalization_simple(ans, np.array([3.0]), grid)
    assert ebar == pytest.approx(-np.log(4.0), abs=1e-12)


def test_normalization_simple_unit_volume():
    # with vol(omega) = 1 and vanishing exponent, Ebar equals the constant 0
    x = np.linspace(-0.3, 0.3, 13)
    density = Tabulated1DDensity(x, np.ones_like(x), n_electrons=2)
    space = SpaceSpec(dim=1, radius=1.0, n_electrons=2)  # omega = [-1/2, 1/2]
    ans = SimpleFactorized(density, space)
    grid = uniform_1d_grid(space.omega_radius, n=512)
    ebar = normalization_simple(ans, np.array([0.9]), grid)
    assert space.omega_volume == pytest.approx(1.0)
    assert ebar == pytest.approx(0.0, abs=1e-12)


def test_normalization_simple_requires_simple():
    density, space = he_pair()
    ans = PairwiseBiparametric(density, space, gamma=1.0, beta=0.0)
    with pytest.raises(AnsatzError):
        normalization_simple(ans, np.zeros(3), ball_grid(space.omega_radius))


def test_normalization_quadrature_vs_mc():
    # He-like density, conditioning point 1 a.u. from the nucleus
    density = ExponentialDensity(zeta=1.6875, n_electrons=2)
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=2)
    simple = SimpleFactorized(density, space)
    r = np.array([0.0, 0.0, 1.0])

    quad = normalization_simple(simple, r, ball_grid(space.omega_radius, 64, 24, 24))
    rng = np.random.default_rng(31)
    mc, se = log_normalization_pairwise(simple, r, 1_000_000, rng)
    assert abs(mc - quad) <= 3.0 * se
    assert se < 0.01


def test_pairwise_matches_simple_at_n2():
    # N=2 pairwise with gamma=1 has the identical exponent to simple
    density = ExponentialDensity(zeta=HE_ZETA, n_electrons=2)
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=2)
    pairwise = PairwiseBiparametric(density, space, gamma=1.0, beta=3.0)
    simple = SimpleFactorized(density, space)
    r = np.array([0.0, 0.0, 0.8])

    quad = normalization_simple(simple, r, ball_grid(space.omega_radius, 64, 24, 24))
    rng = np.random.default_rng(7)
    mc, se = log_normalization_pairwise(pairwise, r, 200_000, rng)
    assert abs(mc - quad) <= 3.0 * se


def test_pairwise_normalization_test_mode_exact():
    density, space = lithium_like()
    ans = PairwiseBiparametric(density, space, gamma=0.0, beta=0.0, test_mode=True)
    rng = np.random.default_rng(1)
    ebar, se = log_normalization_pairwise(ans, np.array([0.0, 0.0, 0.5]), 256, rng)
    assert ebar == pytest.approx(-2.0 * np.log(space.omega_volume), rel=1e-12)
    assert se == 0.0


def test_normalization_stderr_scaling():
    density, space = he_pair()
    ans = PairwiseBiparametric(density, space, gamma=1.0, beta=0.0)
    r = np.array([0.0, 0.0, 1.0])
    ses = []
    for n in (8192, 16384):
        vals = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            vals.append(log_normalization_pairwise(ans, r, n, rng)[1])
        ses.append(np.mean(vals))
    ratio = ses[1] / ses[0]
    assert 0.8 / np.sqrt(2.0) <= ratio <= 1.2 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


def test_frozen_score_is_zero():
    density, space = lithium_like()
    frozen = FrozenOrbitalProduct(density, space)
    rng = np.random.default_rng(3)
    r = np.array([0.1, 0.0, 0.5])
    sats = density.sample(2, rng)
    np.testing.assert_array_equal(frozen.score(r, sats), 0.0)


def test_gaussian_toy_score():
    density = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    space = SpaceSpec(dim=1, radius=8.0, n_electrons=2)
    toy = GaussianToy(density, space, width=1.0)
    r = np.array([0.3])
    s = np.array([[1.7]])
    assert toy.score(r, s)[0] == pytest.approx(1.4, rel=1e-12)


@pytest.mark.parametrize("family", ["pairwise", "simple"])
def test_score_is_gradient_of_log_f(family):
    density, space = lithium_like()
    if family == "pairwise":
        ans = PairwiseBiparametric(density, space, gamma=0.8, beta=0.5)
    else:
        ans = SimpleFactorized(density, space)
    rng = np.random.default_rng(23)
    step = 1e-5
    worst = 0.0
    for _ in range(50):
        r = density.sample(1, rng)[0]
        if np.linalg.norm(r) < 0.2:
            continue
        sats = ans.initial_satellites(r, rng)
        analytic = ans.score(r, sats)
        fd = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = step
            fd[k] = (
                ans.log_unnormalized(r + e, sats) - ans.log_unnormalized(r - e, sats)
            ) / (2.0 * step)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-5


# ---------------------------------------------------------------------------
# admissibility conditions
# ---------------------------------------------------------------------------


def test_conditions_pairwise_all_pass():
    density, space = lithium_like()
    ans = PairwiseBiparametric(density, space, gamma=0.5, beta=0.5)
    report = check_conditions(ans, n_points=10, n_samples=4096, seed=0)
    assert report.normalization_pass
    assert report.vanishes_at_conditioning
    assert report.vanishes_at_satellite_pairs is True
    assert report.fermionic_compatible
    assert report.all_pass


def test_conditions_simple_fails_satellite_contact():
    density, space = lithium_like()
    ans = SimpleFactorized(density, space)
    report = check_conditions(ans, n_points=10, n_samples=4096, seed=0)
    assert report.normalization_pass
    assert report.vanishes_at_conditioning
    assert report.vanishes_at_satellite_pairs is False
    assert not report.fermionic_compatible
    assert not report.all_pass


def test_conditions_frozen():
    density, space = lithium_like()
    ans = FrozenOrbitalProduct(density, space)
    report = check_conditions(ans, n_points=6, n_samples=512, seed=0)
    assert report.normalization_pass
    assert all(c.exact for c in report.normalization)
    assert not report.vanishes_at_conditioning
    assert report.vanishes_at_satellite_pairs is False
    assert not report.all_pass


def test_conditions_two_electron_case():
    # one satellite: nothing to check for condition (iii), and the spin
    # singlet makes every family structurally admissible
    density, space = he_pair()
    for ans in (
        PairwiseBiparametric(density, space, gamma=1.0, beta=0.0),
        SimpleFactorized(density, space),
        FrozenOrbitalProduct(density, space),
    ):
        report = check_conditions(ans, n_points=4, n_samples=2048, seed=1)
        assert report.vanishes_at_satellite_pairs is None
        assert report.fermionic_compatible


def test_fermionic_compatibility_rules():
    density, space = lithium_like()
    assert PairwiseBiparametric(density, space, 1.0, 1.0).fermionic_compatible
    assert not PairwiseBiparametric(density, space, 1.0, 0.0).fermionic_compatible
    assert not SimpleFactorized(density, space).fermionic_compatible
    assert not FrozenOrbitalProduct(density, space).fermionic_compatible
