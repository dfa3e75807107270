"""Conditional families: pair kernel, log-values, scores, admissibility checks."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import corrsearch
from corrsearch.ansatz import (
    FAMILIES,
    AnsatzError,
    ConditionalAnsatz,
    FrozenOrbitalProduct,
    GaussianToy,
    PairwiseBiparametric,
    SimpleFactorized,
    build_ansatz,
    pair_energy,
    pair_energy_grad_x,
)
from corrsearch.config import parse_config
from corrsearch.domain import (
    DENSITIES,
    ExponentialDensity,
    SpaceSpec,
    Tabulated1DDensity,
    radial_grid,
    uniform_1d_grid,
)

from corrsearch.functionals import (
    MARGINAL_TAIL,
    check_conditions,
    gamma_correlation,
    student_t_isf,
)

from conftest import HE_ZETA, fast_settings, normalization_simple, radial_angular_grid


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
    for name in ("simple", "frozen", "gaussian-toy")
    for n in (2, 6)
    for dim in (3, 1)
]


@pytest.mark.parametrize("name,n,dim", HINT_CASES)
def test_move_hint_matches_full_evaluation(name, n, dim):
    # random single-satellite move sequences, walked like the sampler: the
    # hinted value of each proposal, from a call given the current state,
    # against the full evaluation of the proposal, and the accepted hinted
    # value carried forward as the next log_old.  A
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
    state = ans.chain_state(r, cur)
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
        with np.errstate(divide="ignore", invalid="ignore"):  # as in the step loop
            hinted = ans.log_unnormalized(r, cur, moved=(k, old, new, log_cur, state))
        full = ans.log_unnormalized(r, proposal)
        if n_sat == 1:
            # one satellite: the hinted value is the full formula's, bit for bit
            np.testing.assert_array_equal(hinted, full)
        np.testing.assert_array_equal(np.isneginf(hinted), np.isneginf(full))
        finite = np.isfinite(full)
        err = np.abs(hinted[finite] - full[finite])
        assert np.all(err <= 1e-12 * np.maximum(np.abs(full), scale)[finite])
        accept = np.log(rng.random(m)) < hinted - log_cur
        cur[accept] = proposal[accept]
        log_cur = np.where(accept, hinted, log_cur)
        if state is not None and n_sat > 1:
            state.commit(accept.nonzero()[0])
        scale = np.maximum(scale, np.abs(log_cur))


@pytest.mark.parametrize("n,dim", [(2, 3), (3, 3), (6, 3), (3, 1)])
@pytest.mark.parametrize("beta", [0.0, 1.5])
def test_hinted_kernel_does_not_depend_on_layout(n, dim, beta):
    # the sampler passes the family views of its chain-last (S, d, m) store
    # of the current state and (d, m) points; the same moves as C-ordered
    # copies must give the same hinted values and chain states, bit for bit
    density = ExponentialDensity(zeta=1.0, n_electrons=n, dim=dim)
    space = SpaceSpec(dim=dim, radius=4.0, n_electrons=n)
    ans = PairwiseBiparametric(density, space, gamma=0.8, beta=beta)
    n_sat, m = n - 1, 64
    rng = np.random.default_rng(n * 10 + dim)
    rows = np.arange(m)
    r = density.sample(m, rng)
    start = np.stack([ans.initial_satellites(r[c], rng) for c in range(m)])
    store = np.ascontiguousarray(start.transpose(1, 2, 0))
    log_cur = ans.log_unnormalized(r, start)
    states = [ans.chain_state(r, store.transpose(2, 0, 1)), ans.chain_state(r, start)]
    names = ("rho_r", "rho_sat", "e_cond", "e_pair")
    for step in range(120):
        k = rng.integers(n_sat, size=m)
        old = np.ascontiguousarray(store[k, :, rows].T)  # (d, m), as the loop gathers it
        new = old + 0.6 * rng.standard_normal((dim, m))
        kind = step % 4  # exact zero-weight targets: r, another satellite, outside omega
        if kind == 1:
            new[:, ::5] = r[::5].T
        elif kind == 2 and n_sat >= 2:
            new[:, ::5] = store[(k + 1) % n_sat, :, rows][::5].T
        elif kind == 3:
            new[:, ::5] = 1.5 * space.omega_radius
        proposal = store.copy()
        proposal[k, :, rows] = new.T
        views = (np.ascontiguousarray(r.T).T, store.transpose(2, 0, 1), old.T, new.T)
        copies = tuple(np.ascontiguousarray(a) for a in views)
        with np.errstate(divide="ignore", invalid="ignore"):  # as in the step loop
            got = [
                ans.log_unnormalized(rr, a, moved=(k, o, nw, log_cur, st))
                for (rr, a, o, nw), st in zip((views, copies), states)
            ]
        np.testing.assert_array_equal(got[0], got[1])
        accept = np.log(rng.random(m)) < got[0] - log_cur
        if n_sat > 1:
            for st in states:
                st.commit(accept.nonzero()[0])
        for name in names:
            held, want = getattr(states[0], name), getattr(states[1], name)
            assert (held is None) == (want is None), name
            if held is not None:
                np.testing.assert_array_equal(held, want, err_msg=name)
        store[..., accept] = proposal[..., accept]
        log_cur = np.where(accept, got[0], log_cur)
    assert 0 < accept.sum() < m


@pytest.mark.parametrize("n", [3, 6])
def test_hinted_gathers_read_the_moved_satellites_terms(n):
    # the hinted call reads the moved satellite's old terms through flat
    # indices in take's 'clip' mode, which clamps an out-of-range index
    # instead of raising: pin pos and pair_pos against fancy indexing of
    # the (S, m) and (S, S, m) arrays, so an index bug cannot go silent
    density = ExponentialDensity(zeta=1.0, n_electrons=n)
    space = SpaceSpec(dim=3, radius=4.0, n_electrons=n)
    ans = PairwiseBiparametric(density, space, gamma=0.8, beta=1.5)
    n_sat, m = n - 1, 64
    rng = np.random.default_rng(n)
    chains = np.arange(m)
    r = density.sample(m, rng)
    cur = np.stack([ans.initial_satellites(r[c], rng) for c in range(m)])
    log_cur = ans.log_unnormalized(r, cur)
    state = ans.chain_state(r, cur)
    for _ in range(20):
        k = rng.integers(n_sat, size=m)
        new = cur[chains, k] + 0.1 * rng.standard_normal((m, 3))
        with np.errstate(divide="ignore", invalid="ignore"):  # as in the step loop
            ans.log_unnormalized(r, cur, moved=(k, cur[chains, k], new, log_cur, state))
        np.testing.assert_array_equal(state.pos, np.ravel_multi_index((k, chains), (n_sat, m)))
        np.testing.assert_array_equal(np.take(state.e_cond, state.pos, mode="clip"),
                                      state.e_cond[k, chains])
        # the term of satellites j and k is held once, at [min(j, k), max(j, k)]
        rows = np.arange(n_sat)[:, None]
        lo, hi = np.minimum(rows, k), np.maximum(rows, k)
        np.testing.assert_array_equal(
            state.pair_pos, np.ravel_multi_index((lo, hi, chains), (n_sat, n_sat, m))
        )
        np.testing.assert_array_equal(np.take(state.e_pair, state.pair_pos, mode="clip"),
                                      state.e_pair[lo, hi, chains])


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
# the simple family's normalization, the quadrature reference
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
    assert 2.0 * space.omega_radius == pytest.approx(1.0)
    assert ebar == pytest.approx(0.0, abs=1e-12)


def test_normalization_simple_requires_simple():
    density, space = he_pair()
    ans = PairwiseBiparametric(density, space, gamma=1.0, beta=0.0)
    grid = radial_angular_grid(space.omega_radius, 48, 16, 16)
    with pytest.raises(AnsatzError):
        normalization_simple(ans, np.zeros(3), grid)


def test_pairwise_matches_simple_at_n2():
    # N = 2 pairwise at gamma = 1 is the simple family at any beta, so its
    # sampled satellite marginal is the simple family's mean of u = F(|s|),
    # here by quadrature: over |r| by a radial rule, and over s in omega
    # by the product rule, normalized per r by normalization_simple.  At
    # radius 1.3 omega cuts into rho, and the mean sits below 1/2; finer
    # rules (96 x 64 x 24 x 24, 128 x 96 x 32 x 32) move it by < 1e-6
    density = ExponentialDensity(zeta=HE_ZETA, n_electrons=2)
    space = SpaceSpec(dim=3, radius=1.3, n_electrons=2)
    pairwise = PairwiseBiparametric(density, space, gamma=1.0, beta=3.0)
    simple = SimpleFactorized(density, space)
    outer = radial_grid(20.0, 64)
    inner = radial_angular_grid(space.omega_radius, 48, 16, 16)
    u = density.cdf(inner.nodes)
    cond = []
    for r in outer.nodes:
        e = pair_energy(density, space, r[None, :], inner.nodes)
        scale = np.exp(normalization_simple(simple, r, inner))
        cond.append(scale * np.sum(inner.weights * np.exp(-e) * u))
    quad = float(np.sum(outer.weights * density.value(outer.nodes) / 2.0 * np.array(cond)))
    assert quad == pytest.approx(0.49641, abs=1e-5)

    report = check_conditions(pairwise, fast_settings(conditioning_points=512, samples=128, seed=3))
    assert abs(report.marginal_u - quad) <= 3.0 * report.marginal_stderr
    assert report.marginal_stderr < 0.003


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


def test_conditions_pairwise_has_the_zeros_but_not_the_marginal():
    # the coincidence zeros hold, but the satellites, confined to omega and
    # pushed off r, do not follow rho/N
    density, space = lithium_like()
    ans = PairwiseBiparametric(density, space, gamma=0.5, beta=0.5)
    report = check_conditions(ans, fast_settings())
    assert report.marginal_z > 100.0 and not report.marginal
    assert report.vanishes_at_conditioning
    assert report.vanishes_at_satellite_pairs is True
    assert report.fermionic_compatible
    assert not report.all_pass


def test_conditions_simple_fails_satellite_contact():
    density, space = lithium_like()
    ans = SimpleFactorized(density, space)
    report = check_conditions(ans, fast_settings())
    assert not report.marginal
    assert report.vanishes_at_conditioning
    assert report.vanishes_at_satellite_pairs is False
    assert not report.fermionic_compatible
    assert not report.all_pass


def test_conditions_frozen():
    density, space = lithium_like()
    ans = FrozenOrbitalProduct(density, space)
    report = check_conditions(ans, fast_settings())
    assert report.marginal
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
        report = check_conditions(ans, fast_settings(conditioning_points=16, seed=1))
        assert report.vanishes_at_satellite_pairs is None
        assert report.fermionic_compatible


@pytest.mark.parametrize(
    "dim, n", [(3, 2), (3, 6), (1, 2)], ids=["3d-n2", "3d-n6", "1d-n2"]
)
def test_frozen_marginal_passes_at_chance_rate(dim, n):
    # satellites drawn from rho/N make u = F(s) uniform, so |z| > 3 is
    # chance: 0.27 % a seed, and two of 20 seeds already has odds of 1e-3
    density = ExponentialDensity(zeta=1.2, n_electrons=n, dim=dim)
    space = SpaceSpec(dim=dim, radius=6.0, n_electrons=n)
    ans = FrozenOrbitalProduct(density, space)
    zs = [check_conditions(ans, fast_settings(seed=seed)).marginal_z for seed in range(20)]
    assert sum(abs(z) > 3.0 for z in zs) <= 1, zs
    assert abs(np.mean(zs)) <= 3.0 / np.sqrt(20), zs


@pytest.mark.parametrize("nu", [1, 2, 23, 511])
def test_student_t_point_matches_scipy(nu):
    scipy_stats = pytest.importorskip("scipy.stats")
    assert student_t_isf(0.00135, nu) == pytest.approx(scipy_stats.t.isf(0.00135, nu), abs=1e-10)


def test_marginal_cuts_at_the_student_t_point_of_its_points():
    # z's standard error comes from the M conditioning points (walkers are
    # collapsed first), so the cut is t's with M - 1 degrees of freedom,
    # wider than the normal's 3 at few points
    density = ExponentialDensity(zeta=1.2, n_electrons=2)
    space = SpaceSpec(dim=3, radius=6.0, n_electrons=2)
    ans = FrozenOrbitalProduct(density, space)
    report = check_conditions(ans, fast_settings(conditioning_points=24, walkers=2))
    assert report.marginal_cut == student_t_isf(MARGINAL_TAIL / 2, 23) > 3.3
    assert report.marginal == (abs(report.marginal_z) <= report.marginal_cut)
    between = dataclasses.replace(report, marginal_z=-3.2)
    assert between.marginal and between.to_dict()["marginal"]
    assert not dataclasses.replace(report, marginal_z=3.4).marginal
    with pytest.raises(ValueError):
        student_t_isf(MARGINAL_TAIL / 2, 0)


def test_default_helium_pairwise_fails_the_marginal():
    # the default helium run: radius 10 puts omega far past rho's mass, and
    # the satellites spread over it, at mean |s| about 3/4 of its radius
    density = ExponentialDensity(zeta=HE_ZETA, n_electrons=2)
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=2)
    report = check_conditions(PairwiseBiparametric(density, space, 1.0, 1.0), fast_settings())
    assert report.marginal_u > 0.99
    assert report.marginal_z > 100.0 and not report.all_pass


@pytest.mark.parametrize("name", [n for n, cls in FAMILIES.items() if cls.marginal_matched])
def test_marginal_matched_families_pass_the_marginal(name):
    # bound_status labels these families' energies variational at N = 2,
    # which holds only if their satellite marginal is rho/N
    for n in (2, 3):
        density, space = lithium_like(n)
        ans = build_ansatz(name, density, space)
        assert check_conditions(ans, fast_settings(seed=n)).marginal


def test_fermionic_compatibility_rules():
    density, space = lithium_like()
    assert PairwiseBiparametric(density, space, 1.0, 1.0).fermionic_compatible
    assert not PairwiseBiparametric(density, space, 1.0, 0.0).fermionic_compatible
    assert not SimpleFactorized(density, space).fermionic_compatible
    assert not FrozenOrbitalProduct(density, space).fermionic_compatible


# ---------------------------------------------------------------------------
# family registry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(FAMILIES))
def test_every_registered_family_parses_and_builds(name):
    cfg = parse_config(f"[system]\nn = 3\nz = 3.0\n[ansatz]\nfamily = {name}\n")
    density, space = lithium_like()
    ans = build_ansatz(cfg.ansatz.family, density, space, cfg.ansatz.gamma, cfg.ansatz.beta)
    assert ans.family == name
    assert type(ans) is FAMILIES[name]


def test_build_ansatz_unknown_family_raises_ansatz_error():
    density, space = he_pair()
    with pytest.raises(AnsatzError, match="hartree-fock"):
        build_ansatz("hartree-fock", density, space)


@pytest.mark.parametrize("n", [2, 6])
def test_simple_is_pairwise_at_unit_gamma_zero_beta(n):
    density = ExponentialDensity(zeta=1.0, n_electrons=n)
    space = SpaceSpec(dim=3, radius=4.0, n_electrons=n)
    simple = SimpleFactorized(density, space)
    pair = PairwiseBiparametric(density, space, 1.0, 0.0)
    n_sat, m = n - 1, 64
    rng = np.random.default_rng(n)
    rows = np.arange(m)
    r = density.sample(m, rng)
    cur = space.uniform_omega(m * n_sat, rng).reshape(m, n_sat, 3)
    log_cur = pair.log_unnormalized(r, cur)
    k = rng.integers(n_sat, size=m)
    proposal = cur.copy()
    proposal[rows, k] += 0.6 * rng.standard_normal((m, 3))
    # exact zero-weight proposals: onto r, onto another satellite, outside omega
    proposal[0::5, 0] = r[0::5]
    proposal[1::5, -1] = proposal[1::5, 0]
    proposal[2::5, 0] = 1.5 * space.omega_radius
    hint = (k, cur[rows, k], proposal[rows, k], log_cur)
    for sats in (cur, proposal):
        np.testing.assert_array_equal(
            simple.log_unnormalized(r, sats), pair.log_unnormalized(r, sats)
        )
        np.testing.assert_array_equal(simple.score(r, sats), pair.score(r, sats))
    with np.errstate(divide="ignore", invalid="ignore"):  # as in the step loop
        np.testing.assert_array_equal(
            simple.log_unnormalized(r, cur, moved=hint + (simple.chain_state(r, cur),)),
            pair.log_unnormalized(r, cur, moved=hint + (pair.chain_state(r, cur),)),
        )
    assert simple.fermionic_compatible == pair.fermionic_compatible


def test_acting_couplings_key_equal_estimates():
    # the optimizer's memo rests on this: at N = 2 beta weighs no satellite
    # pair, so pairwise at any beta is one f with one estimate; at N = 3 it
    # acts, and changes both the key and the estimate
    settings = fast_settings(conditioning_points=32, samples=16, burn_in=32, seed=3)
    keys, estimates = {}, {}
    for n in (2, 3):
        density = ExponentialDensity(zeta=HE_ZETA, n_electrons=n)
        space = SpaceSpec(dim=3, radius=1.3, n_electrons=n)
        for beta in (0.0, 0.5, 5.0):
            ans = PairwiseBiparametric(density, space, 1.5, beta)
            keys[n, beta] = ans.acting_couplings
            estimates[n, beta] = gamma_correlation(density, ans, settings).to_dict()
        assert SimpleFactorized(density, space).acting_couplings == (1.0, 0.0)[: n - 1]
        assert FrozenOrbitalProduct(density, space).acting_couplings == ()
        assert GaussianToy(density, space).acting_couplings == ()
    assert keys[2, 0.0] == keys[2, 0.5] == keys[2, 5.0] == (1.5,)
    assert estimates[2, 0.0] == estimates[2, 0.5] == estimates[2, 5.0]
    assert len({keys[3, b] for b in (0.0, 0.5, 5.0)}) == 3
    assert keys[3, 0.5] == (1.5, 0.5)
    values = [estimates[3, b]["value"] for b in (0.0, 0.5, 5.0)]
    assert len(set(values)) == 3


def registry_offenders(owner: str, registry: dict) -> list[str]:
    """Where a package module other than owner lists or compares a name of
    the registry, or uses one of its classes in an isinstance check."""
    names = set(registry)
    classes = {cls.__name__ for cls in registry.values()}
    offenders = set()
    for path in sorted(Path(corrsearch.__file__).parent.glob("*.py")):
        if path.name == owner:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Compare, ast.Tuple, ast.List, ast.Set)):
                offenders |= {
                    f"{path.name}:{c.lineno} {c.value!r}"
                    for c in ast.walk(node)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and c.value in names
                }
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                offenders |= {
                    f"{path.name}:{c.lineno} isinstance {c.id}"
                    for c in ast.walk(node.args[1])
                    if isinstance(c, ast.Name) and c.id in classes
                }
    return sorted(offenders)


def test_family_names_appear_only_in_the_registry():
    # outside ansatz.py a family is reached through FAMILIES and the class
    # attributes: a family name compared or listed, or a family class in an
    # isinstance check, is a second copy of what the registry knows
    assert not registry_offenders("ansatz.py", FAMILIES)


def test_density_names_appear_only_in_the_registry():
    # the same for density families, whose registry and capabilities
    # (zetas, scale_searched, from_section) domain.py owns
    assert not registry_offenders("domain.py", DENSITIES)
