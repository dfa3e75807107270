"""Nested search: simplex/golden-section engines, inner and outer loops."""

from dataclasses import replace

import numpy as np
import pytest

from corrsearch import optimizer, sampler
from corrsearch.domain import ExponentialDensity, ExternalPotential, SpaceSpec
from corrsearch.domain import default_grid, external_energy
from corrsearch.functionals import (
    EnergyBreakdown,
    GammaEstimate,
    gamma_correlation,
    weizsacker_term,
)
from corrsearch.optimizer import (
    OptimizeSpec,
    build_ansatz,
    fresh_estimate,
    golden_section,
    inner_minimize,
    nelder_mead,
    outer_minimize,
)
from corrsearch.sampler import SamplerSettings, fresh_seed, substream

from conftest import HE_ZETA


def he_setup():
    density = ExponentialDensity(zeta=HE_ZETA, n_electrons=2)
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=2)
    return density, space


def search_settings(**kw):
    base = dict(
        conditioning_points=128,
        samples=64,
        burn_in=128,
        thinning=2,
        sigma=1.0,
        seed=0,
    )
    base.update(kw)
    return SamplerSettings(**base)


# ---------------------------------------------------------------------------
# bare minimizers
# ---------------------------------------------------------------------------


def test_nelder_mead_quadratic():
    fn = lambda x: (x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2
    bounds = (np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    res = nelder_mead(fn, np.array([4.0, -3.0]), bounds, tol=1e-14, max_eval=400)
    assert np.abs(res.x - np.array([1.0, 2.0])).max() <= 1e-6
    assert res.converged


def test_nelder_mead_rosenbrock():
    fn = lambda x: (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    bounds = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    res = nelder_mead(fn, np.array([-1.2, 1.0]), bounds, tol=1e-16, max_eval=4000)
    assert np.abs(res.x - 1.0).max() <= 1e-4


def test_nelder_mead_constant_objective():
    fn = lambda x: 7.0
    bounds = (np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    res = nelder_mead(fn, np.array([0.3, 0.4]), bounds, tol=1e-3, max_eval=100)
    assert res.converged
    assert res.value == 7.0
    np.testing.assert_allclose(res.x, [0.3, 0.4])


def test_nelder_mead_zero_budget_returns_simplex_best():
    calls = []
    fn = lambda x: calls.append(1) or float(np.sum(x**2))
    bounds = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    res = nelder_mead(fn, np.array([0.5, 0.5]), bounds, tol=1e-12, max_eval=0)
    assert res.n_eval == 3  # initial simplex only
    assert not res.converged


def test_nelder_mead_never_passes_its_budget():
    # the budget is checked before every evaluation, inside an iteration
    # too, and a search stopped there returns the best point it evaluated
    fn = lambda x: (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    bounds = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    for max_eval in range(3, 30):
        values = []
        res = nelder_mead(
            lambda x: values.append(fn(x)) or values[-1], np.array([-1.2, 1.0]), bounds,
            tol=1e-16, max_eval=max_eval,
        )
        assert res.n_eval == len(values) == max_eval
        assert res.value == min(values)


def test_nelder_mead_respects_bounds():
    seen = []
    fn = lambda x: seen.append(np.array(x)) or float((x[0] - 10.0) ** 2 + x[1] ** 2)
    lo, hi = np.array([0.0, 0.0]), np.array([2.0, 2.0])
    res = nelder_mead(fn, np.array([5.0, 1.0]), (lo, hi), tol=1e-10, max_eval=200)
    pts = np.array(seen)
    assert (pts >= lo - 1e-12).all() and (pts <= hi + 1e-12).all()
    # constrained minimum sits on the upper bound of the first coordinate;
    # reflective folding approaches boundary optima only linearly
    assert res.x[0] == pytest.approx(2.0, abs=0.01)


def test_golden_section_parabola():
    res = golden_section(lambda z: (z - 2.5) ** 2, 0.0, 4.0, tol=1e-6, max_eval=80)
    assert res.converged
    assert res.x[0] == pytest.approx(2.5, abs=1e-5)


def test_golden_section_budget_counts_the_first_bracket():
    # the first bracket always takes 2 evaluations; past it, none is made
    # beyond max_eval
    for max_eval in range(1, 11):
        calls = []
        res = golden_section(
            lambda z: calls.append(z) or (z - 2.5) ** 2, 0.0, 4.0, tol=1e-16, max_eval=max_eval
        )
        assert res.n_eval == len(calls) == max(max_eval, 2)


def test_golden_section_empty_bracket():
    with pytest.raises(ValueError):
        golden_section(lambda z: z, 1.0, 1.0)


def test_build_ansatz_unknown_family():
    density, space = he_setup()
    with pytest.raises(ValueError):
        build_ansatz("hartree-fock", density, space)


# ---------------------------------------------------------------------------
# inner loop
# ---------------------------------------------------------------------------


def test_inner_synthetic_recovery(monkeypatch):
    # a stand-in estimator with a known minimum; at N = 3 both couplings
    # act, so the search keeps one estimate per (gamma, beta)
    density = ExponentialDensity(zeta=HE_ZETA, n_electrons=3)
    space = SpaceSpec(dim=3, radius=3.0, n_electrons=3)
    opt = OptimizeSpec(
        gamma_min=0.05,
        gamma_max=10.0,
        beta_min=0.0,
        beta_max=10.0,
        gamma_init=5.0,
        beta_init=5.0,
        tol=1e-12,
        max_iter_inner=400,
    )
    target = lambda g, b: (g - 2.0) ** 2 + (b - 0.7) ** 2

    def synthetic(density, ansatz, settings):
        value = target(*ansatz.acting_couplings)
        return GammaEstimate(0.0, 0.0, value, 0.0, 0.0, value, 0.0, "mc")

    monkeypatch.setattr(optimizer, "gamma_correlation", synthetic)
    res = inner_minimize(density, space, "pairwise", search_settings(), opt)
    assert abs(res.gamma - 2.0) <= 1e-4
    assert abs(res.beta - 0.7) <= 1e-4
    assert res.estimate.value == target(res.gamma, res.beta)


def test_inner_simple_family_single_evaluation():
    # a family without couplings; on the line frozen is sampled
    density = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    space = SpaceSpec(dim=1, radius=10.0, n_electrons=2)
    res = inner_minimize(
        density, space, "frozen", search_settings(), OptimizeSpec(max_iter_inner=50)
    )
    assert res.n_eval == 1
    assert res.converged
    assert np.isnan(res.gamma) and np.isnan(res.beta)
    assert len(res.trace) == 1
    assert res.estimate.stderr > 0.0


def test_inner_crn_trace_reproducible():
    density, space = he_setup()
    opt = OptimizeSpec(max_iter_inner=12)
    runs = [
        inner_minimize(density, space, "pairwise", search_settings(seed=5), opt)
        for _ in range(2)
    ]
    a, b = (r.trace for r in runs)
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert (ta.gamma, ta.beta, ta.energy) == (tb.gamma, tb.beta, tb.energy)
    assert runs[0].estimate.value == runs[1].estimate.value


@pytest.mark.parametrize("n", [2, 3])
def test_inner_search_keeps_its_evaluation_budget(n):
    # an iteration that would pass max_iter_inner stops where the budget ends
    density = ExponentialDensity(zeta=HE_ZETA, n_electrons=n)
    space = SpaceSpec(dim=3, radius=1.3, n_electrons=n)
    opt = OptimizeSpec(max_iter_inner=12, tol=1e-9)
    for seed in range(6):
        settings = search_settings(conditioning_points=16, samples=8, burn_in=16, seed=seed)
        res = inner_minimize(density, space, "pairwise", settings, opt)
        assert res.n_eval <= opt.max_iter_inner
        assert len(res.trace) <= opt.max_iter_inner


@pytest.mark.parametrize("n", [2, 3])
def test_inner_search_samples_each_acting_point_once(monkeypatch, n):
    density = ExponentialDensity(zeta=HE_ZETA, n_electrons=n)
    space = SpaceSpec(dim=3, radius=1.3, n_electrons=n)
    settings = search_settings(conditioning_points=32, samples=16, burn_in=32, seed=4)
    opt = OptimizeSpec(max_iter_inner=14)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return gamma_correlation(*args, **kwargs)

    monkeypatch.setattr(optimizer, "gamma_correlation", counting)
    res = inner_minimize(density, space, "pairwise", settings, opt)

    crn_seed = int(substream(settings.seed, sampler._NS_CRN).integers(0, 2**63 - 1))
    direct_settings = replace(settings, seed=crn_seed)
    keys = set()
    for row in res.trace:
        ans = build_ansatz("pairwise", density, space, row.gamma, row.beta)
        keys.add(ans.acting_couplings)
        est = gamma_correlation(density, ans, direct_settings)
        assert (row.energy, row.stderr) == (est.value, est.stderr)
    assert res.n_eval == len(res.trace)
    assert len(calls) == res.estimator_calls == len(keys)
    if n == 2:
        # the initial simplex's beta step lands on the same f
        assert len(keys) < len(res.trace)


def test_inner_optimality_probe():
    # winner's fresh-seed Gamma must not lose to random in-bounds probes
    density, space = he_setup()
    opt = OptimizeSpec(
        gamma_min=0.05, gamma_max=50.0, beta_min=0.0, beta_max=50.0, max_iter_inner=60
    )
    settings = search_settings(seed=2)
    res = inner_minimize(density, space, "pairwise", settings, opt)
    best = fresh_estimate(density, res.ansatz, settings)

    from corrsearch.ansatz import PairwiseBiparametric

    rng = np.random.default_rng(77)
    violations = 0
    for k in range(20):
        g = rng.uniform(opt.gamma_min, opt.gamma_max)
        b = rng.uniform(opt.beta_min, opt.beta_max)
        probe = PairwiseBiparametric(density, space, g, b)
        est = gamma_correlation(density, probe, replace(settings, seed=1000 + k))
        z = (best.value - est.value) / np.hypot(best.stderr, est.stderr)
        if z > 3.0:
            violations += 1
    assert violations == 0


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------


def test_outer_frozen_recovers_hartree_product():
    _, space = he_setup()
    make = lambda zeta: ExponentialDensity(zeta=zeta, n_electrons=2)
    v = ExternalPotential(kind="coulomb-nucleus", z=2.0)
    res = outer_minimize(
        make,
        v,
        space,
        "frozen",
        search_settings(),
        OptimizeSpec(zeta_min=1.0, zeta_max=2.5, tol=1e-4, max_iter_outer=60),
    )
    assert res.zeta == pytest.approx(27.0 / 16.0, abs=0.02)
    assert res.energy.total == pytest.approx(-2.8477, abs=0.005)
    assert res.converged


@pytest.mark.parametrize("z", [2.0, 4.0, 8.0])
def test_outer_zeta_tracks_nuclear_charge(z):
    # Hartree-product optimum zeta = Z - 5/16 for the frozen family
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=2)
    make = lambda zeta: ExponentialDensity(zeta=zeta, n_electrons=2)
    v = ExternalPotential(kind="coulomb-nucleus", z=z)
    res = outer_minimize(
        make,
        v,
        space,
        "frozen",
        search_settings(),
        OptimizeSpec(
            zeta_min=max(0.5, z - 2.0),
            zeta_max=z + 1.0,
            tol=1e-5,
            max_iter_outer=80,
        ),
    )
    assert res.zeta == pytest.approx(z - 5.0 / 16.0, abs=0.03)


def test_outer_reevaluates_only_the_winner_on_the_fresh_seed(monkeypatch):
    # every search point is sampled once under the CRN seed, and the run's
    # one fresh-seed call is the winner's, which the reported energy is
    space = SpaceSpec(dim=3, radius=1.3, n_electrons=2)
    make = lambda zeta: ExponentialDensity(zeta=zeta, n_electrons=2)
    v = ExternalPotential(kind="coulomb-nucleus", z=2.0)
    settings = search_settings(conditioning_points=32, samples=16, burn_in=32, seed=3)
    opt = OptimizeSpec(max_iter_inner=8, max_iter_outer=5)
    calls = []

    def counting(density, ansatz, settings, *args, **kwargs):
        calls.append((density.zeta, ansatz.acting_couplings, settings.seed))
        return gamma_correlation(density, ansatz, settings, *args, **kwargs)

    monkeypatch.setattr(optimizer, "gamma_correlation", counting)
    res = outer_minimize(make, v, space, "pairwise", settings, opt)
    monkeypatch.undo()

    fresh = [c for c in calls if c[2] == fresh_seed(settings.seed)]
    search = [c for c in calls if c[2] != fresh_seed(settings.seed)]
    assert fresh == [(res.zeta, (res.gamma,), fresh_seed(settings.seed))]
    assert len(set(search)) == len(search)
    assert res.estimator_calls == len(set(search)) + 1 == len(calls)

    density = make(res.zeta)
    grid = default_grid(density)
    # beta does not act at N = 2, so it is reported as nan, and any beta
    # builds the same f
    assert np.isnan(res.beta)
    winner = build_ansatz("pairwise", density, space, res.gamma, 0.0)
    direct = EnergyBreakdown.assemble(
        weizsacker_term(density, grid),
        fresh_estimate(density, winner, settings),
        external_energy(density, v, grid),
    )
    assert res.energy == direct


@pytest.mark.parametrize("slope,counted", [(0.0, True), (1.0, False)])
def test_outer_counts_inner_searches_that_never_moved(monkeypatch, slope, counted):
    # on a flat surface every inner search converges on its initial simplex
    # and reports its starting vertex; on a sloped one none stops there
    space = SpaceSpec(dim=3, radius=1.3, n_electrons=2)
    make = lambda zeta: ExponentialDensity(zeta=zeta, n_electrons=2)
    opt = OptimizeSpec(max_iter_inner=8, max_iter_outer=4)

    def synthetic(density, ansatz, settings):
        value = slope * ansatz.acting_couplings[0]
        return GammaEstimate(0.0, 0.0, value, 0.0, 0.0, value, 0.0, "mc")

    monkeypatch.setattr(optimizer, "gamma_correlation", synthetic)
    none = ExternalPotential(kind="none", z=0.0)
    res = outer_minimize(make, none, space, "pairwise", search_settings(), opt)
    assert res.n_eval == 4
    assert res.inner_first_simplex == (res.n_eval if counted else 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        OptimizeSpec(zeta_min=2.0, zeta_max=1.0)
    # golden section needs a bracket; equal gamma or beta bounds fold to one value
    with pytest.raises(ValueError, match="zeta_min"):
        OptimizeSpec(zeta_min=1.5, zeta_max=1.5)
    OptimizeSpec(gamma_min=2.0, gamma_max=2.0, beta_min=0.0, beta_max=0.0)
    # a density scale must be positive, so the bracket may not reach zeta = 0
    for zeta_min in (0.0, -1.0):
        with pytest.raises(ValueError, match="zeta_min must be positive"):
            OptimizeSpec(zeta_min=zeta_min, zeta_max=0.5)
    for start in ({"gamma_init": np.nan}, {"gamma_init": np.inf}, {"beta_init": np.nan}):
        with pytest.raises(ValueError, match="gamma_init and beta_init must be finite"):
            OptimizeSpec(**start)
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            OptimizeSpec(tol=tol)
    with pytest.raises(ValueError, match="gamma_min and beta_min"):
        OptimizeSpec(gamma_min=-0.1)
    with pytest.raises(ValueError, match="gamma_min and beta_min"):
        OptimizeSpec(beta_min=-0.1)
    for budget in ({"max_iter_inner": 0}, {"max_iter_inner": -1}, {"max_iter_outer": 0}):
        with pytest.raises(ValueError, match="max_iter"):
            OptimizeSpec(**budget)
    # pairwise needs gamma > 0, so the search box may not reach gamma = 0
    with pytest.raises(ValueError, match="gamma_min"):
        OptimizeSpec(gamma_min=0.0)
