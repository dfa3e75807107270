"""Energy terms: closed-form anchors, prefactor handling, error propagation."""

import tracemalloc

import numpy as np
import pytest

from corrsearch import sampler
from corrsearch.ansatz import (
    AnsatzError,
    FrozenOrbitalProduct,
    GaussianToy,
    PairwiseBiparametric,
)
from corrsearch.domain import (
    DomainError,
    ExponentialDensity,
    ExternalPotential,
    SpaceSpec,
    Tabulated1DDensity,
    default_grid,
)
from corrsearch.functionals import (
    EnergyBreakdown,
    conditional_moments,
    frozen_coulomb_quadrature,
    gamma_correlation,
    prefactor_value,
    total_energy,
    weizsacker_term,
)
from corrsearch.sampler import SamplerSettings

from conftest import HE_ZETA, fast_settings

HE_PAIR_INTEGRAL = 5.0 * HE_ZETA / 8.0  # 1.0546875


def he_system():
    density = ExponentialDensity(zeta=HE_ZETA, n_electrons=2)
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=2)
    return density, space


def mc_settings(**kw):
    base = dict(
        conditioning_points=256,
        samples=128,
        burn_in=256,
        thinning=2,
        sigma=1.0,
        seed=3,
    )
    base.update(kw)
    return SamplerSettings(**base)


# ---------------------------------------------------------------------------
# Weizsacker term
# ---------------------------------------------------------------------------


def test_weizsacker_hydrogen():
    rho = ExponentialDensity(zeta=1.0, n_electrons=1)
    assert weizsacker_term(rho) == pytest.approx(0.5, abs=1e-8)


def test_weizsacker_he_closed_form():
    # N zeta^2 / 2 for the exponential family
    rho = ExponentialDensity(zeta=HE_ZETA, n_electrons=2)
    assert weizsacker_term(rho) == pytest.approx(2.84765625, abs=1e-5)


def test_weizsacker_uniform_is_zero():
    x = np.linspace(-3.0, 3.0, 61)
    rho = Tabulated1DDensity(x, np.ones_like(x), n_electrons=2)
    assert weizsacker_term(rho) == 0.0


def test_weizsacker_scaling_in_zeta():
    # quadratic in zeta at fixed N
    vals = [
        weizsacker_term(ExponentialDensity(zeta=z, n_electrons=2)) for z in (1.0, 2.0)
    ]
    assert vals[1] / vals[0] == pytest.approx(4.0, rel=1e-7)


def test_weizsacker_dim_mismatch():
    rho = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    grid3 = default_grid(ExponentialDensity(zeta=1.0, n_electrons=2, dim=3))
    with pytest.raises(DomainError):
        weizsacker_term(rho, grid3)


# ---------------------------------------------------------------------------
# Coulomb term, frozen-family anchors
# ---------------------------------------------------------------------------


def test_frozen_coulomb_quadrature_vs_closed_form():
    density = ExponentialDensity(zeta=1.6875, n_electrons=2)
    val = frozen_coulomb_quadrature(density, prefactor="half")
    assert val == pytest.approx(5.0 * 1.6875 / 8.0, abs=1e-3)


def test_frozen_coulomb_prefactor_linearity_quadrature():
    density = ExponentialDensity(zeta=HE_ZETA, n_electrons=2)
    half = frozen_coulomb_quadrature(density, prefactor="half")
    full = frozen_coulomb_quadrature(density, prefactor="full")
    assert full == 2.0 * half


def test_frozen_coulomb_mc_vs_closed_form():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    est = gamma_correlation(density, frozen, mc_settings(), prefactor="half", method="mc")
    assert est.coulomb_stderr > 0.0
    assert abs(est.coulomb - HE_PAIR_INTEGRAL) <= 3.0 * est.coulomb_stderr


def test_coulomb_prefactor_linearity_same_samples():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    settings = mc_settings()
    half = gamma_correlation(density, frozen, settings, prefactor="half", method="mc")
    full = gamma_correlation(density, frozen, settings, prefactor="full", method="mc")
    # identical seeds give identical chains; only the scale differs
    assert full.coulomb == 2.0 * half.coulomb
    assert full.coulomb_stderr == 2.0 * half.coulomb_stderr


def test_single_electron_terms_vanish():
    density = ExponentialDensity(zeta=1.0, n_electrons=1)
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=1)
    frozen = FrozenOrbitalProduct(density, space)
    for method in ("mc", "auto"):
        est = gamma_correlation(density, frozen, fast_settings(), method=method)
        assert est.fisher == 0.0 and est.coulomb == 0.0
        assert est.value == 0.0 and est.stderr == 0.0 and est.method == "exact"


def test_prefactor_values():
    assert prefactor_value(2, "half") == 0.5
    assert prefactor_value(2, "full") == 1.0
    assert prefactor_value(3, "half") == 1.0
    assert prefactor_value(5, "full") == 4.0
    with pytest.raises(ValueError):
        prefactor_value(2, "double")


# ---------------------------------------------------------------------------
# Fisher term
# ---------------------------------------------------------------------------


def test_frozen_fisher_exactly_zero():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    settings = mc_settings(conditioning_points=64, samples=32)
    est = gamma_correlation(density, frozen, settings, method="mc")
    assert est.fisher == 0.0
    assert est.fisher_stderr == 0.0


def test_gaussian_toy_fisher_quarter():
    # exact conditional score variance 1/w^2 pins the term to N/8 = 0.25
    density = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    space = SpaceSpec(dim=1, radius=8.0, n_electrons=2)
    toy = GaussianToy(density, space, width=1.0)
    est = gamma_correlation(density, toy, mc_settings(conditioning_points=512), method="mc")
    assert est.fisher_stderr > 0.0
    assert abs(est.fisher - 0.25) <= 3.0 * est.fisher_stderr
    assert est.fisher_stderr < 0.01


def test_pairwise_fisher_vanishes_with_gamma():
    density, space = he_system()
    weak = PairwiseBiparametric(density, space, gamma=1e-4, beta=0.0, test_mode=True)
    settings = mc_settings(conditioning_points=128, samples=64)
    est = gamma_correlation(density, weak, settings, method="mc")
    assert abs(est.fisher) <= max(3.0 * est.fisher_stderr, 1e-6)


def test_fisher_nonnegative_mean():
    density, space = he_system()
    pairwise = PairwiseBiparametric(density, space, gamma=1.0, beta=0.5)
    settings = mc_settings(conditioning_points=128, samples=64)
    est = gamma_correlation(density, pairwise, settings, method="mc")
    assert est.fisher >= -3.0 * est.fisher_stderr
    assert est.fisher > 0.0


# ---------------------------------------------------------------------------
# Gamma and totals
# ---------------------------------------------------------------------------


def test_conditional_moments_never_holds_the_run_kept_samples():
    # N = 6: the kept satellites of the whole run (K m S d doubles, 63 MB
    # at 1024 chains) are never held at once; the kept samples stream
    # through the observables one step-chunk at a time
    density = ExponentialDensity(zeta=1.5, n_electrons=6)
    space = SpaceSpec(dim=3, radius=3.0, n_electrons=6)
    ansatz = PairwiseBiparametric(density, space, gamma=1.0, beta=0.0)
    n_sat, dim, samples, thinning = ansatz.n_satellites, 3, 512, 4
    for chains, workers in ((1024, 1), (2048, 2)):
        settings = SamplerSettings(
            sigma=0.5, burn_in=16, samples=samples, thinning=thinning,
            conditioning_points=chains, seed=3, workers=workers,
        )
        tracemalloc.start()
        try:
            moments = conditional_moments(density, ansatz, settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(moments.score_var))
        assert peak < samples * chains * n_sat * dim * 8
        if workers == 1:
            continue
        # two blocks with the pool thread.  The batch holds the observation
        # rows (score and pair), two step-chunks of variates and two kept
        # buffers.  On top comes the working memory of one call at a time:
        # a block's draw of one step-chunk, less than a third step-chunk of
        # variates, or the observables on one kept buffer, whose peak is the
        # score's, measured here on its own.  The slack stays below one
        # step-chunk of variates, so a third variate buffer would show.
        chunk_steps = sampler._VARIATE_BYTES // (8 * (dim + 2) * chains)
        kept = np.random.default_rng(0).uniform(
            -1.0, 1.0, (-(-chunk_steps // thinning), chains, n_sat, dim)
        )
        tracemalloc.start()
        try:
            ansatz.score(moments.r_points[None], kept)
            score_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        observations = samples * chains * (dim + 1) * 8
        holds = observations + 2 * sampler._VARIATE_BYTES + 2 * kept.nbytes
        assert peak < holds + sampler._VARIATE_BYTES + score_peak


def test_gamma_auto_uses_quadrature_for_frozen():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    est = gamma_correlation(density, frozen, fast_settings(), method="auto")
    assert est.method == "quadrature"
    assert est.stderr == 0.0
    assert est.value == pytest.approx(HE_PAIR_INTEGRAL, abs=1e-3)


def test_gamma_additivity():
    density, space = he_system()
    pairwise = PairwiseBiparametric(density, space, gamma=1.0, beta=0.0)
    est = gamma_correlation(density, pairwise, mc_settings(conditioning_points=64, samples=64))
    assert est.value == est.fisher + est.coulomb
    var = est.fisher_stderr**2 + est.coulomb_stderr**2 + 2.0 * est.covariance
    assert est.stderr == pytest.approx(np.sqrt(max(var, 0.0)), rel=1e-12)


def test_gamma_frozen_mc_matches_oracle_sum():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    est = gamma_correlation(density, frozen, mc_settings(), method="mc")
    assert est.method == "mc"
    assert abs(est.value - HE_PAIR_INTEGRAL) <= 3.0 * est.stderr


def test_gamma_unknown_method():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    with pytest.raises(ValueError):
        gamma_correlation(density, frozen, fast_settings(), method="exactly")


def test_quadrature_route_rejects_conditioning_dependent_families():
    # forcing the deterministic route must never silently drop the
    # Fisher term of a family whose f depends on the conditioning point
    density, space = he_system()
    pair = PairwiseBiparametric(density, space, 1.0, 0.5)
    with pytest.raises(AnsatzError, match="quadrature"):
        gamma_correlation(density, pair, fast_settings(), method="quadrature")
    density_1d = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    space_1d = SpaceSpec(dim=1, radius=8.0, n_electrons=2)
    frozen_1d = FrozenOrbitalProduct(density_1d, space_1d)
    with pytest.raises(AnsatzError, match="quadrature"):
        gamma_correlation(density_1d, frozen_1d, fast_settings(), method="quadrature")


def test_total_energy_hartree_product_quadrature():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    v = ExternalPotential(kind="coulomb-nucleus", z=2.0)
    out = total_energy(density, frozen, v, fast_settings(), method="auto")
    assert out.method == "quadrature"
    assert out.weizsacker == pytest.approx(2.84765625, abs=1e-5)
    assert out.external == pytest.approx(-6.75, abs=1e-6)
    assert out.total == pytest.approx(-2.84765625, abs=1e-3)
    assert out.total == out.weizsacker + out.fisher + out.coulomb + out.external


def test_total_energy_hartree_product_mc():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    v = ExternalPotential(kind="coulomb-nucleus", z=2.0)
    out = total_energy(density, frozen, v, mc_settings(), method="mc")
    assert out.method == "mc"
    assert abs(out.total - (-2.84765625)) <= 3.0 * out.total_stderr
    assert out.total == out.weizsacker + out.fisher + out.coulomb + out.external


def test_total_energy_uniform_no_potential_is_coulomb_only():
    x = np.linspace(-3.0, 3.0, 61)
    density = Tabulated1DDensity(x, np.ones_like(x), n_electrons=2)
    space = SpaceSpec(dim=1, radius=3.0, n_electrons=2)
    frozen = FrozenOrbitalProduct(density, space)
    out = total_energy(
        density, frozen, None, mc_settings(conditioning_points=64, samples=32)
    )
    assert out.weizsacker == 0.0
    assert out.external == 0.0
    assert out.fisher == 0.0
    assert out.total == out.coulomb
    assert out.total > 0.0


def test_breakdown_serialization_round_trip():
    bd = EnergyBreakdown(
        weizsacker=1.0,
        fisher=0.25,
        fisher_stderr=0.01,
        coulomb=1.05,
        coulomb_stderr=0.02,
        external=-6.75,
        total=-4.45,
        total_stderr=0.022,
        prefactor="half",
        method="mc",
    )
    d = bd.to_dict()
    assert d["total"] == -4.45
    assert EnergyBreakdown(**d) == bd
