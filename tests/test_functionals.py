"""Energy terms: closed-form anchors, the pair-counting factor, error propagation."""

import tracemalloc

import numpy as np
import pytest

from corrsearch import sampler
from corrsearch.ansatz import (
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
    external_energy,
)
from corrsearch.functionals import (
    EnergyBreakdown,
    conditional_moments,
    frozen_coulomb_quadrature,
    gamma_correlation,
    gamma_from_moments,
    prefactor_value,
    total_energy,
    weizsacker_term,
)
from corrsearch.sampler import SamplerSettings, conditioning_rng, run_conditional_batch

from conftest import HE_ZETA, fast_settings, pooled_runs, steps_per_chunk

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
    val = frozen_coulomb_quadrature(density)
    assert val == pytest.approx(5.0 * 1.6875 / 8.0, abs=1e-3)


def frozen_mc(density, frozen, settings):
    """The sampled Gamma of the frozen family, which gamma_correlation routes
    to quadrature on a 3D analytic density: an independent check of it."""
    return gamma_from_moments(conditional_moments(density, frozen, settings), 2)


def test_frozen_coulomb_mc_vs_closed_form():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    est = frozen_mc(density, frozen, mc_settings())
    assert est.coulomb_stderr > 0.0
    assert abs(est.coulomb - HE_PAIR_INTEGRAL) <= 3.0 * est.coulomb_stderr


def test_single_electron_terms_vanish():
    density = ExponentialDensity(zeta=1.0, n_electrons=1)
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=1)
    frozen = FrozenOrbitalProduct(density, space)
    est = gamma_correlation(density, frozen, fast_settings())
    assert est.fisher == 0.0 and est.coulomb == 0.0
    assert est.value == 0.0 and est.stderr == 0.0 and est.method == "exact"


def test_prefactor_values():
    # (N-1)/2, which times N is the number of electron pairs
    assert prefactor_value(2) == 0.5
    assert prefactor_value(3) == 1.0
    assert prefactor_value(5) == 2.0


# ---------------------------------------------------------------------------
# Fisher term
# ---------------------------------------------------------------------------


def test_frozen_fisher_exactly_zero():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    settings = mc_settings(conditioning_points=64, samples=32)
    est = frozen_mc(density, frozen, settings)
    assert est.fisher == 0.0
    assert est.fisher_stderr == 0.0


def test_gaussian_toy_fisher_quarter():
    # exact conditional score variance 1/w^2 pins the term to N/8 = 0.25
    density = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    space = SpaceSpec(dim=1, radius=8.0, n_electrons=2)
    toy = GaussianToy(density, space, width=1.0)
    est = gamma_correlation(density, toy, mc_settings(conditioning_points=512))
    assert est.fisher_stderr > 0.0
    assert abs(est.fisher - 0.25) <= 3.0 * est.fisher_stderr
    assert est.fisher_stderr < 0.01


def test_pairwise_fisher_vanishes_with_gamma():
    density, space = he_system()
    weak = PairwiseBiparametric(density, space, gamma=1e-4, beta=0.0)
    settings = mc_settings(conditioning_points=128, samples=64)
    est = gamma_correlation(density, weak, settings)
    assert abs(est.fisher) <= max(3.0 * est.fisher_stderr, 1e-6)


def test_fisher_nonnegative_mean():
    density, space = he_system()
    pairwise = PairwiseBiparametric(density, space, gamma=1.0, beta=0.5)
    settings = mc_settings(conditioning_points=128, samples=64)
    est = gamma_correlation(density, pairwise, settings)
    assert est.fisher >= -3.0 * est.fisher_stderr
    assert est.fisher > 0.0


# ---------------------------------------------------------------------------
# Gamma and totals
# ---------------------------------------------------------------------------


def test_conditional_moments_never_holds_the_run_kept_samples(monkeypatch):
    # N = 6: the kept satellites of the whole run (K m S d doubles, 63 MB
    # at 1024 chains) are never held at once; the kept samples stream
    # through the observables one step-chunk at a time
    density = ExponentialDensity(zeta=1.5, n_electrons=6)
    space = SpaceSpec(dim=3, radius=3.0, n_electrons=6)
    ansatz = PairwiseBiparametric(density, space, gamma=1.0, beta=0.0)
    n_sat, dim, samples, thinning = ansatz.n_satellites, 3, 512, 4
    for chains in (1024, 2048):
        settings = SamplerSettings(
            sigma=0.5, burn_in=16, samples=samples, thinning=thinning,
            conditioning_points=chains, seed=3,
        )

        def traced():
            tracemalloc.start()
            try:
                moments = conditional_moments(density, ansatz, settings)
                return moments, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # many step-chunks: the batch starts its pool thread; over two
        # blocks, a rerun and a synchronous stand-in for the pool agree with it
        runs = pooled_runs(monkeypatch, traced) if chains == 2048 else [traced()]
        moments = runs[0][0]
        for other, _ in runs[1:]:
            for name in ("score_var", "pair_mean", "acceptance", "sigma_final"):
                np.testing.assert_array_equal(getattr(moments, name), getattr(other, name))
        # the batch holds the per-chain observation sums (score and pair),
        # two step-chunks of variates and two kept buffers.  On top comes the
        # working memory of one call at a time: a block's draw of one
        # step-chunk, less than a third step-chunk of variates, or the
        # observables on one kept buffer, whose peak is the score's,
        # measured here on its own.  The slack stays below one step-chunk
        # of variates, so a third variate buffer would show.
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
        # the pair sum, and the score's per-chain sums (four quarters of
        # d sums and one sum of squares) and first kept score: a score
        # series brought back at (K, chains, d) would not fit
        observations = chains * 8 + (5 * dim + 4) * chains * 8
        holds = observations + 2 * sampler._VARIATE_BYTES + 2 * kept.nbytes
        for other, peak in runs:
            assert np.all(np.isfinite(other.score_var))
            assert peak < samples * chains * n_sat * dim * 8
            assert peak < holds + sampler._VARIATE_BYTES + score_peak


def test_conditional_moments_working_set_does_not_grow_with_samples():
    # both observables stream into per-chain sums, so the call's peak
    # memory is the same at K = 64 and K = 256 kept samples: a (K, chains)
    # series of either term brought back would differ by four times the
    # allowed slack.  The first call in a process also imports modules on
    # first use, so it runs once unmeasured
    density, space = he_system()
    ansatz = PairwiseBiparametric(density, space, gamma=1.0, beta=0.0)
    chains, peaks = 1024, []
    for samples in (64, 64, 256):
        settings = SamplerSettings(
            sigma=0.5, burn_in=16, samples=samples, thinning=4,
            conditioning_points=chains, seed=3,
        )
        tracemalloc.start()
        try:
            conditional_moments(density, ansatz, settings)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[2] - peaks[1]) < (256 - 64) * chains * 8 / 4


def _extrapolated_score_variance(series, walkers):
    """Per point, each chain's (8 v_K - 6 v_{K/2} + v_{K/4}) / 3 from its
    whole (K, chains, d) score series, each variance taken in two passes."""
    edges = [q * len(series) // 4 for q in range(5)]

    def variance(a, b):
        x = series[edges[a] : edges[b]]
        return np.sum((x - x.mean(axis=0)) ** 2, axis=(0, 2)) / (len(x) - 1)

    halves = (variance(0, 2) + variance(2, 4)) / 2.0
    quarters = sum(variance(q, q + 1) for q in range(4)) / 4.0
    per_chain = (8.0 * variance(0, 4) - 6.0 * halves + quarters) / 3.0
    return per_chain.reshape(-1, walkers).mean(axis=1)


@pytest.mark.parametrize("walkers,steps", [
    (1, None),  # 76 steps in one step-chunk
    (2, 20),  # four step-chunks, with the pool thread
    (1, 12),  # quarters 1 and 2 start inside the step-chunks [24, 36) and [36, 48)
])
def test_streamed_score_variance_equals_the_whole_series(monkeypatch, walkers, steps):
    # quarters start at kept samples 0, 7, 15 and 22 of 30, kept at steps
    # 17, 31, 47 and 61; the streamed block sums give what the whole
    # stored series gives, and the streamed pair sum gives its stored
    # series' mean bit for bit, with the kept chains' rows as stored
    density = ExponentialDensity(zeta=1.5, n_electrons=3)
    space = SpaceSpec(dim=3, radius=3.0, n_electrons=3)
    ansatz = PairwiseBiparametric(density, space, gamma=1.0, beta=1.0)
    settings = SamplerSettings(
        sigma=0.5, burn_in=16, samples=30, thinning=2, walkers=walkers,
        conditioning_points=48, seed=8,
    )
    if steps is not None:
        steps_per_chunk(monkeypatch, steps, 48 * walkers, dim=3)
    r_points = density.sample(48, conditioning_rng(settings.seed))
    stored = run_conditional_batch(ansatz, r_points, settings, {
        "score": lambda r, sats: ansatz.score(r[None], sats),
        "pair": lambda r, sats: space.interaction(np.sum((r - sats[:, :, 0, :]) ** 2, axis=-1)),
    }).values
    expected = _extrapolated_score_variance(stored["score"], walkers)
    pair_mean = stored["pair"].mean(axis=0).reshape(48, walkers).mean(axis=1)
    if walkers == 2:
        runs = pooled_runs(monkeypatch, lambda: conditional_moments(density, ansatz, settings, 5))
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].score_var, other.score_var)
    else:
        runs = [conditional_moments(density, ansatz, settings, 5)]
    np.testing.assert_allclose(runs[0].score_var, expected, rtol=1e-12, atol=0.0)
    for run in runs:
        np.testing.assert_array_equal(run.pair_mean, pair_mean)
        np.testing.assert_array_equal(run.pair_series, stored["pair"][:, :5])


@pytest.mark.parametrize("n,dim", [(2, 3), (3, 3), (5, 3), (6, 3), (3, 1)])
def test_fisher_term_carries_no_autocorrelation_bias(n, dim):
    # a chain's plain variance of its correlated score series reads low by
    # about (tau - 1)/(K - 1): about -9 sigma at N = 6 on this family at the
    # default budget.  Extrapolated in 1/K over the series' halves and
    # quarters, each term lies within 3 sigma of N (N-1) d / (8 w^2).  At
    # N = 5 the scan's S = 4 equals the default thinning, so every kept
    # sample follows a move of the same satellite (N = 3 aliases at S = 2)
    density = ExponentialDensity(zeta=1.0, n_electrons=n, dim=dim)
    space = SpaceSpec(dim=dim, radius=8.0, n_electrons=n)
    toy = GaussianToy(density, space, width=1.0)
    est = gamma_correlation(density, toy, SamplerSettings(seed=1))
    assert abs(est.fisher - n * (n - 1) * dim / 8.0) <= 3.0 * est.fisher_stderr


def test_conditional_moments_needs_two_samples_per_quarter():
    density, space = he_system()
    pairwise = PairwiseBiparametric(density, space, gamma=1.0, beta=0.0)
    with pytest.raises(ValueError, match="8 kept samples"):
        conditional_moments(density, pairwise, mc_settings(conditioning_points=4, samples=7))


def test_gamma_auto_uses_quadrature_for_frozen():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    est = gamma_correlation(density, frozen, fast_settings())
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
    est = frozen_mc(density, frozen, mc_settings())
    assert est.method == "mc"
    assert abs(est.value - HE_PAIR_INTEGRAL) <= 3.0 * est.stderr


def test_quadrature_route_rejects_conditioning_dependent_families():
    # the deterministic route must never silently drop the Fisher term of
    # a family whose f depends on the conditioning point, nor take a
    # density it has no rule for: pairwise in 3D and frozen in 1D sample
    density, space = he_system()
    settings = fast_settings()
    pair = PairwiseBiparametric(density, space, 1.0, 0.5)
    assert gamma_correlation(density, pair, settings).method == "mc"
    density_1d = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    space_1d = SpaceSpec(dim=1, radius=8.0, n_electrons=2)
    frozen_1d = FrozenOrbitalProduct(density_1d, space_1d)
    assert gamma_correlation(density_1d, frozen_1d, settings).method == "mc"
    frozen = FrozenOrbitalProduct(density, space)
    assert gamma_correlation(density, frozen, settings).method == "quadrature"


def test_total_energy_hartree_product_quadrature():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    v = ExternalPotential(kind="coulomb-nucleus", z=2.0)
    out = total_energy(density, frozen, v, fast_settings())
    assert out.method == "quadrature"
    assert out.weizsacker == pytest.approx(2.84765625, abs=1e-5)
    assert out.external == pytest.approx(-6.75, abs=1e-6)
    assert out.total == pytest.approx(-2.84765625, abs=1e-3)
    assert out.total == out.weizsacker + out.fisher + out.coulomb + out.external


def test_total_energy_hartree_product_mc():
    density, space = he_system()
    frozen = FrozenOrbitalProduct(density, space)
    v = ExternalPotential(kind="coulomb-nucleus", z=2.0)
    grid = default_grid(density)
    out = EnergyBreakdown.assemble(
        weizsacker_term(density, grid),
        frozen_mc(density, frozen, mc_settings()),
        external_energy(density, v, grid),
    )
    assert out.method == "mc"
    assert abs(out.total - (-2.84765625)) <= 3.0 * out.total_stderr
    assert out.total == out.weizsacker + out.fisher + out.coulomb + out.external


def test_total_energy_uniform_no_potential_is_coulomb_only():
    x = np.linspace(-3.0, 3.0, 61)
    density = Tabulated1DDensity(x, np.ones_like(x), n_electrons=2)
    space = SpaceSpec(dim=1, radius=3.0, n_electrons=2)
    frozen = FrozenOrbitalProduct(density, space)
    out = total_energy(
        density,
        frozen,
        ExternalPotential(kind="none", z=0.0),
        mc_settings(conditioning_points=64, samples=32),
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
        method="mc",
    )
    d = bd.to_dict()
    assert d["total"] == -4.45
    assert EnergyBreakdown(**d) == bd
