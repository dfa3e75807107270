"""Metropolis engine: balance, determinism, variance scaling, diagnostics."""

import numpy as np
import pytest
import scipy.stats

from corrsearch.ansatz import ConditionalAnsatz, EstimatorError, PairwiseBiparametric
from corrsearch.domain import ExponentialDensity, SpaceSpec, Tabulated1DDensity
from corrsearch.sampler import (
    _NS_CHAIN,
    SamplerSettings,
    batch_means_stderr,
    effective_sample_size,
    run_chain,
    run_conditional_batch,
    sample_conditioning_points,
    substream,
)

from conftest import fast_settings


def line_pair(radius=8.0):
    density = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    space = SpaceSpec(dim=1, radius=radius, n_electrons=2)
    return density, space


class StepTarget(ConditionalAnsatz):
    """Discrete 5-bin toy target on [0, 5): weights 1,2,3,2,1."""

    family = "step-toy"
    WEIGHTS = np.array([1.0, 2.0, 3.0, 2.0, 1.0])

    def log_unnormalized(self, r, satellites, moved=None):
        r, satellites = self._check_shapes(r, satellites)
        s = satellites[..., 0, 0]
        bins = np.clip(np.floor(s).astype(int), 0, 4)
        ok = (s >= 0.0) & (s < 5.0)
        w = np.where(ok, self.WEIGHTS[bins], 0.0)
        with np.errstate(divide="ignore"):
            return np.log(w)

    def score(self, r, satellites):
        r, satellites = self._check_shapes(r, satellites)
        return np.zeros(satellites.shape[:-2] + (1,))

    def start_candidate(self, r, rng):
        return np.array([[2.5]])


class NormalTarget(ConditionalAnsatz):
    """Standard normal in the single satellite coordinate."""

    family = "normal-toy"

    def log_unnormalized(self, r, satellites, moved=None):
        r, satellites = self._check_shapes(r, satellites)
        s = satellites[..., 0, 0]
        return -0.5 * s * s

    def score(self, r, satellites):
        r, satellites = self._check_shapes(r, satellites)
        return np.zeros(satellites.shape[:-2] + (1,))

    def start_candidate(self, r, rng):
        return np.array([[0.0]])


class ConstTarget(NormalTarget):
    """log f~ identically zero: every proposal has f~' = f~."""

    family = "const-toy"

    def log_unnormalized(self, r, satellites, moved=None):
        r, satellites = self._check_shapes(r, satellites)
        return np.zeros(satellites.shape[:-2])


class PointTarget(NormalTarget):
    """Support is the single point 0.5: every real proposal is rejected."""

    family = "point-toy"

    def log_unnormalized(self, r, satellites, moved=None):
        r, satellites = self._check_shapes(r, satellites)
        s = satellites[..., 0, 0]
        return np.where(s == 0.5, 0.0, -np.inf)

    def start_candidate(self, r, rng):
        return np.array([[0.5]])


# ---------------------------------------------------------------------------
# single-step behaviour
# ---------------------------------------------------------------------------


def _last_sample(r_block, kept):
    return kept[-1, :, 0, 0]


def test_equal_density_always_accepted():
    density, space = line_pair()
    ansatz = ConstTarget(density, space)
    settings = SamplerSettings(sigma=1.0, burn_in=0, samples=200, thinning=1, seed=0, tune=False)
    batch = run_conditional_batch(ansatz, np.zeros((16, 1)), settings, {"s": _last_sample})
    np.testing.assert_array_equal(batch.acceptance, 1.0)


def test_zero_weight_proposal_always_rejected():
    density, space = line_pair()
    ansatz = PointTarget(density, space)
    settings = SamplerSettings(sigma=2.0, burn_in=0, samples=300, thinning=1, seed=0, tune=False)
    collect = {"s": lambda r_block, kept: kept[..., 0, 0]}
    batch = run_conditional_batch(ansatz, np.zeros((16, 1)), settings, collect)
    np.testing.assert_array_equal(batch.acceptance, 0.0)
    np.testing.assert_array_equal(batch.values["s"], 0.5)


class HalfTarget(NormalTarget):
    """Support [0.5, 1); start candidates uniform on [0, 1), so about half
    of the first candidates have zero weight."""

    family = "half-toy"

    def log_unnormalized(self, r, satellites, moved=None):
        r, satellites = self._check_shapes(r, satellites)
        s = satellites[..., 0, 0]
        return np.where((s >= 0.5) & (s < 1.0), 0.0, -np.inf)

    def start_candidate(self, r, rng):
        return rng.random((1, 1))


def test_zero_weight_start_candidates_are_redrawn():
    # a step of 1e-300 leaves every chain at its start, which must be the
    # first finite candidate of the chain's own stream
    density, space = line_pair()
    ansatz = HalfTarget(density, space)
    settings = SamplerSettings(sigma=1e-300, burn_in=0, samples=1, thinning=1, seed=3, tune=False)
    batch = run_conditional_batch(ansatz, np.zeros((64, 1)), settings, {"s": _last_sample})
    expected, redrawn = [], 0
    for chain in range(64):
        rng = substream(3, _NS_CHAIN, chain)
        cand = rng.random((1, 1))
        redrawn += cand[0, 0] < 0.5
        while cand[0, 0] < 0.5:
            cand = rng.random((1, 1))
        expected.append(cand[0, 0])
    assert redrawn > 0
    np.testing.assert_array_equal(batch.values["s"], expected)


class StaleCheckPairwise(PairwiseBiparametric):
    """Records, at every hinted call of a one-block run, how far the carried
    log_old is from a full evaluation of the chain's current state, relative
    to the largest |log f~| the chain has held (the scale of a running sum's
    rounding error)."""

    scale = 0.0
    worst = 0.0

    def log_unnormalized(self, r, satellites, moved=None):
        if moved is not None:
            k, old, log_old = moved
            current = np.array(satellites, copy=True)
            current[np.arange(k.size), k] = old
            full = super().log_unnormalized(r, current)
            self.scale = np.maximum(self.scale, np.abs(full))
            err = np.abs(log_old - full) / self.scale
            self.worst = max(self.worst, float(err.max()))
        return super().log_unnormalized(r, satellites, moved)


def test_chain_log_f_never_stale():
    # the kernel carries log f~ of each chain from step to step through the
    # move hint; after every accept and reject it must still be the value
    # of the state the chain is in
    density = ExponentialDensity(zeta=1.0, n_electrons=4)
    space = SpaceSpec(dim=3, radius=3.0, n_electrons=4)
    ansatz = StaleCheckPairwise(density, space, gamma=1.0, beta=2.0)
    settings = SamplerSettings(sigma=0.5, burn_in=100, samples=100, thinning=2, seed=4)
    points = density.sample(64, np.random.default_rng(4))
    batch = run_conditional_batch(ansatz, points, settings, {"s": _last_sample})
    assert 0.0 < batch.mean_acceptance < 1.0
    assert ansatz.worst <= 1e-12


def test_detailed_balance_step_target():
    # empirical transition matrix between the 5 bins against the known
    # stationary law pi = (1,2,3,2,1)/9, from about 1e6 transitions between
    # consecutive kept samples of 2048 lockstep chains
    density, space = line_pair()
    ansatz = StepTarget(density, space)
    settings = SamplerSettings(sigma=1.5, burn_in=16, samples=500, thinning=1, seed=12, tune=False)

    def transitions(r_block, kept):
        bins = np.floor(kept[:, :, 0, 0]).astype(np.int64)
        pair = 5 * bins[:-1] + bins[1:]  # (K - 1, m)
        return np.stack([np.sum(pair == c, axis=0) for c in range(25)])  # (25, m)

    batch = run_conditional_batch(ansatz, np.zeros((2048, 1)), settings, {"n": transitions})
    counts = batch.values["n"].sum(axis=1).reshape(5, 5).astype(float)
    assert counts.sum() >= 1e6
    p_hat = counts / counts.sum(axis=1, keepdims=True)
    pi = StepTarget.WEIGHTS / StepTarget.WEIGHTS.sum()
    residual = np.abs(pi @ p_hat - pi).max()
    assert residual <= 1e-2


# ---------------------------------------------------------------------------
# chains and estimates
# ---------------------------------------------------------------------------


def test_normal_target_variance():
    # 100 chains x 1000 kept = 1e5 samples of the standard normal
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    settings = SamplerSettings(
        sigma=1.0, burn_in=256, samples=1000, thinning=2, seed=5
    )
    points = np.zeros((100, 1))
    collect = lambda r_block, kept: kept[..., 0, 0] ** 2
    batch = run_conditional_batch(ansatz, points, settings, {"sq": collect})
    second_moment = batch.values["sq"].mean()
    assert batch.values["sq"].size == 100_000
    assert second_moment == pytest.approx(1.0, abs=0.02)


def test_run_chain_constant_observable():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    res = run_chain(ansatz, np.array([0.0]), fast_settings(), lambda r, s: 1.0)
    assert res.mean == 1.0
    assert res.stderr == 0.0
    assert res.ess == res.n_samples


def test_run_chain_half_space():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    settings = fast_settings(samples=2048, burn_in=256, thinning=2, seed=3)
    res = run_chain(
        ansatz, np.array([0.0]), settings, lambda r, s: float(s[0, 0] > 0.0)
    )
    assert abs(res.mean - 0.5) <= 3.0 * res.stderr
    assert res.ess <= res.n_samples


def test_run_chain_rejects_nonfinite_observable():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    bad = lambda r, s: float("nan")
    with pytest.raises(EstimatorError):
        run_chain(ansatz, np.array([0.0]), fast_settings(), bad)


def test_stderr_squared_halves_when_samples_double():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    obs = lambda r, s: float(s[0, 0])
    var = {}
    for n in (1024, 2048):
        settings = fast_settings(samples=n, burn_in=128, thinning=2, seed=9)
        reps = [
            run_chain(ansatz, np.array([0.0]), settings, obs, stream_index=k).stderr
            for k in range(16)
        ]
        var[n] = np.mean(np.square(reps))
    ratio = var[2048] / var[1024]
    assert 0.4 <= ratio <= 0.6


def test_stream_index_gives_independent_replicas():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    obs = lambda r, s: float(s[0, 0])
    a = run_chain(ansatz, np.array([0.0]), fast_settings(), obs, stream_index=0)
    b = run_chain(ansatz, np.array([0.0]), fast_settings(), obs, stream_index=1)
    again = run_chain(ansatz, np.array([0.0]), fast_settings(), obs, stream_index=1)
    assert a.mean != b.mean
    assert b.mean == again.mean


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_worker_count_does_not_change_results():
    # more chains than one block so the multi-worker path really splits
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    points = np.linspace(-1.0, 1.0, 1536)[:, None]
    collect = {"m": lambda r_block, kept: kept[..., 0, 0].mean(axis=0)}
    outs = []
    for workers in (1, 2, 4):
        settings = SamplerSettings(
            sigma=1.0, burn_in=64, samples=32, thinning=1, seed=21, workers=workers
        )
        outs.append(run_conditional_batch(ansatz, points, settings, collect))
    np.testing.assert_array_equal(outs[0].values["m"], outs[1].values["m"])
    np.testing.assert_array_equal(outs[0].values["m"], outs[2].values["m"])
    np.testing.assert_array_equal(outs[0].acceptance, outs[2].acceptance)


def test_worker_count_and_rerun_pairwise_n6():
    # the hinted kernel path: N = 6 with satellite pairs, over two blocks
    density = ExponentialDensity(zeta=1.5, n_electrons=6)
    space = SpaceSpec(dim=3, radius=3.0, n_electrons=6)
    ansatz = PairwiseBiparametric(density, space, gamma=1.0, beta=1.0)
    points = density.sample(1536, np.random.default_rng(6))
    collect = {
        "m": lambda r_block, kept: kept.mean(axis=(0, 2, 3)),
        "last": lambda r_block, kept: kept[-1].reshape(kept.shape[1], -1).T,
    }
    outs = []
    for workers in (1, 2, 4, 1):
        settings = SamplerSettings(
            sigma=0.5, burn_in=64, samples=16, thinning=2, seed=23, workers=workers
        )
        outs.append(run_conditional_batch(ansatz, points, settings, collect))
    for other in outs[1:]:
        for name in collect:
            np.testing.assert_array_equal(outs[0].values[name], other.values[name])
        np.testing.assert_array_equal(outs[0].acceptance, other.acceptance)
        np.testing.assert_array_equal(outs[0].sigma_final, other.sigma_final)


def test_rerun_is_bit_identical():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    settings = fast_settings(seed=17)
    obs = lambda r, s: float(s[0, 0])
    a = run_chain(ansatz, np.array([0.2]), settings, obs)
    b = run_chain(ansatz, np.array([0.2]), settings, obs)
    assert (a.mean, a.stderr, a.ess, a.acceptance) == (b.mean, b.stderr, b.ess, b.acceptance)


def test_seed_changes_results():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    obs = lambda r, s: float(s[0, 0])
    a = run_chain(ansatz, np.array([0.2]), fast_settings(seed=1), obs)
    b = run_chain(ansatz, np.array([0.2]), fast_settings(seed=2), obs)
    assert a.mean != b.mean


# ---------------------------------------------------------------------------
# step-size tuning
# ---------------------------------------------------------------------------


def test_sigma_frozen_outside_burn_in():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    settings = SamplerSettings(
        sigma=25.0, burn_in=0, samples=64, thinning=1, seed=2, tune=True
    )
    batch = run_conditional_batch(
        ansatz, np.zeros((4, 1)), settings, {"m": lambda rb, kept: kept[..., 0, 0].mean(axis=0)}
    )
    np.testing.assert_array_equal(batch.sigma_final, 25.0)


def test_sigma_tuning_reaches_acceptance_window():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    settings = SamplerSettings(
        sigma=40.0, burn_in=1024, samples=256, thinning=1, seed=2, tune=True
    )
    batch = run_conditional_batch(
        ansatz, np.zeros((8, 1)), settings, {"m": lambda rb, kept: kept[..., 0, 0].mean(axis=0)}
    )
    assert np.all(batch.sigma_final < 40.0)
    assert 0.15 <= batch.mean_acceptance <= 0.55


# ---------------------------------------------------------------------------
# conditioning-point draws
# ---------------------------------------------------------------------------


def test_conditioning_radial_mean():
    # <r> = 3/(2 zeta) for the 3D exponential cloud
    density = ExponentialDensity(zeta=1.0, n_electrons=2)
    rng = np.random.default_rng(42)
    pts = sample_conditioning_points(density, 1_000_000, rng)
    r = np.linalg.norm(pts, axis=1)
    assert r.mean() == pytest.approx(1.5, abs=0.01)


def test_conditioning_uniform_ks():
    x = np.linspace(0.0, 1.0, 101)
    density = Tabulated1DDensity(x, np.ones_like(x), n_electrons=2)
    rng = np.random.default_rng(8)
    draws = sample_conditioning_points(density, 100_000, rng)[:, 0]
    stat = scipy.stats.kstest(draws, "uniform")
    assert stat.pvalue > 0.01


def test_conditioning_fixed_seed_identical():
    density = ExponentialDensity(zeta=1.3, n_electrons=2)
    a = sample_conditioning_points(density, 100, np.random.default_rng(7))
    b = sample_conditioning_points(density, 100, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def test_batch_means_stderr_iid():
    rng = np.random.default_rng(0)
    series = rng.standard_normal(4096)
    se = batch_means_stderr(series)
    assert se == pytest.approx(1.0 / np.sqrt(4096), rel=0.5)


def test_effective_sample_size_bounds():
    rng = np.random.default_rng(1)
    iid = rng.standard_normal(2048)
    assert effective_sample_size(iid) >= 1024
    # heavily autocorrelated series: ESS collapses
    walk = np.cumsum(rng.standard_normal(2048))
    assert effective_sample_size(walk) < 100
    const = np.ones(64)
    assert effective_sample_size(const) == 64
    assert batch_means_stderr(const) == 0.0


def test_settings_validation():
    with pytest.raises(ValueError):
        SamplerSettings(sigma=0.0)
    with pytest.raises(ValueError):
        SamplerSettings(samples=0)
    with pytest.raises(ValueError):
        SamplerSettings(conditioning_points=0)
    with pytest.raises(ValueError):
        SamplerSettings(workers=0)
    # burn_in = 0 is a legal measurement-only chain
    assert SamplerSettings(burn_in=0).burn_in == 0


def test_substream_disjoint_and_stable():
    a = substream(3, 1, 0).random(4)
    b = substream(3, 1, 1).random(4)
    again = substream(3, 1, 0).random(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, again)
