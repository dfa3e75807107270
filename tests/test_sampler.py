"""Metropolis engine: balance, determinism, variance scaling, diagnostics."""

import gc
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from corrsearch import sampler
from corrsearch.ansatz import (
    ConditionalAnsatz,
    GaussianToy,
    PairChainState,
    PairwiseBiparametric,
    build_ansatz,
)
from corrsearch.domain import ExponentialDensity, SpaceSpec, Tabulated1DDensity
from corrsearch.sampler import (
    _NS_CHAIN,
    SamplerSettings,
    batch_means_stderr,
    effective_sample_size,
    run_conditional_batch,
    substream,
)

from conftest import fast_settings, pooled_runs, steps_per_chunk


def line_pair(radius=8.0):
    density = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    space = SpaceSpec(dim=1, radius=radius, n_electrons=2)
    return density, space


class LineToy(ConditionalAnsatz):
    """A one-satellite toy whose log f~ is log_f(s) of the satellite's
    first coordinate s; a hinted call evaluates the hint's proposal."""

    def log_unnormalized(self, r, satellites, moved=None):
        if moved is not None:
            satellites = self.proposal(satellites, moved[0], moved[1])
        r, satellites = self._check_shapes(r, satellites)
        return self.log_f(satellites[..., 0, 0])


class StepTarget(LineToy):
    """Discrete 5-bin toy target on [0, 5): weights 1,2,3,2,1."""

    family = "step-toy"
    WEIGHTS = np.array([1.0, 2.0, 3.0, 2.0, 1.0])

    def log_f(self, s):
        bins = np.clip(np.floor(s).astype(int), 0, 4)
        ok = (s >= 0.0) & (s < 5.0)
        w = np.where(ok, self.WEIGHTS[bins], 0.0)
        with np.errstate(divide="ignore"):
            return np.log(w)

    def score(self, r, satellites):
        r, satellites = self._check_shapes(r, satellites)
        return np.zeros(satellites.shape[:-2] + (1,))

    def start_candidates(self, r, rng):
        return np.full((len(r), 1, 1), 2.5)


class NormalTarget(LineToy):
    """Standard normal in the single satellite coordinate."""

    family = "normal-toy"

    def log_f(self, s):
        return -0.5 * s * s

    def score(self, r, satellites):
        r, satellites = self._check_shapes(r, satellites)
        return np.zeros(satellites.shape[:-2] + (1,))

    def start_candidates(self, r, rng):
        return np.zeros((len(r), 1, 1))


class ConstTarget(NormalTarget):
    """log f~ identically zero: every proposal has f~' = f~."""

    family = "const-toy"

    def log_f(self, s):
        return np.zeros(s.shape)


class PointTarget(NormalTarget):
    """Support is the single point 0.5: every real proposal is rejected."""

    family = "point-toy"

    def log_f(self, s):
        return np.where(s == 0.5, 0.0, -np.inf)

    def start_candidates(self, r, rng):
        return np.full((len(r), 1, 1), 0.5)


# ---------------------------------------------------------------------------
# single-step behaviour
# ---------------------------------------------------------------------------


def _sats(r_block, sats):
    """The identity observable: every kept configuration, (K, chains, S, d)."""
    return sats


def test_equal_density_always_accepted():
    density, space = line_pair()
    ansatz = ConstTarget(density, space)
    settings = SamplerSettings(sigma=1.0, burn_in=0, samples=200, thinning=1, seed=0)
    batch = run_conditional_batch(ansatz, np.zeros((16, 1)), settings, {"sats": _sats})
    np.testing.assert_array_equal(batch.acceptance, 1.0)


@pytest.mark.parametrize("dim", [1, 3])
def test_steps_are_uniform_with_standard_deviation_sigma(dim):
    # on a flat target every move is accepted, so the kept path's
    # increments are the steps themselves: each coordinate uniform on
    # [-sqrt(3) sigma, sqrt(3) sigma), with mean 0 and variance sigma^2
    density = ExponentialDensity(zeta=1.0, n_electrons=2, dim=dim)
    space = SpaceSpec(dim=dim, radius=8.0, n_electrons=2)

    class Flat(ConstTarget):
        def start_candidates(self, r, rng):
            return np.zeros((len(r), 1, dim))

    sigma = 0.5
    settings = SamplerSettings(sigma=sigma, burn_in=0, samples=512, thinning=1, seed=7)
    points = np.zeros((64, dim))
    batch = run_conditional_batch(Flat(density, space), points, settings, {"sats": _sats})
    np.testing.assert_array_equal(batch.acceptance, 1.0)
    path = batch.values["sats"][:, :, 0, :]
    steps = np.diff(path, axis=0, prepend=0.0).ravel()
    half_width = np.sqrt(3.0) * sigma
    assert steps.min() >= -half_width and steps.max() < half_width
    n = steps.size
    assert abs(steps.mean()) <= 4.0 * steps.std() / np.sqrt(n)
    squares = steps * steps
    assert abs(squares.mean() - sigma**2) <= 4.0 * squares.std() / np.sqrt(n)


def test_zero_weight_proposal_always_rejected():
    density, space = line_pair()
    ansatz = PointTarget(density, space)
    settings = SamplerSettings(sigma=2.0, burn_in=0, samples=300, thinning=1, seed=0)
    collect = {"s": lambda r_block, kept: kept[..., 0, 0]}
    batch = run_conditional_batch(ansatz, np.zeros((16, 1)), settings, collect)
    np.testing.assert_array_equal(batch.acceptance, 0.0)
    np.testing.assert_array_equal(batch.values["s"], 0.5)


class HalfTarget(NormalTarget):
    """Support [0.5, 1); start candidates uniform on [0, 1), so about half
    of the first candidates have zero weight."""

    family = "half-toy"

    def log_f(self, s):
        return np.where((s >= 0.5) & (s < 1.0), 0.0, -np.inf)

    def start_candidates(self, r, rng):
        return rng.random((len(r), 1, 1))


def test_zero_weight_start_candidates_are_redrawn():
    # a step of 1e-300 leaves every chain at its start; the block's stream
    # gives all 64 first candidates in one draw, and then each chain whose
    # candidate has zero weight redraws until finite, in chain order
    density, space = line_pair()
    ansatz = HalfTarget(density, space)
    settings = SamplerSettings(sigma=1e-300, burn_in=0, samples=1, thinning=1, seed=3)
    batch = run_conditional_batch(ansatz, np.zeros((64, 1)), settings, {"sats": _sats})
    rng = substream(3, _NS_CHAIN, 0)
    expected = rng.random(64)
    redrawn = 0
    for chain in range(64):
        redrawn += expected[chain] < 0.5
        while expected[chain] < 0.5:
            expected[chain] = rng.random()
    assert redrawn > 0
    np.testing.assert_array_equal(batch.values["sats"][-1, :, 0, 0], expected)


class StaleCheckPairwise(PairwiseBiparametric):
    """Records, at every hinted call of a one-block run, how far the carried
    log_old is from a full evaluation of the chain's current state, relative
    to the largest |log f~| the chain has held (the scale of a running sum's
    rounding error), and asserts that the chain state holds exactly the
    terms of a fresh chain_state of the current satellites."""

    scale = 0.0
    worst = 0.0
    calls = 0

    def log_unnormalized(self, r, satellites, moved=None):
        if moved is not None:
            k, new, log_old, state = moved
            current = np.array(satellites, copy=True)  # the hint's current state
            full = super().log_unnormalized(r, current)
            self.scale = np.maximum(self.scale, np.abs(full))
            err = np.abs(log_old - full) / self.scale
            self.worst = max(self.worst, float(err.max()))
            fresh = self.chain_state(r, current)
            for name in ("rho_r", "rho_sat", "e_cond", "e_pair"):
                held, want = getattr(state, name), getattr(fresh, name)
                assert (held is None) == (want is None), name
                if want is not None:
                    np.testing.assert_array_equal(held, want, err_msg=name)
            self.calls += 1
        return super().log_unnormalized(r, satellites, moved)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("beta", [0.0, 2.0])
@pytest.mark.parametrize("dim", [3, 1])
def test_chain_log_f_never_stale(n, beta, dim):
    # the kernel carries log f~ of each chain from step to step through the
    # move hint, and the family's chain state carries rho and the E_H terms;
    # after every accept and reject both must still be those of the state
    # the chain is in
    density = ExponentialDensity(zeta=1.0, n_electrons=n, dim=dim)
    space = SpaceSpec(dim=dim, radius=3.0, n_electrons=n)
    ansatz = StaleCheckPairwise(density, space, gamma=1.0, beta=beta)
    settings = SamplerSettings(sigma=0.5, burn_in=100, samples=100, thinning=2, seed=4)
    points = density.sample(64, np.random.default_rng(4))
    batch = run_conditional_batch(ansatz, points, settings, {"sats": _sats})
    assert ansatz.calls == settings.burn_in + settings.samples * settings.thinning
    assert 0.0 < batch.acceptance.mean() < 1.0
    assert ansatz.worst <= 1e-12


class CurrentStateCheck(PairwiseBiparametric):
    """Asserts, at every hinted call, that k is the int t mod S at step t,
    and that log_old took the last call's value exactly at the chains the
    last commit's mask set; and, at every commit(k, accept), that the
    store changed to the proposal at the chains accept sets and nowhere
    else."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls, self.commits, self.last = 0, 0, None

    def log_unnormalized(self, r, satellites, moved=None):
        if moved is None:
            return super().log_unnormalized(r, satellites)
        k, new, log_old = moved[:3]
        assert type(k) is int and k == self.calls % self.n_satellites
        if self.last is not None:
            expected = self.last["log_old"].copy()
            acc = self.last["acc"]
            expected[acc] = self.last["log_new"][acc]
            np.testing.assert_array_equal(log_old, expected)
        log_new = super().log_unnormalized(r, satellites, moved)
        # the store is kept past the call only to check what the sampler
        # writes into it before the commit
        self.last = {
            "store": satellites, "before": np.array(satellites, copy=True),
            "proposal": self.proposal(satellites, k, new), "k": k,
            "log_old": log_old.copy(), "log_new": log_new.copy(),
        }
        self.calls += 1
        return log_new

    def check_commit(self, k, accept):
        last = self.last
        assert k == last["k"] and accept.dtype == bool
        changed = (last["store"] != last["before"]).any(axis=(1, 2))
        np.testing.assert_array_equal(changed, accept)
        np.testing.assert_array_equal(last["store"][accept], last["proposal"][accept])
        last["acc"] = accept.copy()
        self.commits += 1


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("dim", [3, 1])
def test_hinted_call_sees_the_current_state(monkeypatch, n, dim):
    # a proposal never enters the satellite store: each hinted call sees
    # the chains' current state, and the step loop writes the store, log f~
    # and the chain state only at the chains of the step's acceptance mask
    density = ExponentialDensity(zeta=1.0, n_electrons=n, dim=dim)
    space = SpaceSpec(dim=dim, radius=3.0, n_electrons=n)
    ansatz = CurrentStateCheck(density, space, 1.0, 1.5)
    commit = PairChainState.commit

    def checked_commit(state, k, accept):
        ansatz.check_commit(k, accept)
        commit(state, k, accept)

    monkeypatch.setattr(PairChainState, "commit", checked_commit)
    settings = SamplerSettings(sigma=0.5, burn_in=40, samples=20, thinning=2, seed=6)
    points = density.sample(64, np.random.default_rng(6))
    batch = run_conditional_batch(ansatz, points, settings, {})
    steps = settings.burn_in + settings.samples * settings.thinning
    assert ansatz.calls == ansatz.commits == steps
    assert 0.0 < batch.acceptance.mean() < 1.0


class ScanRecorder(ConstTarget):
    """A flat target with S satellites in 3D that records the hint's k at
    every step; every move is accepted."""

    family = "scan-toy"

    def __init__(self, density, space, n_sat):
        super().__init__(density, space)
        self.n_sat, self.ks = n_sat, []

    @property
    def n_satellites(self):
        return self.n_sat

    def log_unnormalized(self, r, satellites, moved=None):
        if moved is not None:
            self.ks.append(moved[0])
            satellites = self.proposal(satellites, moved[0], moved[1])
        return np.zeros(satellites.shape[0])

    def start_candidates(self, r, rng):
        return np.zeros((len(r), self.n_sat, 3))


@pytest.mark.parametrize("n_sat", [1, 2, 5])
def test_every_chain_moves_satellite_t_mod_s_and_draws_no_index(n_sat):
    # at step t every chain moves satellite t mod S, and each block's
    # stream is its steps, then its uniforms, with no index draw at any S:
    # on a flat target each satellite's path is the running sum of the
    # steps of the steps that moved it
    density = ExponentialDensity(zeta=1.0, n_electrons=2)
    space = SpaceSpec(dim=3, radius=8.0, n_electrons=2)
    ansatz = ScanRecorder(density, space, n_sat)
    m, steps = 16, 23
    settings = SamplerSettings(sigma=1.0, burn_in=0, samples=steps, thinning=1, seed=5)
    batch = run_conditional_batch(ansatz, np.zeros((m, 3)), settings, {"sats": _sats})
    np.testing.assert_array_equal(batch.acceptance, 1.0)
    assert all(type(k) is int for k in ansatz.ks)
    assert ansatz.ks == [t % n_sat for t in range(steps)]
    rng = substream(5, _NS_CHAIN, 0)
    unit = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (steps, m, 3))
    rng.random((steps, m))
    sats = np.zeros((m, n_sat, 3))
    for t in range(steps):
        sats[:, t % n_sat] += unit[t]
        np.testing.assert_array_equal(batch.values["sats"][t], sats)


class CountingPairwise(PairwiseBiparametric):
    """Counts log_unnormalized calls, hinted and not, with their chains;
    the first start candidates of every third chain lie outside omega,
    so those chains redraw."""

    def __init__(self, *args):
        super().__init__(*args)
        self.hinted, self.full, self.states, self.first = [], [], 0, True

    def log_unnormalized(self, r, satellites, moved=None):
        # the chains of the call: initial_satellites passes one point (d,)
        (self.full if moved is None else self.hinted).append(len(r) if np.ndim(r) > 1 else 1)
        return super().log_unnormalized(r, satellites, moved)

    def chain_state(self, r, satellites):
        self.states += 1
        state = super().chain_state(r, satellites)
        self.state_ref = weakref.ref(state)
        return state

    def start_candidates(self, r, rng):
        sats = super().start_candidates(r, rng)
        if self.first:
            sats[::3, 0] = 2.0 * self.space.omega_radius
            self.first = False
        return sats


@pytest.mark.parametrize("n", [2, 3, 6])
def test_one_log_unnormalized_call_per_step(n):
    # the step loop makes one hinted call over all chains per step; the
    # only other calls are the start evaluation over all chains and, when
    # some starts have f~ = 0, one call per redraw attempt and one over the
    # redrawn chains.  The family builds one chain state per batch, and
    # reference counting frees it, buffers and all, when the batch ends
    density = ExponentialDensity(zeta=1.0, n_electrons=n)
    space = SpaceSpec(dim=3, radius=3.0, n_electrons=n)
    ansatz = CountingPairwise(density, space, 1.0, 1.0)
    settings = SamplerSettings(sigma=0.5, burn_in=70, samples=30, thinning=2, seed=4)
    m = 48
    gc.disable()
    try:
        run_conditional_batch(ansatz, density.sample(m, np.random.default_rng(4)), settings, {})
        assert ansatz.state_ref() is None
    finally:
        gc.enable()
    redrawn = len(range(0, m, 3))
    assert ansatz.hinted == [m] * (settings.burn_in + settings.samples * settings.thinning)
    # each redrawn chain's next candidate lies inside omega, so it takes one attempt
    assert ansatz.full == [m] + [1] * redrawn + [redrawn]
    assert ansatz.states == 1


def test_detailed_balance_step_target():
    # empirical transition matrix between the 5 bins against the known
    # stationary law pi = (1,2,3,2,1)/9, from about 1e6 transitions between
    # consecutive kept samples of 2048 lockstep chains
    density, space = line_pair()
    ansatz = StepTarget(density, space)
    settings = SamplerSettings(sigma=1.5, burn_in=16, samples=500, thinning=1, seed=12)

    batch = run_conditional_batch(ansatz, np.zeros((2048, 1)), settings, {"sats": _sats})
    bins = np.floor(batch.values["sats"][:, :, 0, 0]).astype(np.int64)
    pair = 5 * bins[:-1] + bins[1:]  # (K - 1, chains)
    transitions = np.stack([np.sum(pair == c, axis=0) for c in range(25)])  # (25, chains)
    counts = transitions.sum(axis=1).reshape(5, 5).astype(float)
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


def one_chain(ansatz, r, settings, observable):
    """observable(r, satellites) on each kept sample of a one-point,
    one-walker batch, and the chain's acceptance."""

    def observe(r_block, sats):
        return np.array([[observable(r_block[0], s[0])] for s in sats], dtype=float)

    single = replace(settings, walkers=1, conditioning_points=1)
    batch = run_conditional_batch(ansatz, np.asarray(r, float)[None, :], single, {"obs": observe})
    return batch.values["obs"][:, 0], float(batch.acceptance[0])


def test_run_chain_constant_observable():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    series, _ = one_chain(ansatz, [0.0], fast_settings(), lambda r, s: 1.0)
    assert series.mean() == 1.0
    assert batch_means_stderr(series) == 0.0
    assert effective_sample_size(series) == series.size


def test_run_chain_half_space():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    settings = fast_settings(samples=2048, burn_in=256, thinning=2, seed=3)
    series, _ = one_chain(ansatz, [0.0], settings, lambda r, s: float(s[0, 0] > 0.0))
    assert abs(series.mean() - 0.5) <= 3.0 * batch_means_stderr(series)
    assert effective_sample_size(series) <= series.size


def test_stderr_squared_halves_when_samples_double():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    obs = lambda r, s: float(s[0, 0])
    var = {}
    for n in (1024, 2048):
        reps = []
        for seed in range(16):
            settings = fast_settings(samples=n, burn_in=128, thinning=2, seed=seed)
            reps.append(batch_means_stderr(one_chain(ansatz, [0.0], settings, obs)[0]))
        var[n] = np.mean(np.square(reps))
    ratio = var[2048] / var[1024]
    assert 0.4 <= ratio <= 0.6


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_pool_thread_does_not_change_results(monkeypatch):
    # two blocks and 96 steps in chunks of 20, so the batch starts its
    # pool thread; the pooled run, a rerun and the synchronous stand-in agree
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    points = np.linspace(-1.0, 1.0, 1536)[:, None]
    steps_per_chunk(monkeypatch, 20, len(points))
    settings = SamplerSettings(sigma=1.0, burn_in=64, samples=32, thinning=1, seed=21)
    outs = pooled_runs(
        monkeypatch, lambda: run_conditional_batch(ansatz, points, settings, {"sats": _sats})
    )
    means = [out.values["sats"][..., 0, 0].mean(axis=0) for out in outs]
    np.testing.assert_array_equal(means[0], means[1])
    np.testing.assert_array_equal(means[0], means[2])
    np.testing.assert_array_equal(outs[0].acceptance, outs[2].acceptance)


def test_pool_thread_and_rerun_pairwise_n6(monkeypatch):
    # the hinted kernel path: N = 6 with satellite pairs, over two blocks
    # and two step-chunks, so the batch starts its pool thread
    density = ExponentialDensity(zeta=1.5, n_electrons=6)
    space = SpaceSpec(dim=3, radius=3.0, n_electrons=6)
    ansatz = PairwiseBiparametric(density, space, gamma=1.0, beta=1.0)
    points = density.sample(1536, np.random.default_rng(6))
    reductions = {
        "m": lambda kept: kept.mean(axis=(0, 2, 3)),
        "last": lambda kept: kept[-1].reshape(kept.shape[1], -1).T,
    }
    settings = SamplerSettings(sigma=0.5, burn_in=64, samples=16, thinning=2, seed=23)
    outs = pooled_runs(
        monkeypatch, lambda: run_conditional_batch(ansatz, points, settings, {"sats": _sats})
    )
    for other in outs[1:]:
        for reduce in reductions.values():
            np.testing.assert_array_equal(
                reduce(outs[0].values["sats"]), reduce(other.values["sats"])
            )
        np.testing.assert_array_equal(outs[0].acceptance, other.acceptance)
        np.testing.assert_array_equal(outs[0].sigma_final, other.sigma_final)


def test_pool_thread_does_not_change_results_over_blocks_and_step_chunks(monkeypatch):
    # blocks of 8 chains: 30 chains make three full blocks and a last one
    # of 6; 120 steps in chunks of 20 make 6 step-chunks, so the pool thread
    # draws ahead and observes behind many times.  N = 3 with beta > 0 runs
    # the hinted pair path
    chains = 30
    monkeypatch.setattr(sampler, "_CHUNK", 8)
    steps_per_chunk(monkeypatch, 20, chains, dim=3)
    density = ExponentialDensity(zeta=1.5, n_electrons=3)
    space = SpaceSpec(dim=3, radius=3.0, n_electrons=3)
    ansatz = PairwiseBiparametric(density, space, gamma=1.0, beta=1.0)
    points = density.sample(chains, np.random.default_rng(4))
    observables = {"sats": _sats, "score": lambda r, sats: ansatz.score(r[None], sats)}
    monkeypatch.setattr(sampler, "_TUNE_INTERVAL", 10)
    settings = SamplerSettings(sigma=0.5, burn_in=40, samples=16, thinning=5, seed=9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the loop and the pool thread interleave often
    try:
        outs = pooled_runs(
            monkeypatch, lambda: run_conditional_batch(ansatz, points, settings, observables)
        )
    finally:
        sys.setswitchinterval(interval)
    for other in outs[1:]:
        for name in observables:
            np.testing.assert_array_equal(outs[0].values[name], other.values[name])
        np.testing.assert_array_equal(outs[0].acceptance, other.acceptance)
        np.testing.assert_array_equal(outs[0].sigma_final, other.sigma_final)
    assert 0.0 < outs[0].acceptance.min() and outs[0].acceptance.max() < 1.0


def test_observable_error_on_the_pool_thread_reaches_the_caller(monkeypatch):
    # the second step-chunk is observed on the pool thread while the loop
    # steps the third; its error leaves the batch, and the thread is gone
    m = 16
    steps_per_chunk(monkeypatch, 7, m)
    density, space = line_pair()
    settings = SamplerSettings(sigma=1.0, burn_in=0, samples=60, thinning=1, seed=0)
    threads = []

    def fails_second(r_block, sats):
        threads.append(threading.get_ident())
        if len(threads) == 2:
            raise RuntimeError("observable failed")
        return sats[..., 0, 0]

    with pytest.raises(RuntimeError, match="observable failed"):
        run_conditional_batch(
            ConstTarget(density, space), np.zeros((m, 1)), settings, {"s": fails_second}
        )
    assert threads[1] != threading.get_ident()


def test_observable_returning_none_streams_every_kept_sample_once(monkeypatch):
    # 60 kept samples in step-chunks of 7: the pool thread observes all but
    # the last.  An observable that returns None sees each step-chunk once,
    # in kept order and never while another observation runs, and stores
    # no rows
    m = 16
    steps_per_chunk(monkeypatch, 7, m)
    density, space = line_pair()
    settings = SamplerSettings(sigma=1.0, burn_in=5, samples=60, thinning=1, seed=0)
    running, seen = [], []

    def observing(fn):
        def observe(r_block, sats):
            assert not running, "two observations ran at once"
            running.append(fn)
            try:
                threading.Event().wait(1e-3)  # give another observation room to start
                return fn(r_block, sats)
            finally:
                running.pop()
        return observe

    def streamed(r_block, sats):
        seen.append(np.array(sats[..., 0, 0]))
        return None

    observables = {"kept": observing(lambda r, sats: sats[..., 0, 0]), "streamed": observing(streamed)}
    batch = run_conditional_batch(ConstTarget(density, space), np.zeros((m, 1)), settings, observables)
    assert set(batch.values) == {"kept"}
    assert [len(x) for x in seen] == [2] + [7] * 8 + [2]
    np.testing.assert_array_equal(np.concatenate(seen), batch.values["kept"])


def test_pool_thread_only_for_several_step_chunks(monkeypatch):
    # one step-chunk runs on the calling thread alone, over one block or
    # two; several step-chunks start one pool thread, over one block or
    # two, which observes all but the last step-chunk and leaves none running
    monkeypatch.setattr(sampler, "_CHUNK", 8)
    density, space = line_pair()
    settings = SamplerSettings(sigma=1.0, burn_in=0, samples=30, thinning=1, seed=0)
    started = []

    class Counted(sampler.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(sampler, "ThreadPoolExecutor", Counted)
    for chains, steps, pooled in ((8, 30, False), (16, 30, False), (8, 7, True), (9, 7, True)):
        steps_per_chunk(monkeypatch, steps, chains)
        threads = []

        def observe(r_block, sats):
            threads.append(threading.get_ident())
            return sats[..., 0, 0]

        started.clear()
        before = threading.active_count()
        run_conditional_batch(
            ConstTarget(density, space), np.zeros((chains, 1)), settings, {"s": observe}
        )
        assert started == ([1] if pooled else [])
        assert len(threads) == -(-30 // steps)
        assert len(set(threads)) == (2 if pooled else 1) and threads[-1] == threading.get_ident()
        assert threading.active_count() == before


# kept-sample sums, summed acceptance and summed final sigma of two-block
# pairwise runs, recorded when the proposal steps became uniform (the
# S >= 2 entries when the satellites began to move in turn); a change
# to where the chain state or the step loop keeps its terms must not move
# a result bit.  The entries keyed (family, n, dim) cover 1D pairwise with
# beta > 0 (the contact masks of the hinted kernel), and the two families
# without a chain state
PINNED_BATCH_VALUES = {
    (2, 0.0): (62.812292606288736, 5508.3772102529165, 389.5, 554.41875),
    (6, 1.5): (-719.931980511436, 81344.84325472669, 447.4375, 684.390625),
    ("pairwise", 3, 1): (-45.3957851923922, 11463.177684270491, 335.4375, 445.2012125),
    ("frozen", 6, 3): (-50.998687201690615, 58939.35005766355, 445.0625, 677.828125),
    ("gaussian-toy", 6, 3): (1760.8533160509191, 189533.9845171774, 515.875, 989.74609375),
}


def _batch_sums(batch):
    kept = batch.values["sats"]
    return (
        float(kept.sum(axis=(0, 2, 3)).sum()),
        float((kept * kept).sum(axis=(0, 2, 3)).sum()),
        float(batch.acceptance.sum()),
        float(batch.sigma_final.sum()),
    )


def _assert_batch_pinned(monkeypatch, key, ansatz, points, settings, runs):
    monkeypatch.setattr(sampler, "_TUNE_INTERVAL", 16)
    # two blocks but one step-chunk, so no pool thread; a cold run draws and
    # holds its variates, and a second run takes that held draw
    monkeypatch.setattr(sampler, "ThreadPoolExecutor", None)
    monkeypatch.setattr(sampler, "_held", None)
    for k in range(runs):
        batch = run_conditional_batch(ansatz, points, settings, {"sats": _sats})
        if k == 0:
            held = sampler._held
            assert held is not None
        else:
            assert sampler._held is held
        assert batch.acceptance.size == len(points) * settings.walkers > sampler._CHUNK
        assert _batch_sums(batch) == PINNED_BATCH_VALUES[key]


# the same sums for two-block pooled runs of six step-chunks of 37 steps
# (the N = 3 entry recorded when the satellites began to move in turn),
# whose steps the loop scales a window at a time: the 199 steps (burn-in
# 151, two adaptations) put step-chunk edges and the burn-in's end inside
# windows, whose length divides _TUNE_INTERVAL (2 steps at 3D and 4 in 1D
# for 1100 chains)
PINNED_WINDOW_VALUES = {
    (2, 3): (-97.61259161398212, 11543.205940959435, 427.04166666666663, 571.875),
    (3, 1): (-762.9698711458485, 22765.49565193334, 305.54166666666663, 504.55),
}


@pytest.mark.parametrize("n,dim,beta", [(2, 3, 0.0), (3, 1, 1.5)])
def test_batch_values_pinned_across_step_windows(monkeypatch, n, dim, beta):
    density = ExponentialDensity(zeta=1.5, n_electrons=n, dim=dim)
    space = SpaceSpec(dim=dim, radius=1.3 if n == 2 else 3.0, n_electrons=n)
    ansatz = PairwiseBiparametric(density, space, gamma=1.0, beta=beta)
    points = density.sample(1100, np.random.default_rng(34))
    settings = SamplerSettings(sigma=0.5, burn_in=151, samples=16, thinning=3, seed=34)
    steps_per_chunk(monkeypatch, 37, len(points), dim=dim)
    outs = pooled_runs(
        monkeypatch, lambda: run_conditional_batch(ansatz, points, settings, {"sats": _sats})
    )
    for batch in outs:
        assert _batch_sums(batch) == PINNED_WINDOW_VALUES[(n, dim)]


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("n,beta,n_points,walkers,seed", [
    (2, 0.0, 520, 2, 31),
    (6, 1.5, 1100, 1, 32),
])
def test_batch_values_pinned(monkeypatch, n, beta, n_points, walkers, seed, runs):
    density = ExponentialDensity(zeta=1.5, n_electrons=n)
    space = SpaceSpec(dim=3, radius=1.3 if n == 2 else 3.0, n_electrons=n)
    ansatz = PairwiseBiparametric(density, space, gamma=1.0, beta=beta)
    points = density.sample(n_points, np.random.default_rng(seed))
    settings = SamplerSettings(
        sigma=0.5, burn_in=64, samples=8, thinning=2, seed=seed, walkers=walkers
    )
    _assert_batch_pinned(monkeypatch, (n, beta), ansatz, points, settings, runs)


@pytest.mark.parametrize("family,n,dim", [
    ("pairwise", 3, 1),
    ("frozen", 6, 3),
    ("gaussian-toy", 6, 3),
])
def test_family_batch_values_pinned(monkeypatch, family, n, dim):
    density = ExponentialDensity(zeta=1.5, n_electrons=n, dim=dim)
    space = SpaceSpec(dim=dim, radius=3.0, n_electrons=n)
    ansatz = build_ansatz(family, density, space, gamma=1.0, beta=1.5)
    points = density.sample(1100, np.random.default_rng(33))
    settings = SamplerSettings(sigma=0.5, burn_in=64, samples=8, thinning=2, seed=33)
    _assert_batch_pinned(monkeypatch, (family, n, dim), ansatz, points, settings, 1)


# one chain's mean, batch-means stderr and acceptance of a one-chain block,
# keyed by its chain index, which draws its start and then all its step
# variates in one step-chunk (recorded when the steps became uniform, and
# the N = 3 entry when the satellites began to move in turn)
ONE_CHAIN_VALUES = {
    "pairwise-3d": (2.6115826743792936, 0.06461756407249493, 0.396484375),
    "pairwise-1d": (1.7858933013766134, 0.08394524784503955, 0.568359375),
    "gaussian-1d": (0.8316561771966637, 0.09079790552183617, 0.724609375),
}


def test_one_chain_streams_unchanged():
    d3 = ExponentialDensity(zeta=1.7, n_electrons=3)
    s3 = SpaceSpec(dim=3, radius=2.0, n_electrons=3)
    d1 = ExponentialDensity(zeta=1.0, n_electrons=2, dim=1)
    s1 = SpaceSpec(dim=1, radius=4.0, n_electrons=2)
    cases = {
        "pairwise-3d": (PairwiseBiparametric(d3, s3, gamma=1.0, beta=0.5), [0.3, -0.2, 0.1]),
        "pairwise-1d": (PairwiseBiparametric(d1, s1, gamma=2.0, beta=0.0), [0.4]),
        "gaussian-1d": (GaussianToy(d1, s1, width=0.8), [0.4]),
    }
    settings = SamplerSettings(sigma=0.5, burn_in=128, samples=256, thinning=2, seed=11)
    obs = lambda r, s: float(np.sum(s * s))
    for name, expected in ONE_CHAIN_VALUES.items():
        ansatz, r = cases[name]
        series, acceptance = one_chain(ansatz, r, settings, obs)
        assert (float(series.mean()), batch_means_stderr(series), acceptance) == expected, name

    # the last block of 1025 chains holds chain 1024 alone
    ansatz = cases["pairwise-1d"][0]
    settings = SamplerSettings(sigma=0.5, burn_in=32, samples=16, thinning=2, seed=11)
    batch = run_conditional_batch(
        ansatz, np.linspace(-1.0, 1.0, 1025)[:, None], settings, {"sats": _sats}
    )
    assert batch.values["sats"][:, -1, 0, 0].mean() == 1.3920752859708507
    assert batch.acceptance[-1] == 0.8125


def test_variate_chunk_edges_skip_and_reuse_nothing(monkeypatch):
    # 200 steps in chunks of 7 end in a partial chunk of 4; on a flat target
    # every move is accepted, so each chain's path is the running sum of
    # the uniform steps drawn chunk by chunk from its block's stream.  With
    # two blocks of 8, each block draws its own share of every step-chunk
    m = 16
    steps_per_chunk(monkeypatch, 7, m)
    density, space = line_pair()
    settings = SamplerSettings(sigma=1.0, burn_in=0, samples=200, thinning=1, seed=0)
    collect = {"s": lambda r_block, kept: kept[..., 0, 0]}
    for block in (m, m // 2):
        monkeypatch.setattr(sampler, "_CHUNK", block)
        batch = run_conditional_batch(
            ConstTarget(density, space), np.zeros((m, 1)), settings, collect
        )
        np.testing.assert_array_equal(batch.acceptance, 1.0)

        for first in range(0, m, block):
            rng = substream(0, _NS_CHAIN, first)
            steps = []
            for n in [7] * 28 + [4]:
                steps.append(rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (n, block, 1))[..., 0])
                rng.random((n, block))
            np.testing.assert_array_equal(
                batch.values["s"][:, first:first + block], np.cumsum(np.concatenate(steps), axis=0)
            )


def test_observations_at_step_chunk_edges(monkeypatch):
    # 155 steps in chunks of 7 end in a partial chunk of 1; after 5 burn-in
    # steps every third step is kept, so the chunks hold 2 or 3 kept samples
    # and the last kept step is the partial chunk's only step.  On a flat
    # target every move is accepted: the kept satellites are the running
    # sum of the uniform steps at the kept steps
    m = 16
    steps_per_chunk(monkeypatch, 7, m)
    density, space = line_pair()
    settings = SamplerSettings(sigma=1.0, burn_in=5, samples=50, thinning=3, seed=0)
    points = np.linspace(-1.0, 1.0, m)[:, None]
    calls = []

    def second(r_block, sats):
        calls.append(len(sats))
        return sats[..., 0, 0] * r_block[:, 0] + sats[..., 0, 0] ** 2

    batch = run_conditional_batch(
        ConstTarget(density, space), points, settings, {"sats": _sats, "second": second}
    )
    np.testing.assert_array_equal(batch.acceptance, 1.0)

    rng = substream(0, _NS_CHAIN, 0)
    steps = []
    for n in [7] * 22 + [1]:
        steps.append(rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (n, m, 1))[..., 0])
        rng.random((n, m))
    path = np.cumsum(np.concatenate(steps), axis=0)
    sats = batch.values["sats"]
    assert sats.shape == (50, m, 1, 1)
    np.testing.assert_array_equal(sats[..., 0, 0], path[5 + 2 :: 3])
    # one call per step-chunk that kept a sample, never more than ceil(7 / 3)
    assert len(calls) == 22 and sum(calls) == 50 and max(calls) == 3
    np.testing.assert_array_equal(batch.values["second"], second(points, sats))


def test_normal_target_variance_with_partial_variate_chunks(monkeypatch):
    # the variance check of test_normal_target_variance, with 2256 steps
    # drawn 7 at a time
    steps_per_chunk(monkeypatch, 7, 100)
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    settings = SamplerSettings(sigma=1.0, burn_in=256, samples=1000, thinning=2, seed=5)
    collect = lambda r_block, kept: kept[..., 0, 0] ** 2
    batch = run_conditional_batch(ansatz, np.zeros((100, 1)), settings, {"sq": collect})
    assert batch.values["sq"].size == 100_000
    assert batch.values["sq"].mean() == pytest.approx(1.0, abs=0.02)


def test_rerun_is_bit_identical():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    settings = fast_settings(seed=17)
    obs = lambda r, s: float(s[0, 0])
    a, acc_a = one_chain(ansatz, [0.2], settings, obs)
    b, acc_b = one_chain(ansatz, [0.2], settings, obs)
    np.testing.assert_array_equal(a, b)
    assert acc_a == acc_b


def test_seed_changes_results():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    obs = lambda r, s: float(s[0, 0])
    a, _ = one_chain(ansatz, [0.2], fast_settings(seed=1), obs)
    b, _ = one_chain(ansatz, [0.2], fast_settings(seed=2), obs)
    assert a.mean() != b.mean()


# ---------------------------------------------------------------------------
# the held draw of one-step-chunk batches
# ---------------------------------------------------------------------------


def _pair_n3():
    density = ExponentialDensity(zeta=1.5, n_electrons=3)
    space = SpaceSpec(dim=3, radius=3.0, n_electrons=3)
    ansatz = PairwiseBiparametric(density, space, gamma=1.0, beta=1.0)
    return ansatz, density.sample(40, np.random.default_rng(8))


def _cold(monkeypatch, ansatz, points, settings):
    """The batch with no draw held, as in a fresh process."""
    monkeypatch.setattr(sampler, "_held", None)
    return run_conditional_batch(ansatz, points, settings, {"sats": _sats})


def _assert_same_batch(a, b):
    np.testing.assert_array_equal(a.values["sats"], b.values["sats"])
    np.testing.assert_array_equal(a.acceptance, b.acceptance)
    np.testing.assert_array_equal(a.sigma_final, b.sigma_final)


def test_held_draw_reuse_equals_a_cold_run(monkeypatch):
    ansatz, points = _pair_n3()
    settings = SamplerSettings(sigma=0.5, burn_in=40, samples=20, thinning=2, seed=5)
    other = replace(settings, seed=6)
    cold = _cold(monkeypatch, ansatz, points, settings)
    cold_other = _cold(monkeypatch, ansatz, points, other)
    after_other = run_conditional_batch(ansatz, points, settings, {"sats": _sats})
    held = sampler._held
    again = run_conditional_batch(ansatz, points, settings, {"sats": _sats})
    assert sampler._held is held  # the second same-seed batch reused the draw
    _assert_same_batch(cold, after_other)
    _assert_same_batch(cold, again)
    assert held[1] and all(not x.flags.writeable for x in held[1])
    other_after = run_conditional_batch(ansatz, points, other, {"sats": _sats})
    _assert_same_batch(cold_other, other_after)


class FullTarget(HalfTarget):
    """HalfTarget's start candidates on the support [0, 1): none is redrawn."""

    family = "full-toy"

    def log_f(self, s):
        return np.where((s >= 0.0) & (s < 1.0), 0.0, -np.inf)


def test_held_draw_is_keyed_by_generator_state_not_seed(monkeypatch):
    # the same seed and shape, but the zero-weight redraws of the half
    # target move its generators past where the full target's stood
    density, space = line_pair()
    points = np.zeros((64, 1))
    settings = SamplerSettings(sigma=0.05, burn_in=0, samples=50, thinning=1, seed=3)
    half = HalfTarget(density, space)
    cold = _cold(monkeypatch, half, points, settings)
    _cold(monkeypatch, FullTarget(density, space), points, settings)
    warm = run_conditional_batch(half, points, settings, {"sats": _sats})
    _assert_same_batch(cold, warm)
    assert 0.0 < cold.acceptance.mean() < 1.0


def test_held_draw_at_most_one_step_chunk(monkeypatch):
    ansatz, points = _pair_n3()
    settings = SamplerSettings(sigma=0.5, burn_in=40, samples=20, thinning=2, seed=5)
    _cold(monkeypatch, ansatz, points, settings)
    assert sum(x.nbytes for x in sampler._held[1]) <= sampler._VARIATE_BYTES
    steps_per_chunk(monkeypatch, 16, len(points), dim=3)  # 80 steps in 5 step-chunks
    run_conditional_batch(ansatz, points, settings, {"sats": _sats})
    held = sampler._held[1] if sampler._held else ()
    assert sum(x.nbytes for x in held) <= sampler._VARIATE_BYTES


def test_held_draw_same_cold_and_warm_at_every_block_size(monkeypatch):
    # a held draw is one step-chunk, so its batch starts no pool thread,
    # also when it spans five blocks of 8 chains
    ansatz, points = _pair_n3()
    settings = SamplerSettings(sigma=0.5, burn_in=40, samples=20, thinning=2, seed=5)
    monkeypatch.setattr(sampler, "ThreadPoolExecutor", None)  # starting a pool fails
    for block in (sampler._CHUNK, 8):
        monkeypatch.setattr(sampler, "_CHUNK", block)
        cold = _cold(monkeypatch, ansatz, points, settings)
        warm = run_conditional_batch(ansatz, points, settings, {"sats": _sats})
        _assert_same_batch(cold, warm)
        again_cold = _cold(monkeypatch, ansatz, points, settings)
        _assert_same_batch(cold, again_cold)


# ---------------------------------------------------------------------------
# step-size tuning
# ---------------------------------------------------------------------------


def test_sigma_frozen_outside_burn_in():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    settings = SamplerSettings(sigma=25.0, burn_in=0, samples=64, thinning=1, seed=2)
    batch = run_conditional_batch(ansatz, np.zeros((4, 1)), settings, {"sats": _sats})
    np.testing.assert_array_equal(batch.sigma_final, 25.0)


def test_sigma_tuning_reaches_acceptance_window():
    density, space = line_pair()
    ansatz = NormalTarget(density, space)
    settings = SamplerSettings(sigma=40.0, burn_in=1024, samples=256, thinning=1, seed=2)
    batch = run_conditional_batch(ansatz, np.zeros((8, 1)), settings, {"sats": _sats})
    assert np.all(batch.sigma_final < 40.0)
    assert 0.15 <= batch.acceptance.mean() <= 0.55


# ---------------------------------------------------------------------------
# conditioning-point draws
# ---------------------------------------------------------------------------


def test_conditioning_radial_mean():
    # <r> = 3/(2 zeta) for the 3D exponential cloud
    density = ExponentialDensity(zeta=1.0, n_electrons=2)
    rng = np.random.default_rng(42)
    pts = density.sample(1_000_000, rng)
    r = np.linalg.norm(pts, axis=1)
    assert r.mean() == pytest.approx(1.5, abs=0.01)


def test_conditioning_uniform_ks():
    stats = pytest.importorskip("scipy.stats")
    x = np.linspace(0.0, 1.0, 101)
    density = Tabulated1DDensity(x, np.ones_like(x), n_electrons=2)
    rng = np.random.default_rng(8)
    draws = density.sample(100_000, rng)[:, 0]
    stat = stats.kstest(draws, "uniform")
    assert stat.pvalue > 0.01


def test_conditioning_fixed_seed_identical():
    density = ExponentialDensity(zeta=1.3, n_electrons=2)
    a = density.sample(100, np.random.default_rng(7))
    b = density.sample(100, np.random.default_rng(7))
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
    with pytest.raises(ValueError, match="seed"):
        SamplerSettings(seed=-1)
    for sigma in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError):
            SamplerSettings(sigma=sigma)
    # burn_in = 0 is a legal measurement-only chain
    assert SamplerSettings(burn_in=0).burn_in == 0


def test_substream_disjoint_and_stable():
    a = substream(3, 1, 0).random(4)
    b = substream(3, 1, 1).random(4)
    again = substream(3, 1, 0).random(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, again)
