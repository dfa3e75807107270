"""Metropolis sampling of satellite configurations from f(. | r).

Chains run in lockstep blocks.  Each step displaces one uniformly chosen
satellite per chain by a Gaussian step and accepts with probability
min(1, f~'/f~).  Proposals with f~ = 0 (outside the support, or at a
coincidence) are always rejected.  The proposal is written into the
chain state in place and evaluated with one `log_unnormalized` call that
carries the move as a hint (moved satellite, its old position, the
current log f~), so a family can add only the terms that involve the
moved satellite; rejected moves are then undone.

Randomness discipline: every chain owns a private generator derived from
the master seed and the chain index through a counter-based seed split.
It draws the chain's start first and then a fixed number of variates per
step, regardless of the accept/reject outcome.  Batch results are
therefore bit-identical for any chunking of the chain set across workers.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from .ansatz import ConditionalAnsatz, EstimatorError
from .domain import Density

# namespace tags for seed splitting; distinct integers keep streams disjoint
_NS_CHAIN = 0x636861
_NS_CONDITIONING = 0x636F6E
_NS_FRESH = 0x667265
_NS_SINGLE = 0x73676C

_CHUNK = 1024  # chains processed per block; fixed so results never depend on workers


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the (seed, key...) slot of the stream tree."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def conditioning_rng(seed: int) -> np.random.Generator:
    return substream(seed, _NS_CONDITIONING)


def fresh_seed(seed: int, round_index: int = 0) -> int:
    """A reproducible but independent seed for post-search re-evaluation."""
    return int(substream(seed, _NS_FRESH, round_index).integers(0, 2**63 - 1))


@dataclass(frozen=True)
class SamplerSettings:
    """Knobs of the conditional sampler.

    sigma: initial Gaussian proposal step.
    burn_in: discarded leading steps; step-size tuning happens here only.
    samples: kept samples per walker after thinning.
    thinning: keep every thinning-th step after burn-in.
    walkers: independent chains per conditioning point.
    conditioning_points: outer draws from rho/N per estimate.
    seed: master seed for the whole stream tree.
    tune: adapt sigma toward the target acceptance window during burn-in.
    """

    sigma: float = 0.5
    burn_in: int = 512
    samples: int = 256
    thinning: int = 4
    walkers: int = 1
    conditioning_points: int = 512
    seed: int = 0
    tune: bool = True
    tune_interval: int = 64
    workers: int = 1

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if min(self.burn_in, self.samples, self.thinning, self.walkers) < 1 and self.burn_in != 0:
            raise ValueError("sampler counts must be positive (burn_in may be 0)")
        if self.samples < 1 or self.thinning < 1 or self.walkers < 1:
            raise ValueError("sampler counts must be positive")
        if self.conditioning_points < 1:
            raise ValueError("conditioning_points must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")

    def replace(self, **kw) -> "SamplerSettings":
        return replace(self, **kw)


ACCEPTANCE_WINDOW = (0.2, 0.5)


# ---------------------------------------------------------------------------
# vectorized batch engine
# ---------------------------------------------------------------------------


@dataclass
class BatchResult:
    """Per-chain reductions plus sampler diagnostics."""

    values: dict[str, np.ndarray]
    acceptance: np.ndarray
    sigma_final: np.ndarray

    @property
    def mean_acceptance(self) -> float:
        return float(self.acceptance.mean())


def _chain_block(ansatz, r_block, settings, chain_indices, collectors):
    """Advance one block of chains in lockstep and reduce kept samples.

    r_block: (m, d) conditioning points, one per chain in the block.
    chain_indices: global chain ids, used only for stream derivation.
    """
    m, d = r_block.shape
    n_sat = ansatz.n_satellites
    total_steps = settings.burn_in + settings.samples * settings.thinning

    # every chain draws from its own stream in a fixed order (start, then
    # step variates), so its sequence is independent of everything else;
    # one block call checks all first start candidates, and the rare chain
    # whose candidate has f~ = 0 redraws its start on the same stream
    rngs = [substream(settings.seed, _NS_CHAIN, int(chain_id)) for chain_id in chain_indices]
    cur = np.empty((m, n_sat, d))
    for j, rng in enumerate(rngs):
        cur[j] = ansatz.start_candidate(r_block[j], rng)
    log_cur = ansatz.log_unnormalized(r_block, cur)
    redo = np.flatnonzero(~np.isfinite(log_cur))
    if redo.size:
        for j in redo:
            cur[j] = ansatz.initial_satellites(r_block[j], rngs[j])
        log_cur[redo] = ansatz.log_unnormalized(r_block[redo], cur[redo])
        if not np.all(np.isfinite(log_cur)):
            raise EstimatorError("chain initialization produced zero-weight states")

    sat_idx = np.empty((total_steps, m), dtype=np.int64)
    normals = np.empty((total_steps, m, d))
    unifs = np.empty((total_steps, m))
    for j, rng in enumerate(rngs):
        sat_idx[:, j] = rng.integers(n_sat, size=total_steps)
        normals[:, j] = rng.standard_normal((total_steps, d))
        unifs[:, j] = rng.random(total_steps)

    sigma = np.full(m, settings.sigma)
    accepted_window = np.zeros(m)
    accepted_meas = np.zeros(m)
    cur_flat = cur.reshape(m * n_sat, d)  # view: satellite j of chain c at row c S + j
    first = np.arange(m) * n_sat
    kept = np.empty((settings.samples, m, n_sat, d))
    k_out = 0

    for t in range(total_steps):
        # the proposal is made in place and undone where it is rejected
        k = sat_idx[t]
        moved_rows = first + k
        old = np.take(cur_flat, moved_rows, axis=0)
        new = old + sigma[:, None] * normals[t]
        cur_flat[moved_rows] = new
        log_new = ansatz.log_unnormalized(r_block, cur, moved=(k, old, log_cur))
        with np.errstate(invalid="ignore"):
            accept = np.log(unifs[t]) < (log_new - log_cur)
        cur_flat[moved_rows] = np.where(accept[:, None], new, old)
        log_cur = np.where(accept, log_new, log_cur)

        in_burn = t < settings.burn_in
        if in_burn:
            accepted_window += accept
            if (
                settings.tune
                and (t + 1) % settings.tune_interval == 0
            ):
                rate = accepted_window / settings.tune_interval
                sigma = np.where(rate > ACCEPTANCE_WINDOW[1], sigma * 1.25, sigma)
                sigma = np.where(rate < ACCEPTANCE_WINDOW[0], sigma / 1.25, sigma)
                accepted_window[:] = 0.0
        else:
            accepted_meas += accept
            if (t - settings.burn_in) % settings.thinning == settings.thinning - 1:
                kept[k_out] = cur
                k_out += 1

    meas_steps = total_steps - settings.burn_in
    acceptance = accepted_meas / meas_steps
    values = {name: np.asarray(fn(r_block, kept)) for name, fn in collectors.items()}
    return values, acceptance, sigma


def run_conditional_batch(
    ansatz: ConditionalAnsatz,
    r_points: np.ndarray,
    settings: SamplerSettings,
    collectors: dict,
) -> BatchResult:
    """Sample satellites from f(. | r) for a batch of conditioning points.

    Args:
        r_points: (M, d) conditioning points; each spawns `walkers` chains.
        collectors: name -> fn(r_block (m, d), kept (K, m, S, d)) returning
            arrays whose last axis is the chain axis, i.e. (m,) or (K, m).

    Returns:
        BatchResult whose values arrays run over chains in point order
        (walkers of point 0, then walkers of point 1, ...).  Reductions
        happen after reassembly in chain order, so the outcome does not
        depend on the chunking or on the worker count.
    """
    r_points = np.asarray(r_points, dtype=float)
    n_points, d = r_points.shape
    n_chains = n_points * settings.walkers
    r_chains = np.repeat(r_points, settings.walkers, axis=0)

    blocks = [
        (start, min(start + _CHUNK, n_chains)) for start in range(0, n_chains, _CHUNK)
    ]

    def do_block(bounds):
        start, stop = bounds
        return _chain_block(
            ansatz,
            r_chains[start:stop],
            settings,
            np.arange(start, stop),
            collectors,
        )

    if settings.workers > 1 and len(blocks) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=settings.workers) as pool:
            results = list(pool.map(do_block, blocks))
    else:
        results = [do_block(b) for b in blocks]

    # collector outputs carry the chain axis last ((m,) or (K, m)), so
    # blocks are reassembled along axis -1 in chain order
    values = {
        name: np.concatenate([res[0][name] for res in results], axis=-1)
        for name in collectors
    }
    acceptance = np.concatenate([res[1] for res in results])
    sigma_final = np.concatenate([res[2] for res in results])
    return BatchResult(values=values, acceptance=acceptance, sigma_final=sigma_final)


# ---------------------------------------------------------------------------
# single-chain estimates
# ---------------------------------------------------------------------------


@dataclass
class EstimatorResult:
    mean: float
    stderr: float
    n_samples: int
    ess: float
    acceptance: float


def batch_means_stderr(series: np.ndarray, n_batches: int = 32) -> float:
    """Standard error of the mean from disjoint batch means."""
    n = series.size
    n_batches = min(n_batches, n)
    usable = (n // n_batches) * n_batches
    batches = series[:usable].reshape(n_batches, -1).mean(axis=1)
    if n_batches < 2:
        return float("nan")
    return float(batches.std(ddof=1) / np.sqrt(n_batches))


def effective_sample_size(series: np.ndarray) -> float:
    """ESS via the initial-positive-sequence autocorrelation estimator."""
    n = series.size
    x = series - series.mean()
    var = float(np.dot(x, x) / n)
    if var == 0.0:
        return float(n)
    tau = 1.0
    for lag in range(1, n // 2):
        c = float(np.dot(x[:-lag], x[lag:]) / n) / var
        if c <= 0.0:
            break
        tau += 2.0 * c
    return n / tau


def run_chain(
    ansatz: ConditionalAnsatz,
    r: np.ndarray,
    settings: SamplerSettings,
    observable,
    stream_index: int = 0,
) -> EstimatorResult:
    """Estimate E_f[observable | r] with one chain.

    observable maps (r (d,), satellites (S, d)) to a float; it is applied
    to every kept sample.  The stderr comes from 32 batch means and the
    ESS from the autocorrelation of the kept series.  stream_index > 0
    selects an independent replica stream under the same master seed.
    """
    r = np.asarray(r, dtype=float)
    seed = settings.seed
    if stream_index:
        seed = int(substream(seed, _NS_SINGLE, stream_index).integers(0, 2**63 - 1))

    def collect(r_block, kept):
        n_kept, m = kept.shape[0], kept.shape[1]
        out = np.empty((n_kept, m))
        for t in range(n_kept):
            for j in range(m):
                out[t, j] = observable(r_block[j], kept[t, j])
        return out

    single = settings.replace(walkers=1, conditioning_points=1, seed=seed)
    result = run_conditional_batch(ansatz, r[None, :], single, {"series": collect})
    series = result.values["series"][:, 0]
    if not np.all(np.isfinite(series)):
        raise EstimatorError("non-finite observable value encountered")
    return EstimatorResult(
        mean=float(series.mean()),
        stderr=batch_means_stderr(series),
        n_samples=series.size,
        ess=effective_sample_size(series),
        acceptance=float(result.acceptance[0]),
    )


def sample_conditioning_points(density: Density, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws from the one-particle probability density rho/N, shape (n, d)."""
    return density.sample(n, rng)
