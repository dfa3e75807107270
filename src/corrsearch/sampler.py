"""Metropolis sampling of satellite configurations from f(. | r).

Chains run in lockstep blocks.  Each step displaces one uniformly chosen
satellite per chain by a Gaussian step and accepts with probability
min(1, f~'/f~).  Proposals with f~ = 0 (outside the support, or at a
coincidence) are always rejected.  The proposal is written into the
block's satellites in place, through a flat view of them and the element
indices of the moved coordinates, and evaluated with one
`log_unnormalized` call that carries the move as a hint (moved
satellite, its old position, the current log f~ and the family's chain
state), so a family can add only the terms that involve the moved
satellite; rejected moves are then undone.  The chain state is the
family's per-chain cache (for `pairwise`: rho(r), and the conditioning
and satellite pair terms of the current state).  The family fills it
once per block from the final starts, and the sampler commits the
accepted moves into it after every step.

Randomness discipline: chains are split into blocks of a fixed `_CHUNK`
chains, and each block owns one generator derived from the master seed
and the block's first chain index through a counter-based seed split.
The block draws all start candidates in one call, then redraws, in chain
order, the starts of chains whose candidate has f~ = 0, and then draws
the step variates (satellite index, Gaussian step, uniform) for a
step-chunk of all its chains at a time, whatever the accept/reject
outcomes.  The step-chunk length comes from a fixed byte budget
(`_VARIATE_BYTES`), so a block never holds the whole run's variates.
Neither the blocks nor the step-chunks depend on the worker count, so
batch results are bit-identical for any number of workers and on reruns.
A one-chain block (as in `run_chain`) is keyed by its chain index and
draws its start, then all satellite indices, steps and uniforms, in one
step-chunk as long as the run has at most _VARIATE_BYTES / (8 (d + 2))
steps.
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
_VARIATE_BYTES = 4 * 2**20  # step variates a block holds at once: 8 (d + 2) bytes per chain-step


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
        if self.burn_in < 0 or min(self.samples, self.thinning, self.walkers) < 1:
            raise ValueError("burn_in must be >= 0 and samples, thinning, walkers >= 1")
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


def _chain_block(ansatz, r_block, settings, first_chain, collectors):
    """Advance one block of chains in lockstep and reduce kept samples.

    r_block: (m, d) conditioning points, one per chain in the block.
    first_chain: global index of the block's first chain; it keys the
        block's stream.
    """
    m, d = r_block.shape
    n_sat = ansatz.n_satellites
    total_steps = settings.burn_in + settings.samples * settings.thinning

    # the block's stream is consumed in a fixed order: all start candidates,
    # then the redraws of zero-weight starts in chain order, then the step
    # variates one step-chunk at a time
    rng = substream(settings.seed, _NS_CHAIN, first_chain)
    # an own C-ordered copy: moves are written in place through a flat view
    cur = np.array(ansatz.start_candidates(r_block, rng), dtype=float, order="C")
    log_cur = ansatz.log_unnormalized(r_block, cur)
    redo = np.flatnonzero(~np.isfinite(log_cur))
    if redo.size:
        for j in redo:
            cur[j] = ansatz.initial_satellites(r_block[j], rng)
        log_cur[redo] = ansatz.log_unnormalized(r_block[redo], cur[redo])
        if not np.all(np.isfinite(log_cur)):
            raise EstimatorError("chain initialization produced zero-weight states")

    state = ansatz.chain_state(r_block, cur)
    sigma = np.full(m, settings.sigma)
    sigma_elems = np.repeat(sigma, d)  # sigma per moved coordinate
    accepted_window = np.zeros(m)
    accepted_meas = np.zeros(m)
    # the moved coordinates are read and written through a flat view of the
    # satellites: coordinate i of satellite j of chain c is element (c S + j) d + i
    cur_1d = cur.reshape(-1)
    first = ((np.arange(m) * (n_sat * d))[:, None] + np.arange(d)).reshape(-1)  # satellite 0
    kept = np.empty((settings.samples, m, n_sat, d))
    k_out = 0
    chunk_steps = max(1, _VARIATE_BYTES // (8 * (d + 2) * m))  # steps per variate draw

    with np.errstate(invalid="ignore"):
        for t in range(total_steps):
            i = t % chunk_steps
            if i == 0:
                n = min(chunk_steps, total_steps - t)
                sat_idx = rng.integers(n_sat, size=(n, m))
                normals = rng.standard_normal((n, m, d)).reshape(n, m * d)
                log_unifs = np.log(rng.random((n, m)))
            # the proposal is made in place and undone where it is rejected
            k = sat_idx[i]
            elems = first + np.repeat(k * d, d)
            old = cur_1d[elems]
            new = old + sigma_elems * normals[i]
            cur_1d[elems] = new
            log_new = ansatz.log_unnormalized(
                r_block, cur, moved=(k, old.reshape(m, d), log_cur, state)
            )
            accept = log_unifs[i] < (log_new - log_cur)
            cur_1d[elems] = np.where(np.repeat(accept, d), new, old)
            log_cur = np.where(accept, log_new, log_cur)
            if state is not None:
                state.commit(accept)

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
                    sigma_elems = np.repeat(sigma, d)
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
            start,
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
