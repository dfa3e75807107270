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
A one-chain block is keyed by its chain index and draws its start, then
all satellite indices, steps and uniforms, in one step-chunk as long as
the run has at most _VARIATE_BYTES / (8 (d + 2)) steps.

Kept samples stream through the caller's observables: a block buffers
only the kept configurations of the current step-chunk (at most
ceil(chunk steps / thinning) of them), and at the end of each step-chunk
it passes them to every observable and stores the rows it returns.  The
whole run's kept satellites are never held at once; what a block holds
is one row per kept sample of each observable.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from .ansatz import ConditionalAnsatz, EstimatorError

# namespace tags for seed splitting; distinct integers keep streams disjoint
_NS_CHAIN = 0x636861
_NS_CONDITIONING = 0x636F6E
_NS_FRESH = 0x667265

_CHUNK = 1024  # chains processed per block; fixed so results never depend on workers
_VARIATE_BYTES = 4 * 2**20  # step variates a block holds at once: 8 (d + 2) bytes per chain-step


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the (seed, key...) slot of the stream tree."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def conditioning_rng(seed: int) -> np.random.Generator:
    return substream(seed, _NS_CONDITIONING)


def fresh_seed(seed: int) -> int:
    """A reproducible but independent seed for post-search re-evaluation."""
    return int(substream(seed, _NS_FRESH, 0).integers(0, 2**63 - 1))


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
    tune_interval: burn-in steps between two step-size adaptations.
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
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
        if self.tune_interval < 1:
            raise ValueError("tune_interval must be >= 1")
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
    """Per-sample observations plus sampler diagnostics."""

    values: dict[str, np.ndarray]
    acceptance: np.ndarray
    sigma_final: np.ndarray


def _chain_block(ansatz, r_block, settings, first_chain, observables):
    """Advance one block of chains in lockstep and observe kept samples.

    r_block: (m, d) conditioning points, one per chain in the block.
    first_chain: global index of the block's first chain; it keys the
        block's stream.
    Returns the observations, name -> (K, m, ...), the acceptance and the
    final sigma of each chain.
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
    chunk_steps = max(1, _VARIATE_BYTES // (8 * (d + 2) * m))  # steps per variate draw
    # the kept samples of the current step-chunk, observed when it ends
    kept = np.empty((min(settings.samples, -(-chunk_steps // settings.thinning)), m, n_sat, d))
    n_kept = 0
    values = {}
    k_out = 0

    for chunk_start in range(0, total_steps, chunk_steps):
        n = min(chunk_steps, total_steps - chunk_start)
        sat_idx = rng.integers(n_sat, size=(n, m))
        normals = rng.standard_normal((n, m, d)).reshape(n, m * d)
        log_unifs = np.log(rng.random((n, m)))
        with np.errstate(invalid="ignore"):
            for i in range(n):
                t = chunk_start + i
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

                if t < settings.burn_in:
                    accepted_window += accept
                    if settings.tune and (t + 1) % settings.tune_interval == 0:
                        rate = accepted_window / settings.tune_interval
                        sigma = np.where(rate > ACCEPTANCE_WINDOW[1], sigma * 1.25, sigma)
                        sigma = np.where(rate < ACCEPTANCE_WINDOW[0], sigma / 1.25, sigma)
                        sigma_elems = np.repeat(sigma, d)
                        accepted_window[:] = 0.0
                else:
                    accepted_meas += accept
                    if (t - settings.burn_in) % settings.thinning == settings.thinning - 1:
                        kept[n_kept] = cur
                        n_kept += 1
        if n_kept:
            for name, fn in observables.items():
                rows = np.asarray(fn(r_block, kept[:n_kept]))
                if name not in values:
                    values[name] = np.empty((settings.samples,) + rows.shape[1:], rows.dtype)
                values[name][k_out:k_out + n_kept] = rows
            k_out += n_kept
            n_kept = 0

    meas_steps = total_steps - settings.burn_in
    acceptance = accepted_meas / meas_steps
    return values, acceptance, sigma


def run_conditional_batch(
    ansatz: ConditionalAnsatz,
    r_points: np.ndarray,
    settings: SamplerSettings,
    observables: dict,
) -> BatchResult:
    """Sample satellites from f(. | r) for a batch of conditioning points.

    Args:
        r_points: (M, d) conditioning points; each spawns `walkers` chains.
        observables: name -> fn(r_block (m, d), sats (c, m, S, d)) returning
            one row per kept sample, shape (c, m, ...).  It is called on
            the c kept samples of one step-chunk at a time, in order, so it
            must treat each sample on its own.

    Returns:
        BatchResult whose values arrays have shape (K, M * walkers, ...):
        kept sample first, then the chains in point order (walkers of
        point 0, then walkers of point 1, ...).  Reductions happen after
        reassembly, so the outcome does not depend on the chain blocks,
        the step-chunks or the worker count.
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
            observables,
        )

    if settings.workers > 1 and len(blocks) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=settings.workers) as pool:
            results = list(pool.map(do_block, blocks))
    else:
        results = [do_block(b) for b in blocks]

    # observations are (K, m, ...), so blocks join on the chain axis 1
    values = {
        name: np.concatenate([res[0][name] for res in results], axis=1)
        for name in observables
    }
    acceptance = np.concatenate([res[1] for res in results])
    sigma_final = np.concatenate([res[2] for res in results])
    return BatchResult(values=values, acceptance=acceptance, sigma_final=sigma_final)


# ---------------------------------------------------------------------------
# per-chain series
# ---------------------------------------------------------------------------


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
