"""Metropolis sampling of satellite configurations from f(. | r).

One step loop advances every chain of a batch in lockstep.  Each step
displaces one uniformly chosen satellite per chain by a Gaussian step and
accepts with probability min(1, f~'/f~).  Proposals with f~ = 0 (outside
the support, or at a coincidence) are always rejected.  The proposal is
written into the batch's satellites in place, through a flat view of them
and the element indices of the moved coordinates, and evaluated with one
`log_unnormalized` call that carries the move as a hint (moved
satellite, its old position, the current log f~ and the family's chain
state), so a family can add only the terms that involve the moved
satellite; rejected moves are then undone.  The chain state is the
family's per-chain cache (for `pairwise`: rho(r), and the conditioning
and satellite pair terms of the current state).  The family fills it
once per batch from the final starts, and the sampler commits the
accepted moves into it after every step.

Randomness discipline: chains are split into blocks of a fixed `_CHUNK`
chains, and each block owns one generator derived from the master seed
and the block's first chain index through a counter-based seed split.
Blocks are stream units only.  A block draws all its start candidates in
one call, then redraws, in chain order, the starts of its chains whose
candidate has f~ = 0, and then draws its share of the step variates
(satellite index, Gaussian step, uniform) one step-chunk at a time,
whatever the accept/reject outcomes.  The step-chunk length comes from
the batch's chain count and a fixed byte budget (`_VARIATE_BYTES`), so a
batch holds at most two step-chunks of variates, whatever its size.
Neither the blocks nor the step-chunks depend on the worker count, so
batch results are bit-identical for any number of workers and on reruns.
A one-chain batch is keyed by its chain index and draws its start, then
all satellite indices, steps and uniforms, in one step-chunk as long as
the run has at most _VARIATE_BYTES / (8 (d + 2)) steps.

Kept samples stream through the caller's observables: the loop buffers
only the kept configurations of one step-chunk (at most ceil(chunk steps
/ thinning) of them), in two buffers used alternately, and each finished
buffer is passed to every observable, whose rows are stored.  The whole
run's kept satellites are never held at once; what a batch holds is one
row per kept sample of each observable.

Workers: with `workers` = 1 everything runs on the calling thread.  Any
larger value adds the same one pool thread, which draws step-chunk c + 1 and
observes step-chunk c - 1 while the loop steps chunk c.  Generator fills
and large array loops release the GIL, so that work overlaps the loop.
The calls and their order per stream are the same either way.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
from dataclasses import dataclass, replace

import numpy as np

from .ansatz import ConditionalAnsatz, EstimatorError

# namespace tags for seed splitting; distinct integers keep streams disjoint
_NS_CHAIN = 0x636861
_NS_CONDITIONING = 0x636F6E
_NS_FRESH = 0x667265

_CHUNK = 1024  # chains per random-stream block; fixed so results never depend on workers
_VARIATE_BYTES = 4 * 2**20  # step variates of one step-chunk: 8 (d + 2) bytes per chain-step


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
    workers: 1 runs a batch on the calling thread; any larger value adds
        one pool thread that draws the next step-chunk's variates and
        observes the last one's kept samples while the loop steps, so
        every value above 2 acts like 2.  It never changes a result.
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


def run_conditional_batch(
    ansatz: ConditionalAnsatz,
    r_points: np.ndarray,
    settings: SamplerSettings,
    observables: dict,
) -> BatchResult:
    """Sample satellites from f(. | r) for a batch of conditioning points.

    Args:
        r_points: (M, d) conditioning points; each spawns `walkers` chains.
        observables: name -> fn(r (m, d), sats (c, m, S, d)) returning one
            row per kept sample, shape (c, m, ...), for all m = M * walkers
            chains.  It is called on the c kept samples of one step-chunk
            at a time, in order, so it must treat each sample on its own;
            with workers > 1 it runs on the pool thread.

    Returns:
        BatchResult whose values arrays have shape (K, M * walkers, ...):
        kept sample first, then the chains in point order (walkers of
        point 0, then walkers of point 1, ...).  Neither the chain blocks
        nor the step-chunks depend on the worker count, so neither do the
        results.
    """
    r_points = np.asarray(r_points, dtype=float)
    n_points, d = r_points.shape
    m = n_points * settings.walkers
    r = np.repeat(r_points, settings.walkers, axis=0)
    n_sat = ansatz.n_satellites
    total_steps = settings.burn_in + settings.samples * settings.thinning

    # each block's stream is consumed in a fixed order: its start candidates,
    # then the redraws of its zero-weight starts in chain order, then its
    # share of the step variates one step-chunk at a time
    blocks = [(a, min(a + _CHUNK, m)) for a in range(0, m, _CHUNK)]
    rngs = [substream(settings.seed, _NS_CHAIN, a) for a, _ in blocks]
    # an own C-ordered array: moves are written in place through a flat view
    cur = np.concatenate(
        [ansatz.start_candidates(r[a:b], rng) for rng, (a, b) in zip(rngs, blocks)], dtype=float
    )
    log_cur = ansatz.log_unnormalized(r, cur)
    redo = np.flatnonzero(~np.isfinite(log_cur))
    if redo.size:
        for j in redo:
            cur[j] = ansatz.initial_satellites(r[j], rngs[j // _CHUNK])
        log_cur[redo] = ansatz.log_unnormalized(r[redo], cur[redo])
        if not np.all(np.isfinite(log_cur)):
            raise EstimatorError("chain initialization produced zero-weight states")

    state = ansatz.chain_state(r, cur)
    sigma = np.full(m, settings.sigma)
    sigma_elems = np.repeat(sigma, d)  # sigma per moved coordinate
    accepted_window = np.zeros(m)
    accepted_meas = np.zeros(m)
    # the moved coordinates are read and written through a flat view of the
    # satellites: coordinate i of satellite j of chain c is element (c S + j) d + i
    cur_1d = cur.reshape(-1)
    first = ((np.arange(m) * (n_sat * d))[:, None] + np.arange(d)).reshape(-1)  # satellite 0
    # steps per variate draw; the batch holds at most two step-chunks of variates
    chunk_steps = min(total_steps, max(1, _VARIATE_BYTES // (8 * (d + 2) * m)))
    chunk_starts = range(0, total_steps, chunk_steps)
    # two buffers of one step-chunk's kept samples, used alternately: the
    # loop fills one while the other is observed
    kept = np.empty((2, min(settings.samples, -(-chunk_steps // settings.thinning)), m, n_sat, d))
    values = {}

    def kept_before(t):
        return max(0, t - settings.burn_in) // settings.thinning

    def observe(c):
        lo = kept_before(chunk_starts[c])
        hi = kept_before(min(chunk_starts[c] + chunk_steps, total_steps))
        if hi == lo:
            return
        for name, fn in observables.items():
            rows = np.asarray(fn(r, kept[c % 2, : hi - lo]))
            if name not in values:
                values[name] = np.empty((settings.samples,) + rows.shape[1:], rows.dtype)
            values[name][lo:hi] = rows

    def draw(c):
        n = min(chunk_steps, total_steps - chunk_starts[c])
        sat_idx, normals, log_unifs = (x[:n] for x in variates[c % len(variates)])
        for rng, (a, b) in zip(rngs, blocks):
            sat_idx[:, a:b] = rng.integers(n_sat, size=(n, b - a))
            normals[:, a:b] = rng.standard_normal((n, b - a, d))
            np.log(rng.random((n, b - a)), out=log_unifs[:, a:b])
        return sat_idx, normals.reshape(n, m * d), log_unifs

    def ahead(c):
        """What runs while step-chunk c steps: observe chunk c - 1, draw chunk c + 1."""
        if c > 0:
            observe(c - 1)
        return draw(c + 1) if c + 1 < len(chunk_starts) else None

    pool = concurrent.futures.ThreadPoolExecutor(1) if settings.workers > 1 else None
    # step-chunk c is drawn into variate buffer c % 2; inline, chunk c + 1 is
    # drawn only once chunk c is stepped, so one buffer serves
    variates = [
        (
            np.empty((chunk_steps, m), np.int64),
            np.empty((chunk_steps, m, d)),
            np.empty((chunk_steps, m)),
        )
        for _ in range(min(2 if pool else 1, len(chunk_starts)))
    ]
    with pool or contextlib.nullcontext():
        drawn = draw(0)
        for c, chunk_start in enumerate(chunk_starts):
            job = pool.submit(ahead, c) if pool else None
            sat_idx, normals, log_unifs = drawn
            buf, n_kept = kept[c % 2], 0
            with np.errstate(invalid="ignore"):
                for i in range(len(sat_idx)):
                    t = chunk_start + i
                    # the proposal is made in place and undone where it is rejected
                    k = sat_idx[i]
                    elems = first + np.repeat(k * d, d)
                    old = cur_1d[elems]
                    new = old + sigma_elems * normals[i]
                    cur_1d[elems] = new
                    log_new = ansatz.log_unnormalized(
                        r, cur, moved=(k, old.reshape(m, d), log_cur, state)
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
                            buf[n_kept] = cur
                            n_kept += 1
            drawn = job.result() if pool else ahead(c)
        observe(len(chunk_starts) - 1)

    acceptance = accepted_meas / (total_steps - settings.burn_in)
    return BatchResult(values=values, acceptance=acceptance, sigma_final=sigma)


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
