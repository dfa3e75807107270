"""Metropolis sampling of satellite configurations from f(. | r).

One step loop advances every chain of a batch in lockstep.  Step t
displaces satellite k = t mod S of every chain by a uniform step and
accepts with probability min(1, f~'/f~): the satellites move in turn, as
Metropolis et al. (1953) moved "each of the particles in succession".
Each single-satellite update leaves f(. | r) invariant, so their cyclic
composition does too (deterministic-scan Metropolis-within-Gibbs).
Proposals with f~ = 0 (outside the support, or at a coincidence) are
always rejected.  The batch stores
its satellites, conditioning points, step variates and kept samples with
the chain axis last ((S, d, m), (d, m), (steps, d, m), (kept, S, d, m)),
so every per-step operation runs one long loop over chains; families and
observables get (m, S, d) and (m, d) views of the store.  Each proposal
is evaluated with one `log_unnormalized` call that carries the move as a
hint (moved satellite, its new position, the current log f~ and the
family's chain state), so a family can add only the terms that
involve the moved satellite; that call is the only one a step makes.
Every step reuses one set of (d, m) and (m,) buffers: the moved
coordinates new (old plus the step) and the log f~ change; the current
log f~ is updated in place where a move is accepted.  The steps,
sigma times the step variates, are multiplied out one window of steps
at a time into one buffer of at most _WINDOW_BYTES, or into new when a
window is one step.  sigma changes only at an adaptation, every
_TUNE_INTERVAL burn-in steps, so a window, whose length divides
_TUNE_INTERVAL and which starts at each multiple of its length and at
each step-chunk's start, always sees one sigma.  Each step's acceptance
mask is a row of a ring of _TUNE_INTERVAL masks, summed at each
step-size adaptation and every _TUNE_INTERVAL measured steps, which
gives the counts a per-step sum would.  The loop binds its numpy calls
once per batch and passes their outputs positionally.  The store
always holds the chains' current state, and a proposal never enters it:
the hinted call gets the store's view, and a family that evaluates a
proposal in full builds it with `ConditionalAnsatz.proposal`.  old is
the store's row of satellite k, the hint's k is that int, and accepted
moves are put into the row and into the current log f~ with
`np.putmask`, the row's mask a (d, m) broadcast view of the step's
acceptance row, so no step gathers or scatters through indices.
The chain state is the family's per-chain cache (for `pairwise`: rho(r),
the conditioning and satellite pair terms of the current state, and its
hinted evaluator with that evaluator's buffers).  The family builds it
once per batch from the final starts, and with more than one satellite
the sampler commits each step's move into it, as k and the acceptance
row.

Randomness discipline: every stream of a run is a slot of one tree,
derived from the run's one seed by `substream`, a counter-based seed
split keyed by a namespace tag and, below it, an index.  This module
holds every tag and every accessor, and no other module calls
`substream`, so two streams are disjoint by construction:

- chain blocks, (_NS_CHAIN, first chain index): each batch's starts and
  step variates, as below;
- conditioning points, (_NS_CONDITIONING,): `conditioning_rng`, the
  estimator's draws from rho/N;
- fresh seed, (_NS_FRESH, 0): `fresh_seed`, the seed of the one
  re-evaluation of a search's winner;
- CRN seed, (_NS_CRN,): `crn_seed`, the seed that every estimate of an
  inner search shares (common random numbers);
- condition probes, (_NS_PROBE,): `probe_rng`, the starting
  configurations of `check_conditions`' coincidence probes;
- grid restarts, (_NS_RESTART, k): `restart_rng`, the k-th random start
  of the oracle's representable grid search.

A derived seed roots a tree of its own, so a search's estimates and the
fresh re-evaluation draw their chain blocks and conditioning points from
the CRN and fresh seeds.  Chains are split into blocks of a fixed `_CHUNK`
chains, and each block owns one generator, the slot of the seed and the
block's first chain index.  Blocks are stream units only.  A block draws all its start candidates in
one call, then redraws, in chain order, the starts of its chains whose
candidate has f~ = 0, and then draws its share of the step variates one
step-chunk at a time, whatever the accept/reject outcomes: the chunk's
steps, then its acceptance uniforms.  No satellite index is drawn, since
the step's k is t mod S.  The step-chunk length comes from the batch's
chain count and a fixed byte budget (`_VARIATE_BYTES`, counted at
8 (d + 2) bytes per chain-step, of which the variates take 8 (d + 1); the
count fixes the step-chunk length, and with it the order of each block's
draws), so a batch holds at most two step-chunks of variates, whatever
its size.
A step variate is uniform on [-sqrt 3, sqrt 3) in each coordinate, which
has unit variance, so sigma is the step's per-coordinate standard
deviation.  Any symmetric proposal leaves f(. | r) unchanged under the
acceptance rule, and a uniform costs the generator a fraction of what a
normal does (Metropolis et al. 1953 moved their particles uniformly in a
square).
Neither the blocks nor the step-chunks depend on whether the pool thread
runs, so batch results are bit-identical with and without it, and on
reruns.
When a run's variates fit one step-chunk, the process holds them,
read-only, with its generators' states before and after the draw.  The
next such run whose generators stand where the held draw's did after
their starts (same shape, seed and start draws) takes the held variates
and sets its generators to the after-states, which is bit for bit what
drawing them would give: the search calls of an `optimize` run share one
seed, so the run draws their variates once.  Any other run lets the
held draw go before it allocates its own variates, so the process never
holds more than one step-chunk besides those of the running batch.
A one-chain batch is keyed by its chain index and draws its start, then
all steps and uniforms, in one step-chunk as long as the run has at most
_VARIATE_BYTES / (8 (d + 2)) steps.

Kept samples stream through the caller's observables: the loop buffers
only the kept configurations of one step-chunk (at most ceil(chunk steps
/ thinning) of them), in two buffers used alternately, and each finished
buffer is passed to every observable, whose rows are stored.  The whole
run's kept satellites are never held at once; what a batch holds is one
row per kept sample of each observable, as wide as the rows it returns,
and none of an observable that returns None because it reduces the
samples as they stream.  The estimator's observables reduce both its
terms as they stream: the score returns None, and the pair term returns
only the columns of the chains its caller keeps, none by default, so an
estimator batch holds per-chain sums and no per-sample series.

Pool thread: a batch of more than one step-chunk starts one pool thread,
which draws step-chunk c + 1 and observes step-chunk c - 1 while the loop
steps chunk c.  Generator fills and large array loops release the GIL,
so that work overlaps the loop.  A one-step-chunk batch has nothing to
overlap: it draws its variates into one buffer and observes its kept
samples on the calling thread.  The calls and their order per stream are
the same either way.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ansatz import ConditionalAnsatz, EstimatorError

# the stream tree's namespace tags, one per kind of stream (see "Randomness
# discipline"); distinct integers keep the streams disjoint
_NS_CHAIN = 0x636861
_NS_CONDITIONING = 0x636F6E
_NS_FRESH = 0x667265
_NS_CRN = 0x63726E
_NS_PROBE = 0xC3
_NS_RESTART = 0xB8

# chains per random-stream block; fixed, so results never depend on the
# pool thread
_CHUNK = 1024
_VARIATE_BYTES = 4 * 2**20  # step variates of one step-chunk, at 8 (d + 2) bytes per chain-step
_TUNE_INTERVAL = 64  # burn-in steps between two step-size adaptations
_WINDOW_BYTES = 64 * 2**10  # sigma times the step variates of one window of steps
_STEP_HALF_WIDTH = np.sqrt(3.0)  # a uniform on [-sqrt 3, sqrt 3) has unit variance

# the variates of the last one-step-chunk batch, read-only, for the next batch
# whose generators start their step draws where that one's did:
# (shape and generator states before the draw, variates, states after it)
_held = None


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the (seed, key...) slot of the stream tree."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def conditioning_rng(seed: int) -> np.random.Generator:
    return substream(seed, _NS_CONDITIONING)


def fresh_seed(seed: int) -> int:
    """A reproducible but independent seed for post-search re-evaluation."""
    return int(substream(seed, _NS_FRESH, 0).integers(0, 2**63 - 1))


def crn_seed(seed: int) -> int:
    """The seed every estimate of one inner search shares (common random numbers)."""
    return int(substream(seed, _NS_CRN).integers(0, 2**63 - 1))


def probe_rng(seed: int) -> np.random.Generator:
    """The stream of the coincidence probes' starting configurations."""
    return substream(seed, _NS_PROBE)


def restart_rng(seed: int, k: int) -> np.random.Generator:
    """The stream of the grid search's k-th random starting table."""
    return substream(seed, _NS_RESTART, k)


@dataclass(frozen=True)
class SamplerSettings:
    """Knobs of the conditional sampler.

    sigma: initial per-coordinate standard deviation of a proposal step,
        which is uniform on [-sqrt(3) sigma, sqrt(3) sigma).
    burn_in: discarded leading steps; sigma adapts toward the acceptance
        window every _TUNE_INTERVAL of them, and only there.
    samples: kept samples per walker after thinning.
    thinning: keep every thinning-th step after burn-in.
    walkers: independent chains per conditioning point.
    conditioning_points: outer draws from rho/N per estimate.
    seed: non-negative master seed for the whole stream tree; a search's
        common-random-number and fresh seeds are derived from it too.
    """

    sigma: float = 0.5
    burn_in: int = 512
    samples: int = 256
    thinning: int = 4
    walkers: int = 1
    conditioning_points: int = 512
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
        if self.burn_in < 0 or min(self.samples, self.thinning, self.walkers) < 1:
            raise ValueError("burn_in must be >= 0 and samples, thinning, walkers >= 1")
        if self.conditioning_points < 1:
            raise ValueError("conditioning_points must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
            chains; sats is a chain-last view, so a reduction over it
            that must not depend on the layout takes a C-ordered copy.
            It is called once per step-chunk, on that chunk's c kept
            samples, in kept order, and never at the same time as another
            observation; it must treat each sample on its own unless it
            keeps its own running state.  A batch of more than one
            step-chunk runs it on its one pool thread, except on the last
            step-chunk.  An observable that returns None stores no rows:
            it reduces the samples itself, and its name is absent from
            the result's values.

    Returns:
        BatchResult whose values arrays have shape (K, M * walkers, ...):
        kept sample first, then the chains in point order (walkers of
        point 0, then walkers of point 1, ...).  Neither the chain blocks
        nor the step-chunks depend on whether the pool thread runs, so
        neither do the results.
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
    starts = np.concatenate(
        [ansatz.start_candidates(r[a:b], rng) for rng, (a, b) in zip(rngs, blocks)], dtype=float
    )
    log_cur = ansatz.log_unnormalized(r, starts)
    redo = np.flatnonzero(~np.isfinite(log_cur))
    if redo.size:
        for j in redo:
            starts[j] = ansatz.initial_satellites(r[j], rngs[j // _CHUNK])
        log_cur[redo] = ansatz.log_unnormalized(r[redo], starts[redo])
        if not np.all(np.isfinite(log_cur)):
            raise EstimatorError("chain initialization produced zero-weight states")

    state = ansatz.chain_state(r, starts)
    # the chains' satellites, chain axis last: coordinate i of satellite j of
    # chain c is sats[j, i, c], and families see the (m, S, d) view cur;
    # the conditioning points are stored chain-last too
    sats = np.ascontiguousarray(starts.transpose(1, 2, 0))
    cur = sats.transpose(2, 0, 1)
    r = np.ascontiguousarray(r.T).T
    sigma = np.full(m, settings.sigma)
    # sigma repeated over the coordinates, for the step: a (d, m) by (m,)
    # product broadcasts at several times the cost of an elementwise one
    sigma_rows = np.full((d, m), settings.sigma)
    accepted_meas = np.zeros(m)
    # acceptance masks of the last steps, row (t or t - burn_in) % _TUNE_INTERVAL:
    # summed at each adaptation and every _TUNE_INTERVAL measured steps
    accepts = np.empty((_TUNE_INTERVAL, m), bool)
    # every step reuses these buffers: the moved coordinates new and the log
    # f~ change.  The moved satellite's old coordinates are its store row,
    # and the acceptance row is read as a (d, m) mask through a broadcast
    # view of each ring row
    new = np.empty((d, m))
    gap = np.empty(m)
    olds = list(sats)
    new_t = new.T
    accepts_dm = list(np.broadcast_to(accepts[:, None], (_TUNE_INTERVAL, d, m)))
    # the step's calls, bound once; every ufunc takes its out positionally
    multiply, add, subtract, less = np.multiply, np.add, np.subtract, np.less
    putmask, log_unnormalized = np.putmask, ansatz.log_unnormalized
    burn_in, thinning = settings.burn_in, settings.thinning
    # one satellite's chain state holds no term that a move changes
    commit = state.commit if state is not None and n_sat > 1 else None
    # steps per variate draw; the batch holds at most two step-chunks of variates
    chunk_steps = min(total_steps, max(1, _VARIATE_BYTES // (8 * (d + 2) * m)))
    # sigma times the step variates, one window of steps at a time: sigma
    # changes only at an adaptation, so a window whose length divides
    # _TUNE_INTERVAL, cut at each step-chunk's end, never spans one.  A
    # window of one step is built in new itself, which then adds old in place
    window = next(
        w for w in range(_TUNE_INTERVAL, 0, -1)
        if _TUNE_INTERVAL % w == 0 and (w == 1 or 8 * d * m * w <= _WINDOW_BYTES)
    )
    steps = new[None] if window == 1 else np.empty((min(window, chunk_steps), d, m))
    chunk_starts = range(0, total_steps, chunk_steps)
    # two buffers of one step-chunk's kept samples, used alternately: the
    # loop fills one while the other is observed
    kept = np.empty((2, min(settings.samples, -(-chunk_steps // settings.thinning)), n_sat, d, m))
    values = {}

    def kept_before(t):
        return max(0, t - settings.burn_in) // settings.thinning

    def observe(c):
        lo = kept_before(chunk_starts[c])
        hi = kept_before(min(chunk_starts[c] + chunk_steps, total_steps))
        if hi == lo:
            return
        for name, fn in observables.items():
            rows = fn(r, kept[c % 2, : hi - lo].transpose(0, 3, 1, 2))
            if rows is None:
                continue
            rows = np.asarray(rows)
            if name not in values:
                values[name] = np.empty((settings.samples,) + rows.shape[1:], rows.dtype)
            values[name][lo:hi] = rows

    def draw(c):
        n = min(chunk_steps, total_steps - chunk_starts[c])
        unit_steps, log_unifs = drawn = [x[:n] for x in variates[c % len(variates)]]
        for rng, (a, b) in zip(rngs, blocks):
            unit_steps[:, :, a:b] = rng.uniform(
                -_STEP_HALF_WIDTH, _STEP_HALF_WIDTH, (n, b - a, d)
            ).transpose(0, 2, 1)
            np.log(rng.random((n, b - a)), out=log_unifs[:, a:b])
        return drawn

    def ahead(c):
        """What runs while step-chunk c steps: observe chunk c - 1, draw chunk c + 1."""
        if c > 0:
            observe(c - 1)
        return draw(c + 1) if c + 1 < len(chunk_starts) else None

    # a run whose variates fit one step-chunk takes the held draw if its
    # generators stand where that draw's did, and otherwise holds its own
    global _held
    one_chunk = chunk_steps == total_steps
    key = (m, d, total_steps, [g.bit_generator.state for g in rngs]) if one_chunk else None
    held = _held  # read once: another thread may replace it
    held = held if held is not None and held[0] == key else None
    _held = held  # a draw that does not match goes before this run allocates
    # the pool thread overlaps the loop when there is a next step-chunk to
    # draw; step-chunk c is drawn into variate buffer c % 2
    pool = None if one_chunk else ThreadPoolExecutor(1)
    variates = [] if held else [
        (np.empty((chunk_steps, d, m)), np.empty((chunk_steps, m))) for _ in range(2 if pool else 1)
    ]
    with pool or contextlib.nullcontext():
        if held is not None:
            drawn = held[1]
            for rng, after in zip(rngs, held[2]):
                rng.bit_generator.state = after
        else:
            drawn = draw(0)
            if key is not None:
                for x in drawn:
                    x.flags.writeable = False
                _held = (key, drawn, [g.bit_generator.state for g in rngs])
        for c, chunk_start in enumerate(chunk_starts):
            job = pool.submit(ahead, c) if pool else None
            unit_steps, log_unifs = drawn
            buf, n_kept, n = kept[c % 2], 0, len(unit_steps)
            with np.errstate(divide="ignore", invalid="ignore"):
                for i in range(n):
                    t = chunk_start + i
                    if i == 0 or t % window == 0:
                        # a window runs to the next multiple of its length
                        # or to the step-chunk's end, whichever comes first
                        w = min(window - t % window, n - i)
                        multiply(sigma_rows, unit_steps[i : i + w], steps[:w])
                        i0 = i
                    # every chain moves satellite k, in turn
                    k = t % n_sat
                    old = olds[k]
                    add(old, steps[i - i0], new)
                    log_new = log_unnormalized(r, cur, moved=(k, new_t, log_cur, state))
                    subtract(log_new, log_cur, gap)
                    row = (t if t < burn_in else t - burn_in) % _TUNE_INTERVAL
                    accept = accepts[row]
                    less(log_unifs[i], gap, accept)
                    # old is the store's row: new where accepted
                    putmask(old, accepts_dm[row], new)
                    putmask(log_cur, accept, log_new)
                    if commit is not None:
                        commit(k, accept)

                    if t < burn_in:
                        if row == _TUNE_INTERVAL - 1:
                            rate = accepts.sum(axis=0) / _TUNE_INTERVAL
                            sigma = np.where(rate > ACCEPTANCE_WINDOW[1], sigma * 1.25, sigma)
                            sigma = np.where(rate < ACCEPTANCE_WINDOW[0], sigma / 1.25, sigma)
                            sigma_rows[:] = sigma
                    else:
                        if row == _TUNE_INTERVAL - 1 or t == total_steps - 1:
                            accepted_meas += accepts[: row + 1].sum(axis=0)
                        if (t - burn_in) % thinning == thinning - 1:
                            buf[n_kept] = sats
                            n_kept += 1
            drawn = job.result() if pool else None
        observe(len(chunk_starts) - 1)

    acceptance = accepted_meas / (total_steps - settings.burn_in)
    return BatchResult(values=values, acceptance=acceptance, sigma_final=sigma)


# ---------------------------------------------------------------------------
# per-chain series
# ---------------------------------------------------------------------------


def batch_means_stderr(series: np.ndarray) -> float:
    """Standard error of the mean from 32 disjoint batch means (one per
    sample when the series is shorter)."""
    n = series.size
    n_batches = min(32, n)
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
