"""Span tracing installed from outside the package.

The tracer replaces public functions at the module attribute their caller
looks up (``corrsearch.functionals.run_conditional_batch`` is what
``conditional_moments`` calls), and family methods on the class, so the
package itself is left unchanged.  Each wrapper records name, start, end,
parent span, thread and a small ``info`` dict taken from the call.

Spans opened on a thread with an empty stack (the block thread pool of the
sampler) are parented to the innermost active *sharing* span, which is the
running ``run_conditional_batch``; calls are closed-loop, so at most one
batch is active at a time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import corrsearch.ansatz
import corrsearch.cli
import corrsearch.functionals
import corrsearch.optimizer
import corrsearch.sampler


@dataclass
class Span:
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    info: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `install` wraps, `uninstall` restores.

    Spans are recorded into parallel lists of plain numbers rather than one
    object each: a traced run opens about a million spans, and that many
    container objects would slow the program through the cyclic garbage
    collector.  `spans()` builds the Span objects afterwards.
    """

    def __init__(self):
        self._names: list[str] = []
        self._parents: list[int | None] = []
        self._threads: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._infos: list[object] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._shared_parent: int | None = None
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._names)

    def spans(self) -> list[Span]:
        return [
            Span(*fields)
            for fields in zip(
                self._names, self._parents, self._threads, self._starts, self._ends,
                self._infos,
            )
        ]

    def wrap(self, name, fn, info=None, shares=False):
        """Traced version of fn.  info(args, kwargs, result) is stored with
        the span; keep it a plain number for spans opened per kernel step."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._shared_parent
            with self._lock:
                index = len(self._names)
                self._names.append(name)
                self._parents.append(parent)
                self._threads.append(threading.get_ident())
                self._starts.append(0.0)
                self._ends.append(0.0)
                self._infos.append(None)
            stack.append(index)
            if shares:
                outer_shared, self._shared_parent = self._shared_parent, index
            self._starts[index] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._ends[index] = time.perf_counter()
                stack.pop()
                if shares:
                    self._shared_parent = outer_shared
            if info is not None:
                self._infos[index] = info(args, kwargs, result)
            return result

        return traced

    def install(self, owner, attr: str, name: str, info=None, shares=False):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, info, shares))
        self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def _batch_info(args, kwargs, result):
    ansatz, r_points, settings = args[0], args[1], args[2]
    return {
        "chains": int(len(r_points)) * settings.walkers,
        "steps": settings.burn_in + settings.samples * settings.thinning,
        "samples": settings.samples,
        "n_sat": ansatz.n_satellites,
        "dim": ansatz.dim,
        "terms": pair_terms(ansatz),
        "acceptance": float(result.acceptance.mean()),
        "sigma_final": float(result.sigma_final.mean()),
    }


def _chains_info(args, kwargs, result):
    return result.size


def _gamma_info(args, kwargs, result):
    settings = args[2] if len(args) > 2 else kwargs["settings"]
    steps = settings.burn_in + settings.samples * settings.thinning
    chains = settings.conditioning_points * settings.walkers
    return {
        "stderr": float(result.stderr),
        "chain_steps": chains * steps if result.method == "mc" else 0,
    }


def install_estimator_log(tracer: Tracer):
    """Only the search's estimator calls: about a dozen spans a second."""
    tracer.install(corrsearch.optimizer, "gamma_correlation", "functionals.gamma_correlation", _gamma_info)


def pair_terms(ansatz) -> int:
    """E_H evaluations per chain in one log_unnormalized call."""
    n_sat = ansatz.n_satellites
    terms = n_sat if getattr(ansatz, "gamma", 1.0) > 0.0 else 0
    if getattr(ansatz, "beta", 0.0) > 0.0 and n_sat >= 2:
        terms += n_sat * (n_sat - 1) // 2
    return terms


def install_all(tracer: Tracer):
    """Wrap every boundary the per-layer metrics read."""
    cli, functionals = corrsearch.cli, corrsearch.functionals
    optimizer, sampler = corrsearch.optimizer, corrsearch.sampler
    tracer.install(cli, "load_config", "config.load_config")
    tracer.install(cli, "save_record", "records.save_record")
    tracer.install(cli, "save_trace", "records.save_trace")
    tracer.install(cli, "total_energy", "functionals.total_energy")
    tracer.install(cli, "outer_minimize", "optimizer.outer_minimize")
    for module in (functionals, optimizer):
        tracer.install(module, "gamma_correlation", "functionals.gamma_correlation", _gamma_info)
        tracer.install(module, "weizsacker_term", "functionals.weizsacker_term")
        tracer.install(module, "default_grid", "domain.default_grid")
        tracer.install(module, "external_energy", "domain.external_energy")
    tracer.install(
        functionals, "run_conditional_batch", "sampler.run_conditional_batch", _batch_info,
        shares=True,
    )
    tracer.install(optimizer, "inner_minimize", "optimizer.inner_minimize")
    tracer.install(optimizer, "fresh_seed", "sampler.fresh_seed")
    tracer.install(sampler, "substream", "sampler.substream")
    family = corrsearch.ansatz.PairwiseBiparametric
    tracer.install(family, "log_unnormalized", "ansatz.log_unnormalized", _chains_info)
    tracer.install(family, "initial_satellites", "ansatz.initial_satellites")
    tracer.install(family, "score", "ansatz.score")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTree:
    """Index over a finished span list: children, roots and self time."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            if span.parent is not None:
                self.children[span.parent].append(i)
        self._root: dict[int, int] = {}

    def root(self, i: int) -> int:
        path = []
        while i not in self._root and self.spans[i].parent is not None:
            path.append(i)
            i = self.spans[i].parent
        top = self._root.get(i, i)
        for j in path + [i]:
            self._root[j] = top
        return top

    def under(self, roots) -> list[int]:
        """Indices of every span whose root is in roots."""
        roots = set(roots)
        return [i for i in range(len(self.spans)) if self.root(i) in roots]

    def self_time(self, i: int, child_names=None) -> float:
        span = self.spans[i]
        kids = [
            (max(self.spans[c].start, span.start), min(self.spans[c].end, span.end))
            for c in self.children.get(i, ())
            if child_names is None or self.spans[c].name in child_names
        ]
        return span.duration - _union_length(kids)


ANSATZ_CHILDREN = {"ansatz.log_unnormalized", "ansatz.initial_satellites", "ansatz.score"}
OPTIMIZER_SPANS = ("optimizer.outer_minimize", "optimizer.inner_minimize")


def counts(tree: SpanTree, indices) -> dict:
    """Counts that depend on the inputs only and must repeat exactly.

    chain_steps and pair_evals are computed from the sampler settings seen
    at each batch; the *_observed values count the same work from the
    log_unnormalized spans the kernel opened, as a cross-check.
    """
    spans = tree.spans
    out = defaultdict(int)
    for i in indices:
        span = spans[i]
        out[span.name + ".calls"] += 1
        if span.name == "sampler.run_conditional_batch":
            info = span.info
            out["chain_steps"] += info["chains"] * info["steps"]
            out["pair_evals"] += info["chains"] * (info["steps"] + 1) * info["terms"]
            out["kernel_chain_calls"] += info["chains"] * (info["steps"] + 1)
        elif span.name == "ansatz.log_unnormalized":
            parent = spans[span.parent] if span.parent is not None else None
            if parent is not None and parent.name == "sampler.run_conditional_batch":
                out["kernel_chain_calls_observed"] += span.info
                out["pair_evals_observed"] += span.info * parent.info["terms"]
    return dict(out)


def layer_metrics(tree: SpanTree, indices) -> dict:
    """Per-layer metric values over the given spans (values only, no units)."""
    spans = tree.spans
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in indices:
        by_name[spans[i].name].append(i)

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    c = counts(tree, indices)
    batches = by_name.get("sampler.run_conditional_batch", [])
    batch_s = total("sampler.run_conditional_batch")
    chain_steps = c.get("chain_steps", 0)
    direct_child_s = sum(
        spans[k].duration for b in batches for k in tree.children.get(b, ())
    )
    # the kernel's calls; initial_satellites' one-chain probes count there
    kernel = [
        k for b in batches for k in tree.children.get(b, ())
        if spans[k].name == "ansatz.log_unnormalized"
    ]
    log_calls = len(kernel)
    log_s = sum(spans[k].duration for k in kernel)
    log_chains = sum(spans[k].info for k in kernel)
    n_gamma = calls("functionals.gamma_correlation")
    stderrs = [spans[i].info["stderr"] for i in by_name.get("functionals.gamma_correlation", ())]

    # chains per sampler block; without a block size the batch is one block
    chunk = getattr(corrsearch.sampler, "_CHUNK", None)

    def block_mb(b, bytes_per_chain):
        info = spans[b].info
        return min(info["chains"], chunk or info["chains"]) * bytes_per_chain(info) / 1e6

    kept_mb = max(
        (block_mb(b, lambda i: i["samples"] * i["n_sat"] * i["dim"] * 8) for b in batches),
        default=0.0,
    )
    # per chain and step: one int64 satellite index, d normals, one uniform
    variate_mb = max(
        (block_mb(b, lambda i: i["steps"] * (i["dim"] + 2) * 8) for b in batches),
        default=0.0,
    )

    def mean_info(key):
        vals = [spans[b].info[key] for b in batches]
        return sum(vals) / len(vals) if vals else 0.0

    fresh = calls("sampler.fresh_seed")
    gamma_in_optimizer = sum(
        1 for i in by_name.get("functionals.gamma_correlation", ())
        if spans[i].parent is not None
        and spans[spans[i].parent].name == "optimizer.inner_minimize"
    )
    return {
        "sampler.ns_per_chain_step": 1e9 * batch_s / chain_steps if chain_steps else 0.0,
        "sampler.self_s": sum(tree.self_time(b, ANSATZ_CHILDREN) for b in batches),
        "sampler.chain_init_s": total("sampler.substream") + total("ansatz.initial_satellites"),
        "sampler.substream.calls": calls("sampler.substream"),
        "sampler.chain_steps": chain_steps,
        "sampler.acceptance": mean_info("acceptance"),
        "sampler.sigma_final": mean_info("sigma_final"),
        "sampler.kept_mb": kept_mb,
        "sampler.variate_mb": variate_mb,
        "sampler.thread_overlap": direct_child_s / batch_s if batch_s else 0.0,
        "ansatz.log_unnormalized.calls": log_calls,
        "ansatz.log_unnormalized.us_per_call": (
            1e6 * log_s / log_calls if log_calls else 0.0
        ),
        "ansatz.log_unnormalized.chains_per_call": log_chains / log_calls if log_calls else 0.0,
        "ansatz.pair_evals": c.get("pair_evals", 0),
        "ansatz.initial_satellites.calls": calls("ansatz.initial_satellites"),
        "ansatz.initial_satellites.self_s": sum(
            tree.self_time(i) for i in by_name.get("ansatz.initial_satellites", ())
        ),
        "ansatz.score.s": total("ansatz.score"),
        "functionals.gamma_correlation.calls": n_gamma,
        "functionals.gamma_correlation.s_per_call": (
            total("functionals.gamma_correlation") / n_gamma if n_gamma else 0.0
        ),
        "functionals.total_stderr": sum(stderrs) / len(stderrs) if stderrs else 0.0,
        "functionals.weizsacker_term.s": total("functionals.weizsacker_term"),
        "domain.default_grid.s": total("domain.default_grid"),
        "domain.external_energy.s": total("domain.external_energy"),
        "optimizer.outer_evals": calls("optimizer.inner_minimize"),
        "optimizer.inner_evals": gamma_in_optimizer - fresh,
        "optimizer.fresh_evals": fresh,
        "optimizer.self_s": sum(
            tree.self_time(i) for name in OPTIMIZER_SPANS for i in by_name.get(name, ())
        ),
        "config.load_config.s": total("config.load_config"),
        "records.save_record.s": total("records.save_record"),
    }
