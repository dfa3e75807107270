"""Nested variational optimization.  All of a run's streams come from
its one seed, `SamplerSettings.seed`.

Inner loop: Nelder-Mead over the ansatz couplings (gamma, beta) at fixed
density, minimizing the sampled correlation functional.  Every
evaluation inside one search reuses one seed derived from the run's
(common random numbers), so the search sees a deterministic surface.
Because that surface is deterministic, each search keeps its estimates
keyed by the couplings that act on f, and a repeated point costs nothing:
a Nelder-Mead contraction that returns to a vertex, or at N = 2 (where
beta is inert) any point that differs only in beta.

Outer loop: golden-section over the single density parameter zeta,
minimizing Weizsacker + external + inner-optimal Gamma.

Only the winner of a run is re-evaluated on a fresh seed
(`fresh_estimate`), which removes the selection bias of the search that
chose it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ansatz import ConditionalAnsatz, build_ansatz, family_class
from .domain import Density, ExternalPotential, SpaceSpec, default_grid, external_energy
from .functionals import (
    EnergyBreakdown,
    GammaEstimate,
    gamma_correlation,
    weizsacker_term,
)
from .sampler import SamplerSettings, fresh_seed, substream

_NS_CRN = 0x63726E


@dataclass(frozen=True)
class OptimizeSpec:
    """Bounds and budgets of the nested search, one field per [optimize]
    key: the golden-section bracket 0 < zeta_min < zeta_max, the
    Nelder-Mead box (gamma_min > 0, beta_min >= 0; equal bounds fold a
    coupling to one value) and its finite start, the evaluation budgets
    and the tolerance of both searches."""

    zeta_min: float = 1.0
    zeta_max: float = 2.5
    gamma_min: float = 0.05
    gamma_max: float = 50.0
    beta_min: float = 0.0
    beta_max: float = 50.0
    gamma_init: float = 1.0
    beta_init: float = 1.0
    max_iter_inner: int = 60
    max_iter_outer: int = 40
    tol: float = 1e-3

    def __post_init__(self):
        for name in ("zeta", "gamma", "beta"):
            lo, hi = getattr(self, f"{name}_min"), getattr(self, f"{name}_max")
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"{name}_min and {name}_max must be finite: {(lo, hi)}")
            if not lo <= hi:
                raise ValueError(f"{name}_min must not exceed {name}_max: {(lo, hi)}")
        # golden section needs a bracket of positive scales; equal gamma or
        # beta bounds fold to one value
        if not 0.0 < self.zeta_min < self.zeta_max:
            raise ValueError(
                f"zeta_min must be positive and below zeta_max: {(self.zeta_min, self.zeta_max)}"
            )
        # pairwise needs gamma > 0: only then does f vanish where a satellite meets r
        if self.gamma_min <= 0.0 or self.beta_min < 0.0:
            raise ValueError(
                "gamma_min and beta_min must be positive and non-negative, respectively: "
                f"{(self.gamma_min, self.beta_min)}"
            )
        if not (np.isfinite(self.gamma_init) and np.isfinite(self.beta_init)):
            raise ValueError(
                f"gamma_init and beta_init must be finite: {(self.gamma_init, self.beta_init)}"
            )
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter_inner < 1 or self.max_iter_outer < 1:
            raise ValueError(
                "max_iter_inner and max_iter_outer must be >= 1: "
                f"{(self.max_iter_inner, self.max_iter_outer)}"
            )


@dataclass
class TraceEntry:
    iteration: int
    zeta: float
    gamma: float
    beta: float
    energy: float
    stderr: float


# ---------------------------------------------------------------------------
# generic minimizers
# ---------------------------------------------------------------------------


def _fold_into_bounds(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Reflect out-of-bounds coordinates back inside [lo, hi]."""
    span = hi - lo
    out = np.array(x, dtype=float)
    free = span > 0.0
    out[~free] = lo[~free]
    t = np.mod(out[free] - lo[free], 2.0 * span[free])
    out[free] = lo[free] + np.where(t <= span[free], t, 2.0 * span[free] - t)
    return out


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    n_eval: int
    converged: bool


def nelder_mead(
    fn,
    x0: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray],
    tol: float = 1e-3,
    max_eval: int = 200,
) -> MinimizeResult:
    """Downhill simplex with reflection into the bounds box.

    Exact value ties are broken lexicographically on the parameter
    vector, which keeps runs reproducible on flat regions.  Terminates
    when the simplex value spread falls below tol or the evaluation
    budget is exhausted.  The initial simplex is always evaluated; no
    other evaluation is made past max_eval, and a search stopped inside
    an iteration returns the best of the simplex and of the points that
    iteration evaluated.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    x0 = _fold_into_bounds(np.asarray(x0, dtype=float), lo, hi)
    ndim = x0.size
    evals: list = []
    budget = max(max_eval, ndim + 1)

    def evaluate(x):
        if len(evals) >= budget:
            raise _BudgetSpent
        x = _fold_into_bounds(x, lo, hi)
        v = float(fn(x))
        entry = (tuple(x), v)
        evals.append(entry)
        return entry

    simplex = [evaluate(x0)]
    for k in range(ndim):
        step = np.zeros(ndim)
        width = hi[k] - lo[k]
        step[k] = 0.125 * (width if width > 0 else 1.0)  # an eighth of the box
        if x0[k] + step[k] > hi[k]:
            step[k] = -step[k]
        simplex.append(evaluate(x0 + step))

    def sort_key(entry):
        return (entry[1], entry[0])

    converged = False
    try:
        while len(evals) < max_eval:
            simplex.sort(key=sort_key)
            spread = simplex[-1][1] - simplex[0][1]
            if spread < tol:
                converged = True
                break
            start = len(evals)
            best, worst = simplex[0], simplex[-1]
            centroid = np.mean([np.asarray(e[0]) for e in simplex[:-1]], axis=0)
            xr, fr = evaluate(centroid + (centroid - np.asarray(worst[0])))
            if fr < best[1]:
                xe, fe = evaluate(centroid + 2.0 * (centroid - np.asarray(worst[0])))
                simplex[-1] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < simplex[-2][1]:
                simplex[-1] = (xr, fr)
            else:
                xc, fc = evaluate(centroid + 0.5 * (np.asarray(worst[0]) - centroid))
                if fc < worst[1]:
                    simplex[-1] = (xc, fc)
                else:
                    # shrink toward the best vertex
                    xb = np.asarray(best[0])
                    simplex = [best] + [
                        evaluate(xb + 0.5 * (np.asarray(e[0]) - xb)) for e in simplex[1:]
                    ]
    except _BudgetSpent:
        # stopped inside an iteration: the points it evaluated compete too
        simplex += evals[start:]

    simplex.sort(key=sort_key)
    x_best, f_best = simplex[0]
    return MinimizeResult(
        x=np.asarray(x_best), value=f_best, n_eval=len(evals), converged=converged
    )


class _BudgetSpent(Exception):
    """Raised by nelder_mead's evaluate instead of passing max_eval."""


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(
    fn, lo: float, hi: float, tol: float = 1e-3, max_eval: int = 60
) -> MinimizeResult:
    """Golden-section search for a unimodal scalar function on [lo, hi]."""
    if not hi > lo:
        raise ValueError("empty bracket")
    evals: list = []

    def evaluate(x):
        v = float(fn(x))
        evals.append(((x,), v))
        return v

    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = evaluate(x1), evaluate(x2)
    converged = False
    while len(evals) < max_eval:
        if b - a < tol:
            converged = True
            break
        if f1 < f2 or (f1 == f2 and x1 < x2):
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = evaluate(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = evaluate(x2)
    xs, vs = zip(*evals)
    best = int(np.lexsort((np.asarray([x[0] for x in xs]), np.asarray(vs)))[0])
    return MinimizeResult(
        x=np.asarray(xs[best]), value=vs[best], n_eval=len(evals), converged=converged
    )


# ---------------------------------------------------------------------------
# inner search over ansatz couplings
# ---------------------------------------------------------------------------


@dataclass
class InnerResult:
    gamma: float
    beta: float
    estimate: GammaEstimate  # the search's estimate at the winner (CRN seed)
    trace: list[TraceEntry]
    n_eval: int
    converged: bool
    estimator_calls: int     # gamma_correlation calls made
    # Nelder-Mead converged on its initial simplex: the search never moved,
    # so gamma and beta are its starting vertex, not a located optimum
    first_simplex: bool


def inner_minimize(
    density: Density,
    space: SpaceSpec,
    family: str,
    settings: SamplerSettings,
    opt: OptimizeSpec,
    method: str = "auto",
) -> InnerResult:
    """Minimize Gamma over the family's couplings at fixed density.

    A family with couplings searches (gamma, beta) with Nelder-Mead; the
    parameter-free families evaluate once and report nan couplings.  A
    search point whose acting couplings
    (`ConditionalAnsatz.acting_couplings`) were already evaluated reuses
    that estimate: it still adds a trace row and counts toward the
    evaluation budget, but samples nothing.  The returned estimate is the
    search's own at the winner; `fresh_estimate` re-evaluates it.
    """
    crn_seed = int(substream(settings.seed, _NS_CRN).integers(0, 2**63 - 1))
    search_settings = replace(settings, seed=crn_seed)
    memo: dict[tuple[float, ...], GammaEstimate] = {}

    def search_estimate(g, b) -> GammaEstimate:
        """The search's estimate at (g, b).  Every search call has the same
        settings, so the estimate depends only on the acting couplings."""
        ans = build_ansatz(family, density, space, g, b)
        key = ans.acting_couplings
        if key not in memo:
            memo[key] = gamma_correlation(density, ans, search_settings, method)
        return memo[key]

    trace: list[TraceEntry] = []

    def search_fn(x):
        g, b = float(x[0]), float(x[1])
        est = search_estimate(g, b)
        trace.append(TraceEntry(len(trace), float("nan"), g, b, est.value, est.stderr))
        return est.value

    if family_class(family).couplings:
        lo = np.array([opt.gamma_min, opt.beta_min])
        hi = np.array([opt.gamma_max, opt.beta_max])
        res = nelder_mead(
            search_fn,
            np.array([opt.gamma_init, opt.beta_init]),
            (lo, hi),
            tol=opt.tol,
            max_eval=opt.max_iter_inner,
        )
        first_simplex = res.converged and res.n_eval == res.x.size + 1
    else:
        # one evaluation at nan couplings, which build_ansatz does not pass on
        x = np.full(2, np.nan)
        res = MinimizeResult(x=x, value=search_fn(x), n_eval=1, converged=True)
        first_simplex = False
    g_best, b_best = float(res.x[0]), float(res.x[1])
    return InnerResult(
        gamma=g_best,
        beta=b_best,
        estimate=search_estimate(g_best, b_best),
        trace=trace,
        n_eval=res.n_eval,
        converged=res.converged,
        estimator_calls=len(memo),
        first_simplex=first_simplex,
    )


def fresh_estimate(
    density: Density,
    ansatz: ConditionalAnsatz,
    settings: SamplerSettings,
    method: str = "auto",
) -> GammaEstimate:
    """Gamma of a search's winner on the fresh seed of settings.seed (the
    run's one seed), so the value carries no selection bias from the search."""
    eval_settings = replace(settings, seed=fresh_seed(settings.seed))
    return gamma_correlation(density, ansatz, eval_settings, method)


# ---------------------------------------------------------------------------
# outer search over the density parameter
# ---------------------------------------------------------------------------


@dataclass
class OuterResult:
    zeta: float
    gamma: float
    beta: float
    energy: EnergyBreakdown
    trace: list[TraceEntry]
    n_eval: int
    converged: bool
    estimator_calls: int  # gamma_correlation calls: every inner search and the fresh one
    inner_first_simplex: int  # inner searches that converged on their initial simplex


def outer_minimize(
    make_density,
    potential: ExternalPotential | None,
    space: SpaceSpec,
    family: str,
    settings: SamplerSettings,
    opt: OptimizeSpec,
    method: str = "auto",
) -> OuterResult:
    """Golden-section over zeta of [Weizsacker + external + min_f Gamma].

    make_density maps zeta to a Density.  All of the run's streams come
    from settings.seed: inner searches run with common random numbers
    derived from it, so the outer objective is a deterministic function of
    zeta during the search; the winner alone is re-evaluated on its fresh
    seed and assembled with the Weizsacker and external terms computed
    when its zeta was evaluated.
    """
    trace: list[TraceEntry] = []
    # zeta -> (density, Weizsacker, external, inner result), for the winner
    evaluated: dict[float, tuple[Density, float, float, InnerResult]] = {}
    calls = first_simplex = 0

    def objective(zeta: float) -> float:
        nonlocal calls, first_simplex
        zeta = float(zeta)
        density = make_density(zeta)
        grid = default_grid(density)
        w = weizsacker_term(density, grid)
        ext = external_energy(density, potential, grid) if potential else 0.0
        inner = inner_minimize(density, space, family, settings, opt, method)
        evaluated[zeta] = (density, w, ext, inner)
        calls += inner.estimator_calls
        first_simplex += inner.first_simplex
        total = w + ext + inner.estimate.value
        trace.append(
            TraceEntry(
                len(trace), zeta, inner.gamma, inner.beta, total, inner.estimate.stderr
            )
        )
        return total

    res = golden_section(
        objective,
        opt.zeta_min,
        opt.zeta_max,
        tol=opt.tol,
        max_eval=opt.max_iter_outer,
    )
    zeta_best = float(res.x[0])
    density, w, ext, inner = evaluated[zeta_best]
    ansatz = build_ansatz(family, density, space, inner.gamma, inner.beta)
    fresh = fresh_estimate(density, ansatz, settings, method)
    return OuterResult(
        zeta=zeta_best,
        gamma=inner.gamma,
        beta=inner.beta,
        energy=EnergyBreakdown.assemble(w, fresh, ext),
        trace=trace,
        n_eval=res.n_eval,
        converged=res.converged,
        estimator_calls=calls + 1,
        inner_first_simplex=first_simplex,
    )
