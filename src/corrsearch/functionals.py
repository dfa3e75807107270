"""Energy functionals of (rho, f): Weizsacker, Fisher, Coulomb, totals.

The internal-energy decomposition used throughout is

    T + V_ee = (1/8) int |grad rho|^2 / rho
             + (1/8) int rho(r) int |grad_r f|^2 / f     (nonlocal Fisher)
             + P(N)  int rho(r) E_f[ w(r, r') ]          (Coulomb)

with r' the first satellite and P(N) = (N-1)/2 the pair-counting
prefactor: int rho(r) E_f[w] dr is N times the mean of one pair term, and
V_ee has N(N-1)/2 of them, so (N-1)/2 is the one exact factor.  The
decomposition identity test checks it against direct expectations.

The Fisher term is never computed by differentiating an estimated
normalization.  Because the normalization depends on r only, the
conditional score identity

    int |grad_r f|^2 / f = Var_f[ grad_r log f~ | r ]

reduces it to the variance of the unnormalized score over satellite
samples.  A chain's ddof = 1 variance over its K kept samples is unbiased
only for independent samples; on a correlated chain it reads low by about
(tau - 1)/(K - 1), tau the score's integrated autocorrelation time.  Each
chain therefore reports (8 v_K - 6 v_{K/2} + v_{K/4}) / 3, with v_K the
variance of the whole series and v_{K/2}, v_{K/4} the means of the
variances of its halves and quarters: a jackknife-style extrapolation in
1/K (Quenouille) that cancels the bias's 1/K and 1/K^2 terms.  The four
quarters' sums stream in as the samples are kept, so the score series is
never held.

The admissibility checks, `check_conditions`, live here too: the
satellite marginal they test samples the estimator's chains.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .ansatz import ConditionalAnsatz
from .domain import (
    Density,
    DomainError,
    ExternalPotential,
    QuadratureGrid,
    default_grid,
    external_energy,
    radial_cutoff,
    sq_norm,
    _gauss_legendre,
    _unit_gauss_legendre,
)
from .sampler import SamplerSettings, conditioning_rng, probe_rng, run_conditional_batch

# the floor on kept samples per chain: the score variance is extrapolated
# from the series' four quarters, and each quarter's variance needs two
MIN_KEPT_SAMPLES = 8


def prefactor_value(n_electrons: int) -> float:
    """P(N) = (N-1)/2: each of the N(N-1)/2 electron pairs counted once."""
    return (n_electrons - 1) / 2.0


# ---------------------------------------------------------------------------
# deterministic terms
# ---------------------------------------------------------------------------


def weizsacker_term(density: Density, grid: QuadratureGrid | None = None) -> float:
    """(1/8) integral of |grad rho|^2 / rho by quadrature."""
    if grid is None:
        grid = default_grid(density)
    rho = density.value(grid.nodes)
    grad = density.gradient(grid.nodes)
    grad2 = np.sum(grad * grad, axis=-1)
    integrand = np.where(rho > 0.0, grad2 / np.where(rho > 0.0, rho, 1.0), 0.0)
    return float(np.sum(grid.weights * integrand) / 8.0)


def radial_pair_integral(q_fn, r_max: float) -> float:
    """Double radial integral of q(r) q(r') / max(r, r').

    The kernel has a kink along r = r', so for each outer node the inner
    integral is split there: (1/r) int_0^r q + int_r^R q(s)/s ds, each
    panel under its own Gauss-Legendre rule.  Smooth q then integrates to
    near machine precision instead of the O(n^-2) of a product grid.
    The outer rule has 256 nodes, each inner panel 64.
    """
    r, wr = _gauss_legendre(256, 0.0, r_max)
    t, wt = _unit_gauss_legendre(64)
    t = 0.5 * (t + 1.0)
    wt = 0.5 * wt
    s_lo = r[:, None] * t[None, :]
    w_lo = r[:, None] * wt[None, :]
    inner_lo = np.sum(w_lo * q_fn(s_lo), axis=1) / r
    span = (r_max - r)[:, None]
    s_hi = r[:, None] + span * t[None, :]
    w_hi = span * wt[None, :]
    inner_hi = np.sum(w_hi * q_fn(s_hi) / s_hi, axis=1)
    return float(np.sum(wr * q_fn(r) * (inner_lo + inner_hi)))


def frozen_coulomb_quadrature(density: Density) -> float:
    """Coulomb term of the frozen-orbital family by radial quadrature.

    For f = prod rho(s_n)/N the satellite distribution is spherically
    symmetric, so the double integral reduces to two radial quadratures
    with the 1/max(r, r') kernel.  3D analytic densities only.
    """
    if density.dim != 3:
        raise DomainError("quadrature Coulomb path is 3D-only; use the MC path")
    r_max = radial_cutoff(min(density.zetas))

    def q_fn(s):
        points = np.zeros(s.shape + (3,))
        points[..., 2] = s
        return 4.0 * np.pi * s * s * density.value(points) / density.n_electrons

    pair = radial_pair_integral(q_fn, r_max)
    return prefactor_value(density.n_electrons) * density.n_electrons * pair


# ---------------------------------------------------------------------------
# Monte Carlo conditional moments
# ---------------------------------------------------------------------------


@dataclass
class ConditionalMoments:
    """Per-conditioning-point summaries from shared chains, and the
    per-chain data they were reduced from.

    score_var: conditional score variance per point, each chain's
        variance extrapolated in 1/K to remove its autocorrelation bias.
    pair_mean: mean bare interaction with the first satellite per point.
    r_points: (M, d) conditioning points.
    pair_series: (K, kept_chains) bare interaction with the first
        satellite at each kept sample, for only the first `kept_chains`
        chains in point order (none by default).
    acceptance, sigma_final: (M * walkers,) per chain.
    """

    score_var: np.ndarray
    pair_mean: np.ndarray
    r_points: np.ndarray
    pair_series: np.ndarray
    acceptance: np.ndarray
    sigma_final: np.ndarray


def conditional_moments(
    density: Density,
    ansatz: ConditionalAnsatz,
    settings: SamplerSettings,
    kept_chains: int = 0,
) -> ConditionalMoments:
    """Sample satellites at M_r conditioning points and reduce both
    observables on the same chains (their covariance is kept downstream).

    Both observables stream, so the call holds no per-sample series but
    the pair rows of its first `kept_chains` chains (none by default).
    Each step-chunk's scores are added, shifted by the chain's first kept
    score, into per-chain sums and sums of squares over four fixed
    quarters of the kept series (kept sample q K // 4 starts quarter q),
    from which any run of whole quarters gives its variance (Chan, Golub
    and LeVeque's shifted-data sums).  Each kept pair row is added, in
    kept order, into one per-chain sum: its mean is bit for bit that of
    a stored (K, chains) series."""
    if settings.samples < MIN_KEPT_SAMPLES:
        raise ValueError(
            f"need at least {MIN_KEPT_SAMPLES} kept samples: two per quarter of the series"
        )
    space = ansatz.space
    rng = conditioning_rng(settings.seed)
    r_points = density.sample(settings.conditioning_points, rng)
    chains = settings.conditioning_points * settings.walkers
    edges = [q * settings.samples // 4 for q in range(5)]
    sums = np.zeros((4, chains, space.dim))
    squares = np.zeros((4, chains))
    first = None
    seen = 0

    def score(r_block, sats):
        # r_block[None] broadcasts over the kept samples inside score, so
        # rho(r) and its gradient are evaluated once per chain and step-chunk
        nonlocal first, seen
        s = ansatz.score(r_block[None], sats)  # (c, chains, d), a new array
        if first is None:
            first = s[0].copy()
        s -= first
        lo, seen = seen, seen + len(s)
        parts = [
            (q, slice(max(edges[q], lo) - lo, min(edges[q + 1], seen) - lo))
            for q in range(4) if edges[q] < seen and lo < edges[q + 1]
        ]
        for q, part in parts:
            sums[q] += s[part].sum(axis=0)
        s *= s
        for q, part in parts:
            squares[q] += s[part].sum(axis=(0, 2))
        return None

    pair_sum = np.zeros(chains)

    def pair(r_block, sats):
        rows = space.interaction(sq_norm(r_block - sats[:, :, 0, :]))
        kept_rows = rows[:, :kept_chains].copy()
        # the running sum enters as the first row, so each chain's rows are
        # added one by one in kept order: a sum over the step-chunk first
        # would change the order of the additions
        rows[0] += pair_sum
        np.add.reduce(rows, axis=0, out=pair_sum)
        return kept_rows

    def variance(a, b):
        """Each chain's ddof = 1 score variance over quarters a to b - 1."""
        n = edges[b] - edges[a]
        return (squares[a:b].sum(axis=0) - sq_norm(sums[a:b].sum(axis=0)) / n) / (n - 1)

    result = run_conditional_batch(ansatz, r_points, settings, {"score": score, "pair": pair})
    whole = variance(0, 4)
    halves = (variance(0, 2) + variance(2, 4)) / 2.0
    quarters = sum(variance(q, q + 1) for q in range(4)) / 4.0
    score_var = (8.0 * whole - 6.0 * halves + quarters) / 3.0
    # collapse walkers of the same conditioning point before the outer stats
    v = score_var.reshape(settings.conditioning_points, settings.walkers)
    c = (pair_sum / settings.samples).reshape(settings.conditioning_points, settings.walkers)
    return ConditionalMoments(
        score_var=v.mean(axis=1),
        pair_mean=c.mean(axis=1),
        r_points=r_points,
        pair_series=result.values["pair"],
        acceptance=result.acceptance,
        sigma_final=result.sigma_final,
    )


@dataclass
class GammaEstimate:
    """Correlation functional Gamma = Fisher + Coulomb with shared-sample errors."""

    fisher: float
    fisher_stderr: float
    coulomb: float
    coulomb_stderr: float
    covariance: float
    value: float
    stderr: float
    method: str
    acceptance: float = float("nan")

    def to_dict(self) -> dict:
        return asdict(self)


def gamma_from_moments(moments: ConditionalMoments, n_electrons: int) -> GammaEstimate:
    """The Monte Carlo Gamma estimate from one conditional_moments run;
    its error bars come from the spread over conditioning points."""
    m = moments.score_var.size
    fisher_scale = n_electrons / 8.0
    coulomb_scale = prefactor_value(n_electrons) * n_electrons
    fisher_samples = fisher_scale * moments.score_var
    coulomb_samples = coulomb_scale * moments.pair_mean
    fisher = float(fisher_samples.mean())
    coulomb = float(coulomb_samples.mean())
    if m > 1:
        fisher_se = float(fisher_samples.std(ddof=1) / np.sqrt(m))
        coulomb_se = float(coulomb_samples.std(ddof=1) / np.sqrt(m))
        cov = float(np.cov(fisher_samples, coulomb_samples, ddof=1)[0, 1] / m)
    else:
        fisher_se = coulomb_se = cov = float("nan")
    var_total = fisher_se**2 + coulomb_se**2 + 2.0 * cov
    return GammaEstimate(
        fisher=fisher,
        fisher_stderr=fisher_se,
        coulomb=coulomb,
        coulomb_stderr=coulomb_se,
        covariance=cov,
        value=fisher + coulomb,
        stderr=float(np.sqrt(max(var_total, 0.0))),
        method="mc",
        acceptance=float(moments.acceptance.mean()),
    )


def quadrature_applies(ansatz: ConditionalAnsatz, density: Density) -> bool:
    """Whether the deterministic Coulomb route covers the ansatz on this
    density: the frozen family on a 3D analytic density, one with decay
    rates."""
    return ansatz.closed_form_coulomb and density.dim == 3 and bool(density.zetas)


def gamma_correlation(
    density: Density,
    ansatz: ConditionalAnsatz,
    settings: SamplerSettings,
) -> GammaEstimate:
    """Estimate Gamma[f, rho] = Fisher + Coulomb.

    The family and the density pick the route, reported as `method`: with
    no satellites Gamma is exactly zero; where `quadrature_applies` (the
    frozen family on a 3D analytic density, whose score is identically
    zero) it is a deterministic double integral; otherwise the two-level
    sampler estimates it.
    """
    if ansatz.n_satellites == 0:
        return GammaEstimate(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "exact")
    if quadrature_applies(ansatz, density):
        coulomb = frozen_coulomb_quadrature(density)
        return GammaEstimate(
            fisher=0.0,
            fisher_stderr=0.0,
            coulomb=coulomb,
            coulomb_stderr=0.0,
            covariance=0.0,
            value=coulomb,
            stderr=0.0,
            method="quadrature",
        )
    moments = conditional_moments(density, ansatz, settings)
    return gamma_from_moments(moments, ansatz.n_electrons)


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------


# two-sided false-fail rate of the marginal check: a normal's |z| > 3
MARGINAL_TAIL = 0.0027


def _student_t_cdf_central(t: float, nu: int) -> float:
    """P(|T| <= t) for Student's t with integer nu >= 1 degrees of freedom,
    t >= 0: the finite series in theta = arctan(t / sqrt(nu)) of Abramowitz
    and Stegun 26.7.3 (odd nu) and 26.7.4 (even nu)."""
    theta = np.arctan(t / np.sqrt(nu))
    sin, cos = np.sin(theta), np.cos(theta)
    odd = nu % 2
    # the series' nu // 2 terms: 1, then each the last times cos^2 theta
    # (2k) / (2k + 1) for odd nu, or (2k - 1) / (2k) for even nu
    k = np.arange(1, nu // 2)
    terms = np.cumprod(np.concatenate(([1.0], cos * cos * (2 * k - 1 + odd) / (2 * k + odd))))
    series = terms[: nu // 2].sum()
    if odd:
        return float(2.0 / np.pi * (theta + sin * cos * series))
    return float(sin * series)


def student_t_isf(p: float, nu: int) -> float:
    """The t > 0 with P(T > t) = p, 0 < p < 1/2, for Student's t with
    integer nu >= 1 degrees of freedom, by bisection on its closed-form CDF."""
    if not (nu >= 1 and 0.0 < p < 0.5):
        raise ValueError(f"need nu >= 1 and 0 < p < 1/2, got {(nu, p)}")
    central = 1.0 - 2.0 * p
    lo, hi = 0.0, 1.0
    while _student_t_cdf_central(hi, nu) < central:
        lo, hi = hi, 2.0 * hi
    # 64 halvings take the bracket below one part in 1e16 of hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if _student_t_cdf_central(mid, nu) < central:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class ConditionsReport:
    """Outcome of the admissibility conditions for one family.

    marginal_u: the mean over conditioning points of u = F(s) over every
        kept satellite s, F the CDF of rho/N (Density.cdf);
        marginal_stderr is its standard error over points and marginal_z
        = (marginal_u - 1/2) / marginal_stderr.  When rho(r) f(s|r) has
        the marginal (N - 1) rho(s), the satellites pooled over r are
        draws of rho/N, so u is uniform with mean 1/2 and z follows
        Student's t with M - 1 degrees of freedom, M the conditioning
        points; `marginal` passes when |z| <= marginal_cut, that t's
        two-sided MARGINAL_TAIL point (nan, so a fail, at M = 1).
    vanishes_at_conditioning: f = 0 whenever a satellite hits r exactly.
    vanishes_at_satellite_pairs: f = 0 at satellite-satellite contact;
        None when N < 3 leaves nothing to check.
    fermionic_compatible: structural flag of the family.

    The marginal is the gate: it is the one constraint of the Levy-Lieb
    search (Levy 1979; Lieb 1983), which runs over every f whose pair
    density has density rho.  The other three fields are information
    only.  The search needs no zero at coincidence, and the exact helium
    singlet has P(r, r) > 0 (Kato 1957); from N = 3 on no spin-free f
    gives a fermionic bound, and fermionic_compatible is reported on
    its own.
    """

    marginal_u: float
    marginal_stderr: float
    marginal_z: float
    marginal_cut: float
    vanishes_at_conditioning: bool
    vanishes_at_satellite_pairs: bool | None
    fermionic_compatible: bool

    @property
    def marginal(self) -> bool:
        return abs(self.marginal_z) <= self.marginal_cut

    def to_dict(self) -> dict:
        """The record's `conditions`: the fields and `marginal`."""
        return asdict(self) | {"marginal": self.marginal}


def check_conditions(ansatz: ConditionalAnsatz, settings: SamplerSettings) -> ConditionsReport:
    """Test the satellite marginal and the coincidence zeros of a family.

    The marginal runs one batch at the conditioning points of an
    estimator run with these settings, and one observable sums u = F(s)
    per chain as the samples stream; the walkers of each point are
    collapsed before the mean and its error over points are taken, as
    the energy's are.  The coincidence checks put a satellite on r, and
    then one satellite on another, at the first four of those points,
    in starting configurations drawn from the seed's condition-probe
    stream (`sampler.probe_rng`; the sampler module's "Randomness
    discipline" lists the whole stream tree), and require log f~ = -inf.
    """
    density, n_sat = ansatz.density, ansatz.n_satellites
    r_points = density.sample(settings.conditioning_points, conditioning_rng(settings.seed))
    u_sum = np.zeros(settings.conditioning_points * settings.walkers)

    def marginal(r_block, sats):
        u_sum[:] += density.cdf(sats).sum(axis=(0, 2))
        return None

    run_conditional_batch(ansatz, r_points, settings, {"marginal": marginal})
    u = u_sum.reshape(settings.conditioning_points, -1).mean(axis=1) / (settings.samples * n_sat)
    mean, stderr = u.mean(), u.std(ddof=1) / np.sqrt(u.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (mean - 0.5) / stderr

    rng = probe_rng(settings.seed)

    def vanishes(r, j):
        """f~ = 0 with satellite 0 put on r (j None) or on satellite j."""
        sats = np.array(ansatz.initial_satellites(r, rng))
        sats[0] = r if j is None else sats[j]
        return ansatz.log_unnormalized(r, sats) == -np.inf

    probes = r_points[:4]
    return ConditionsReport(
        marginal_u=float(mean),
        marginal_stderr=float(stderr),
        marginal_z=float(z),
        marginal_cut=student_t_isf(MARGINAL_TAIL / 2, u.size - 1) if u.size > 1 else float("nan"),
        vanishes_at_conditioning=all([vanishes(r, None) for r in probes]),
        vanishes_at_satellite_pairs=all([vanishes(r, 1) for r in probes]) if n_sat > 1 else None,
        fermionic_compatible=ansatz.fermionic_compatible,
    )


# ---------------------------------------------------------------------------
# total energy
# ---------------------------------------------------------------------------


@dataclass
class EnergyBreakdown:
    """Weizsacker + Fisher + Coulomb + external, with shared-chain errors."""

    weizsacker: float
    fisher: float
    fisher_stderr: float
    coulomb: float
    coulomb_stderr: float
    external: float
    total: float
    total_stderr: float
    method: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def assemble(
        cls, weizsacker: float, gamma: GammaEstimate, external: float
    ) -> "EnergyBreakdown":
        return cls(
            weizsacker=weizsacker,
            fisher=gamma.fisher,
            fisher_stderr=gamma.fisher_stderr,
            coulomb=gamma.coulomb,
            coulomb_stderr=gamma.coulomb_stderr,
            external=external,
            total=weizsacker + gamma.fisher + gamma.coulomb + external,
            total_stderr=gamma.stderr,
            method=gamma.method,
        )


def total_energy(
    density: Density,
    ansatz: ConditionalAnsatz,
    potential: ExternalPotential,
    settings: SamplerSettings,
) -> EnergyBreakdown:
    """Full energy of (rho, f): deterministic one-body terms
    by quadrature plus the sampled correlation functional.  potential is
    always an ExternalPotential; kind "none" gives an external term of 0."""
    grid = default_grid(density)
    w = weizsacker_term(density, grid)
    ext = external_energy(density, potential, grid)
    gamma = gamma_correlation(density, ansatz, settings)
    return EnergyBreakdown.assemble(w, gamma, ext)
