"""Parametric families for the conditional density f(satellites | r).

A family models the distribution of the N-1 "satellite" electrons given
one conditioning electron at r, for a fixed one-particle density rho.
Families expose the unnormalized log density (used by the sampler), the
conditioning-point score grad_r log f~ (used by the Fisher estimator),
and explicit normalization operations.  The sampler moves one satellite
per step and passes that move as a hint, together with a per-chain
state the family filled once per block, so families with pair sums can
return the chain's current value plus the change in the O(S) terms that
involve the moved satellite, reading every old term from that state
instead of re-evaluating all O(S^2) terms.

This module owns the family registry: each family class declares its
name and capabilities as class attributes and the coupling values that
act at a given N as acting_couplings, FAMILIES maps names to classes,
and build_ansatz builds any of them.  Other modules read those
attributes instead of naming families.

Pairwise repulsion enters through the density-weighted kernel

    E_H(x, y) = rho(x) rho(y) k(|x - y|),

with k = 1/d in 3D and k = 1/sqrt(d^2 + a^2) on the softened line.
Exact coincidence of two points returns +inf as a signaling value, which
downstream code consumes as f = 0 (log f = -inf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Density, DomainError, QuadratureGrid, SpaceSpec, sq_norm, sum_last


class AnsatzError(ValueError):
    """Raised for invalid family parameters or unusable inputs."""


class EstimatorError(RuntimeError):
    """Raised when a Monte Carlo estimate degenerates (e.g. all-zero weights)."""


# ---------------------------------------------------------------------------
# pair kernel
# ---------------------------------------------------------------------------


def pair_energy(density: Density, space: SpaceSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Density-weighted pair repulsion E_H(x, y).  Broadcasts over leading axes.

    Returns 0 where the density product vanishes, +inf at exact
    coincidence with positive density product (signaling value), and the
    finite kernel value otherwise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _weighted_kernel(space, density.value(x) * density.value(y), x - y)


def _weighted_kernel(space: SpaceSpec, num: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """E_H from the density product num = rho(x) rho(y) and delta = x - y."""
    d2 = sq_norm(delta)
    if space.dim == 3:
        # 1/d is +inf at contact, so num * kern is already the +inf signal
        # there wherever num > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(num == 0.0, 0.0, num * (1.0 / np.sqrt(d2)))
    out = np.where(num == 0.0, 0.0, num * (1.0 / np.sqrt(d2 + space.softening**2)))
    # softened kernel is finite at contact; the signaling convention still
    # reports +inf there so that coincidence always maps to f = 0
    return np.where((d2 == 0.0) & (num > 0.0), np.inf, out)


def pair_energy_grad_x(density: Density, space: SpaceSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of pair_energy with respect to its first argument x.

    In 3D an exact contact x = y gives nan in every component: the kernel
    is infinite there and f = 0, so the gradient has no value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho_x = density.value(x)
    rho_y = density.value(y)
    grad_rho_x = density.gradient(x)
    delta = x - y
    d2 = sq_norm(delta)
    if space.dim == 3:
        with np.errstate(divide="ignore"):
            kern = np.where(d2 == 0.0, np.nan, 1.0 / np.sqrt(d2))
    else:
        kern = 1.0 / np.sqrt(d2 + space.softening**2)
    dkern = -delta * (kern**3)[..., None]
    return (rho_y * kern)[..., None] * grad_rho_x + (rho_x * rho_y)[..., None] * dkern


def _satellite_pairs(n_sat: int):
    """Index pairs (i, j) with i < j among satellites."""
    return np.triu_indices(n_sat, k=1)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class ConditionalAnsatz:
    """Base class; subclasses define log_unnormalized, score and start_candidates.

    Shape conventions: r has shape (..., d), satellites (..., S, d) with
    S = N - 1; both return results of shape (...) resp. (..., d).

    log_unnormalized(r, satellites, moved=None) takes an optional move
    hint moved = (k, old, log_old, state) from the sampler, for m chains
    with r of shape (m, d) and satellites (m, S, d): satellites is the full
    proposal, which differs from chain c's current state only in
    satellite k[c] (integer array (m,)), whose current position was
    old[c] (array (m, d)); log_old (m,) is the current, finite value, and
    state is what chain_state(r, current satellites) returned at the
    block's start, kept current by the sampler through state.commit(accept)
    after every hinted call.  A family may return log_old plus the change
    in the terms that involve satellite k, or ignore the hint and evaluate
    the proposal in full; both give the same value up to rounding.
    """

    family: str = "base"
    confined: bool = False  # satellites restricted to the omega region
    couplings: tuple[str, ...] = ()  # constructor parameters the optimizer searches
    searchable: bool = True  # may be optimized and compared
    exactly_normalized: bool = False  # f integrates to 1 by construction
    closed_form_coulomb: bool = False  # Coulomb term has a quadrature route

    def __init__(self, density: Density, space: SpaceSpec):
        if density.dim != space.dim:
            raise AnsatzError("density and space dimensionality differ")
        if density.n_electrons != space.n_electrons:
            raise AnsatzError("density and space disagree on N")
        self.density = density
        self.space = space
        self.n_electrons = density.n_electrons
        self.dim = density.dim

    @property
    def n_satellites(self) -> int:
        return self.n_electrons - 1

    @property
    def acting_couplings(self) -> tuple[float, ...]:
        """The coupling values that act on f at this N.  Two instances that
        build_ansatz made for one family, density and space with equal
        acting couplings are the same f, so every estimate at fixed
        settings is equal; empty for the families without couplings."""
        return ()

    @property
    def fermionic_compatible(self) -> bool:
        """Whether some antisymmetric state can carry this conditional shape.

        With a single satellite the spin singlet absorbs exchange, so no
        spatial zero is needed; with two or more satellites at least one
        same-spin satellite pair exists and the family must vanish at
        satellite-satellite contact.
        """
        return self.n_satellites < 2

    def log_unnormalized(self, r: np.ndarray, satellites: np.ndarray, moved=None) -> np.ndarray:
        raise NotImplementedError

    def score(self, r: np.ndarray, satellites: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def chain_state(self, r: np.ndarray, satellites: np.ndarray):
        """Per-chain state that rides with the move hint, from the final
        starts satellites (m, S, d) at r (m, d); None for families that
        evaluate every proposal in full."""
        return None

    def start_candidates(self, r: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One starting configuration per conditioning point of r (m, d),
        drawn from rng in one go, shape (m, S, d); some may have f~ = 0."""
        raise NotImplementedError

    def initial_satellites(self, r: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """A starting configuration (S, d) for the point r (d,) with finite
        log f~: the first finite one among successive start candidates."""
        r = np.asarray(r, dtype=float)
        for _ in range(100):
            sats = self.start_candidates(r[None, :], rng)[0]
            if np.isfinite(self.log_unnormalized(r, sats)):
                return sats
        raise EstimatorError("could not find a finite starting configuration")

    def _check_shapes(self, r, satellites):
        r = np.asarray(r, dtype=float)
        satellites = np.asarray(satellites, dtype=float)
        if r.shape[-1] != self.dim or satellites.shape[-1] != self.dim:
            raise AnsatzError("position dimensionality mismatch")
        if satellites.shape[-2] != self.n_satellites:
            raise AnsatzError(
                f"expected {self.n_satellites} satellites, got {satellites.shape[-2]}"
            )
        return r, satellites

    def _support_log(self, satellites: np.ndarray) -> np.ndarray:
        """0 inside the support, -inf outside (confined families only)."""
        if not self.confined:
            return np.zeros(satellites.shape[:-2])
        inside = self.space.in_omega(satellites).all(axis=-1)
        return np.where(inside, 0.0, -np.inf)


class PairChainState:
    """The pairwise family's per-chain terms of one sampler block.

    rho_r: (m,) rho at each chain's conditioning point.
    e_cond: (m, S) conditioning terms E_H(r, s_j); held when gamma > 0
        and S >= 2.
    e_pair: (m, S, S) satellite pair terms E_H(s_i, s_j), symmetric with a
        zero diagonal, and rho_sat: (m, S) rho at each satellite; held
        when beta > 0 and S >= 2.
    Terms not held are None: with one satellite the full formula, which
    reads only rho_r, is the cheaper one.

    A hinted log_unnormalized call reads the old terms from here and
    leaves the proposal's new ones pending; commit(accept) writes the
    accepted ones in, so every held array equals a fresh evaluation of the
    chains' current states.
    """

    def __init__(self, rho_r, rho_sat, e_cond, e_pair, n_sat):
        self.rho_r, self.rho_sat, self.e_cond, self.e_pair = rho_r, rho_sat, e_cond, e_pair
        self.first = np.arange(len(rho_r)) * n_sat  # flat index of each chain's satellite 0
        # satellite indices j != k in ascending order, one row per k
        j = np.arange(n_sat - 1)
        self.others = j + (j >= np.arange(n_sat)[:, None])  # (S, S - 1)
        self.pending = None

    def commit(self, accept: np.ndarray) -> None:
        """Take in the pending terms of the chains whose move was accepted."""
        if self.pending is None:
            return
        pos, e_new, rho_new, kj, jk, pair_new = self.pending
        acc = accept.nonzero()[0]
        pos = pos[acc]
        if e_new is not None:
            self.e_cond.reshape(-1)[pos] = e_new[acc]
        if pair_new is not None:
            self.rho_sat.reshape(-1)[pos] = rho_new[acc]
            pair_new = pair_new[acc]
            flat = self.e_pair.reshape(-1)
            flat[kj[acc]] = pair_new
            flat[jk[acc]] = pair_new


class PairwiseBiparametric(ConditionalAnsatz):
    """Two-parameter family with conditioning and satellite-satellite factors.

    log f~ = -gamma sum_n E_H(r, s_n) - beta sum_{i<j} E_H(s_i, s_j),
    supported on omega^(N-1).  gamma > 0 except in test mode; beta >= 0.
    beta > 0 makes every satellite coincidence a zero of f as well.
    """

    family = "pairwise"
    confined = True
    couplings = ("gamma", "beta")

    def __init__(self, density, space, gamma: float, beta: float, test_mode: bool = False):
        super().__init__(density, space)
        if not np.isfinite(gamma) or not np.isfinite(beta):
            raise AnsatzError("gamma and beta must be finite")
        if gamma <= 0.0 and not test_mode:
            raise AnsatzError("gamma must be positive outside test mode")
        if gamma < 0.0 or beta < 0.0:
            raise AnsatzError("gamma and beta must be non-negative")
        self.gamma = float(gamma)
        self.beta = float(beta)

    @property
    def acting_couplings(self) -> tuple[float, ...]:
        # beta weighs satellite pairs, and one satellite has none
        if self.n_satellites < 2:
            return (self.gamma,)
        return (self.gamma, self.beta)

    @property
    def fermionic_compatible(self) -> bool:
        return self.n_satellites < 2 or (self.gamma > 0.0 and self.beta > 0.0)

    def log_unnormalized(self, r, satellites, moved=None):
        r, satellites = self._check_shapes(r, satellites)
        if moved is not None:
            return self._moved_log(r, satellites, *moved)
        total = self._support_log(satellites)
        if self.gamma > 0.0:
            e_cond = pair_energy(self.density, self.space, r[..., None, :], satellites)
            total = total - self.gamma * np.sum(e_cond, axis=-1)
        if self.beta > 0.0 and self.n_satellites >= 2:
            ii, jj = _satellite_pairs(self.n_satellites)
            e_sat = pair_energy(
                self.density, self.space, satellites[..., ii, :], satellites[..., jj, :]
            )
            total = total - self.beta * np.sum(e_sat, axis=-1)
        return total

    def _moved_log(self, r, satellites, k, old, log_old, state):
        """The hinted path: log_old plus the change of the support term and
        of the terms that involve satellite k.  Only rho(new), the new
        conditioning term and the S - 1 new pair terms are evaluated; the
        old terms come from the chain state.  They are finite, since the
        current state has finite log f~, so the E_H conventions carry over:
        a new coincidence gives -inf.  With one satellite the full formula
        has a single term and is kept, so the value is exactly a fresh
        evaluation's."""
        space, n_sat = self.space, self.n_satellites
        flat = satellites.reshape(-1, self.dim)  # satellite j of chain c at row c S + j
        pos = state.first + k
        new = np.take(flat, pos, axis=0)
        r2 = sq_norm(new)
        rho_new = self.density.value(new, r2)
        inside = space.in_omega(new, r2)
        e_new = None
        if self.gamma > 0.0:
            e_new = _weighted_kernel(space, state.rho_r * rho_new, new - r)
        if n_sat == 1:
            total = np.where(inside, 0.0, -np.inf)
            return total if e_new is None else total - self.gamma * e_new
        total = np.where(inside, log_old, -np.inf)
        if e_new is not None:
            total = total - self.gamma * (e_new - np.take(state.e_cond, pos))
        kj = jk = pair_new = None
        if state.e_pair is not None:
            others = np.take(state.others, k, axis=0)  # (m, S - 1): j != k
            rows = state.first[:, None] + others
            pair_new = _weighted_kernel(
                space,
                rho_new[:, None] * np.take(state.rho_sat, rows),
                new[:, None, :] - np.take(flat, rows, axis=0),
            )
            kj = pos[:, None] * n_sat + others  # e_pair[c, k, j], flat
            jk = rows * n_sat + k[:, None]  # e_pair[c, j, k], flat
            total = total - self.beta * sum_last(pair_new - np.take(state.e_pair, kj))
        state.pending = (pos, e_new, rho_new, kj, jk, pair_new)
        return total

    def chain_state(self, r, satellites):
        r, satellites = self._check_shapes(r, satellites)
        space, n_sat = self.space, self.n_satellites
        rho_r = self.density.value(r)
        rho_sat = e_cond = e_pair = None
        if n_sat >= 2:
            rho = self.density.value(satellites)
            if self.gamma > 0.0:
                e_cond = _weighted_kernel(space, rho_r[:, None] * rho, satellites - r[:, None, :])
            if self.beta > 0.0:
                ii, jj = _satellite_pairs(n_sat)
                e = _weighted_kernel(
                    space, rho[:, ii] * rho[:, jj], satellites[:, ii] - satellites[:, jj]
                )
                rho_sat = rho
                e_pair = np.zeros((len(r), n_sat, n_sat))
                e_pair[:, ii, jj] = e
                e_pair[:, jj, ii] = e
        return PairChainState(rho_r, rho_sat, e_cond, e_pair, n_sat)

    def score(self, r, satellites):
        r, satellites = self._check_shapes(r, satellites)
        if self.gamma == 0.0:
            return np.zeros(np.broadcast_shapes(r.shape, satellites.shape[:-2] + (self.dim,)))
        # summed one satellite at a time: the sampler passes the kept samples
        # of a whole step-chunk, and this keeps the temporaries to a fraction
        # of them
        g = pair_energy_grad_x(self.density, self.space, r, satellites[..., 0, :])
        for j in range(1, self.n_satellites):
            g += pair_energy_grad_x(self.density, self.space, r, satellites[..., j, :])
        return -self.gamma * g

    def start_candidates(self, r, rng):
        shape = (len(r), self.n_satellites, self.dim)
        return self.space.uniform_omega(shape[0] * shape[1], rng).reshape(shape)


class SimpleFactorized(PairwiseBiparametric):
    """One-factor-per-satellite family, log f~ = -sum_n E_H(r, s_n): the
    pairwise family fixed at gamma = 1, beta = 0.

    Satellite pairs are uncorrelated, so satellite-satellite coincidences
    carry finite weight: the family is not fermionic-compatible.
    """

    family = "simple"
    couplings = ()

    def __init__(self, density, space):
        super().__init__(density, space, 1.0, 0.0)


class FrozenOrbitalProduct(ConditionalAnsatz):
    """Debug family: satellites i.i.d. from rho/N, independent of r.

    f = prod_n rho(s_n)/N is exactly normalized and its score vanishes
    identically, so the Fisher term is exactly zero.  Carries no
    coincidence zeros at all.
    """

    family = "frozen"
    exactly_normalized = True
    closed_form_coulomb = True

    def log_unnormalized(self, r, satellites, moved=None):
        r, satellites = self._check_shapes(r, satellites)
        vals = self.density.value(satellites) / self.n_electrons
        with np.errstate(divide="ignore"):
            return np.sum(np.log(vals), axis=-1)

    def score(self, r, satellites):
        r, satellites = self._check_shapes(r, satellites)
        shape = np.broadcast_shapes(r.shape, satellites.shape[:-2] + (self.dim,))
        return np.zeros(shape)

    def start_candidates(self, r, rng):
        shape = (len(r), self.n_satellites, self.dim)
        return self.density.sample(shape[0] * shape[1], rng).reshape(shape)


class GaussianToy(ConditionalAnsatz):
    """Analytic test family: each satellite Gaussian around r.

    log f~ = -sum_n |s_n - r|^2 / (2 w^2).  The score is (sum_n s_n - S r)/w^2
    and its conditional covariance trace is S*d/w^2 exactly, which pins the
    Fisher term to N (N-1) d / (8 w^2); with N=2, d=1, w=1 that is N/8.
    """

    family = "gaussian-toy"
    searchable = False
    exactly_normalized = True

    def __init__(self, density, space, width: float = 1.0):
        super().__init__(density, space)
        if not width > 0.0:
            raise AnsatzError("width must be positive")
        self.width = float(width)

    def log_unnormalized(self, r, satellites, moved=None):
        r, satellites = self._check_shapes(r, satellites)
        delta = satellites - r[..., None, :]
        return -np.sum(delta * delta, axis=(-2, -1)) / (2.0 * self.width**2)

    def score(self, r, satellites):
        r, satellites = self._check_shapes(r, satellites)
        delta = satellites - r[..., None, :]
        return np.sum(delta, axis=-2) / self.width**2

    def start_candidates(self, r, rng):
        r = np.asarray(r, dtype=float)
        return r[:, None, :] + self.width * rng.standard_normal(
            (len(r), self.n_satellites, self.dim)
        )


# the registry: the one place that maps family names to their classes
FAMILIES = {
    cls.family: cls
    for cls in (PairwiseBiparametric, SimpleFactorized, FrozenOrbitalProduct, GaussianToy)
}


def family_class(family: str) -> type[ConditionalAnsatz]:
    """The registered class of a family name; AnsatzError if unknown."""
    try:
        return FAMILIES[family]
    except KeyError:
        raise AnsatzError(f"unknown ansatz family {family!r}") from None


def build_ansatz(
    family: str,
    density: Density,
    space: SpaceSpec,
    gamma: float = 1.0,
    beta: float = 1.0,
    test_mode: bool = False,
) -> ConditionalAnsatz:
    """An instance of any registered family; gamma, beta and test_mode
    reach only the families that have couplings."""
    cls = family_class(family)
    if cls.couplings:
        return cls(density, space, gamma, beta, test_mode=test_mode)
    return cls(density, space)


# ---------------------------------------------------------------------------
# normalization operations
# ---------------------------------------------------------------------------


def normalization_simple(ansatz: SimpleFactorized, r: np.ndarray, grid: QuadratureGrid) -> float:
    """Per-satellite log normalization Ebar(r) of the simple family.

    Defined by exp(-Ebar(r)) = integral over omega of exp(-E_H(r, s)) ds,
    evaluated by quadrature on a grid covering omega.  The normalized
    density is then f = prod_n exp(Ebar(r)) exp(-E_H(r, s_n)).
    """
    if not isinstance(ansatz, SimpleFactorized):
        raise AnsatzError("normalization_simple requires the simple family")
    r = np.asarray(r, dtype=float)
    e = pair_energy(ansatz.density, ansatz.space, r[None, :], grid.nodes)
    val = float(np.sum(grid.weights * np.exp(-e)))
    if not val > 0.0:
        raise EstimatorError("simple-family normalization integral vanished")
    return -np.log(val)


def log_normalization_pairwise(
    ansatz: ConditionalAnsatz,
    r: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of the overall log normalization Ebar(r).

    exp(-Ebar(r)) is the (N-1)-satellite integral of exp(log f~) over
    omega^(N-1), estimated from uniform draws in log-sum-exp form.
    Returns (Ebar, stderr).  In test mode with all couplings zero the
    integrand is exactly 1 and Ebar = -(N-1) ln vol(omega) with zero error.
    """
    r = np.asarray(r, dtype=float)
    space = ansatz.space
    n_sat = ansatz.n_satellites
    draws = space.uniform_omega(n_samples * n_sat, rng).reshape(n_samples, n_sat, space.dim)
    logf = ansatz.log_unnormalized(np.broadcast_to(r, (n_samples, space.dim)), draws)
    finite = np.isfinite(logf)
    if not finite.any():
        raise EstimatorError("all normalization samples had zero weight")
    peak = logf[finite].max()
    y = np.where(finite, np.exp(logf - peak), 0.0)
    mean_y = float(y.mean())
    log_mean = peak + np.log(mean_y)
    # relative error of the mean propagates through the log
    stderr = float(y.std(ddof=1) / (mean_y * np.sqrt(n_samples)))
    log_volume = n_sat * np.log(space.omega_volume)
    return -(log_mean + log_volume), stderr


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------


@dataclass
class NormalizationCheck:
    r: np.ndarray
    estimate: float
    stderr: float
    z: float
    exact: bool


@dataclass
class ConditionsReport:
    """Outcome of the three admissibility conditions for one family.

    normalization: per conditioning point, the MC (or exact) estimate of
        the integral of the normalized f, which should be 1.
    vanishes_at_conditioning: f = 0 whenever a satellite hits r exactly.
    vanishes_at_satellite_pairs: f = 0 at satellite-satellite contact;
        None when N < 3 leaves nothing to check.
    fermionic_compatible: structural flag of the family.
    """

    family: str
    normalization: list[NormalizationCheck]
    normalization_pass: bool
    vanishes_at_conditioning: bool
    vanishes_at_satellite_pairs: bool | None
    fermionic_compatible: bool

    @property
    def all_pass(self) -> bool:
        pairs_ok = self.vanishes_at_satellite_pairs in (True, None)
        return self.normalization_pass and self.vanishes_at_conditioning and pairs_ok


def check_conditions(
    ansatz: ConditionalAnsatz,
    n_points: int = 10,
    n_samples: int = 4096,
    seed: int = 0,
) -> ConditionsReport:
    """Probe normalization and coincidence zeros of a family.

    Normalization is checked as a ratio of two independent MC estimates
    of the same satellite integral (z-scored), or flagged exact for the
    analytically normalized families.  The coincidence checks construct
    exact overlaps and require log f~ = -inf.
    """
    rng_points = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xC0,)))
    density, space = ansatz.density, ansatz.space
    points = density.sample(n_points, rng_points)

    checks: list[NormalizationCheck] = []
    if ansatz.exactly_normalized:
        # nothing stochastic to test
        for r in points:
            checks.append(NormalizationCheck(r, 1.0, 0.0, 0.0, True))
    else:
        for i, r in enumerate(points):
            rng_a = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(0xC1, i))
            )
            rng_b = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(0xC2, i))
            )
            log_a, se_a = log_normalization_pairwise(ansatz, r, n_samples, rng_a)
            log_b, se_b = log_normalization_pairwise(ansatz, r, n_samples, rng_b)
            delta = log_a - log_b  # log of (integral of normalized f)
            se = float(np.hypot(se_a, se_b))
            z = delta / se if se > 0.0 else 0.0
            checks.append(NormalizationCheck(r, float(np.exp(delta)), se, float(z), False))
    norm_pass = all(abs(c.z) <= 3.0 for c in checks)

    rng_cfg = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xC3,)))
    cond_ii = True
    for r in points[: min(4, n_points)]:
        sats = ansatz.initial_satellites(r, rng_cfg)
        sats = np.array(sats, copy=True)
        sats[0] = r
        if ansatz.log_unnormalized(r, sats) != -np.inf:
            cond_ii = False

    cond_iii: bool | None = None
    if ansatz.n_satellites >= 2:
        cond_iii = True
        for r in points[: min(4, n_points)]:
            sats = np.array(ansatz.initial_satellites(r, rng_cfg), copy=True)
            sats[1] = sats[0]
            if ansatz.log_unnormalized(r, sats) != -np.inf:
                cond_iii = False

    return ConditionsReport(
        family=ansatz.family,
        normalization=checks,
        normalization_pass=norm_pass,
        vanishes_at_conditioning=cond_ii,
        vanishes_at_satellite_pairs=cond_iii,
        fermionic_compatible=ansatz.fermionic_compatible,
    )
