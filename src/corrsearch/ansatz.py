"""Parametric families for the conditional density f(satellites | r).

A family models the distribution of the N-1 "satellite" electrons given
one conditioning electron at r, for a fixed one-particle density rho.
Families expose the unnormalized log density (used by the sampler), the
conditioning-point score grad_r log f~ (used by the Fisher estimator)
and a way to draw starting configurations.  The sampler moves one
satellite per step, the same one in every chain, and passes that move as
a hint, together with a per-chain state the family built once per batch,
so families with pair sums can return the chain's current value plus the
change in the O(S) terms that involve the moved satellite, reading every
old term from that state instead of re-evaluating all O(S^2) terms.
The pairwise family's state also holds its hinted evaluator, bound once
per batch to the chains' points, its buffers and its constants, and a
hinted log_unnormalized call goes straight to it.  The sampler stores its
chains with the chain axis last, so the arrays of a hinted call are views
of that store, and the pairwise family keeps its chain state chain-last
too: every per-step operation runs one long loop over chains.

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

import functools

import numpy as np

from .domain import Density, SpaceSpec, sq_norm


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
    finite kernel value otherwise: kernel_steps run on fresh arrays of
    the points' broadcast leading shape.  The full formula's one E_H
    route, for log_unnormalized and chain_state alike.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    num = density.value(x) * density.value(y)
    soften, kernel = kernel_steps(space)
    d2 = np.asarray(sq_norm(x - y))  # an array even for one pair of points
    masks = [np.empty(d2.shape, bool) for _ in range(2)]
    with np.errstate(divide="ignore", invalid="ignore"):  # as in the step loop
        soften(d2, masks)
        return kernel(num, np.sqrt(d2, d2), np.empty(d2.shape), masks)


@functools.lru_cache(maxsize=None)
def kernel_steps(space: SpaceSpec):
    """The pair kernel's two in-place steps, the one statement of its
    softening, its +inf contact signal and its zero-density rule.

    soften(d2, masks) readies the squared distance d2 for its sqrt, in
    place; kernel(num, d, out, masks) then writes E_H from num =
    rho(x) rho(y) >= 0 and that root d to out, overwriting d, and returns
    out.  masks are two bool buffers of out's shape, read in 1D only.  A
    3D contact divides by zero and a 3D contact where num = 0 multiplies
    0 by inf: run both with numpy's divide and invalid errors ignored.
    Every constant is a 0-d array and every ufunc takes its out
    positionally, so the hinted evaluator can call them in every step.
    The pair is cached per space, a frozen SpaceSpec: the steps only read
    their constants and write only to what the caller passes, so the step
    loop and the pool thread may share one pair.
    """
    # 0-d constants: a ufunc converts a Python float argument on every
    # call, and a 0-d array costs it nothing
    zero, one, inf = (np.array(x) for x in (0.0, 1.0, np.inf))
    multiply, add, divide, fmax = np.multiply, np.add, np.divide, np.fmax
    greater, equal, bitwise_and, putmask = np.greater, np.equal, np.bitwise_and, np.putmask
    if space.dim == 3:

        def soften(d2, masks):
            pass

        def kernel(num, d, out, masks):
            divide(one, d, d)
            multiply(num, d, out)
            # every term is >= 0 except num * (1/d) = 0 * inf = nan at a
            # contact where num = 0; fmax sets exactly that one to 0, the
            # value wherever num = 0
            return fmax(out, zero, out)

        return soften, kernel
    soft2 = np.array(space.softening**2)

    def soften(d2, masks):
        equal(d2, zero, masks[0])  # the contacts, before the softening
        add(d2, soft2, d2)

    def kernel(num, d, out, masks):
        # the softened kernel is finite, so num = 0 already gives 0, and
        # the signaling convention reports +inf at a contact where num > 0,
        # so that coincidence always maps to f = 0
        contact, positive = masks
        greater(num, zero, positive)
        bitwise_and(contact, positive, contact)
        divide(one, d, d)
        multiply(num, d, out)
        putmask(out, contact, inf)
        return out

    return soften, kernel


def pair_energy_grad_x(density: Density, space: SpaceSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of pair_energy with respect to its first argument x.

    In 3D an exact contact x = y gives nan in every component: the kernel
    is infinite there and f = 0, so the gradient has no value.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    rho_x, rho_y = density.value(x), density.value(y)
    grad_rho_x = density.gradient(x)
    delta = x - y
    kern = space.interaction(sq_norm(delta))
    # only the 3D kernel is infinite, and only at contact
    kern = np.where(kern == np.inf, np.nan, kern)
    dkern = -delta * (kern**3)[..., None]
    return (rho_y * kern)[..., None] * grad_rho_x + (rho_x * rho_y)[..., None] * dkern


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class ConditionalAnsatz:
    """Base class; subclasses define log_unnormalized, score and start_candidates.

    Shape conventions: r has shape (..., d), satellites (..., S, d) with
    S = N - 1; both return results of shape (...) resp. (..., d).

    log_unnormalized(r, satellites, moved=None) takes an optional move
    hint moved = (k, new, log_old, state) from the sampler, for m chains
    with r of shape (m, d) and satellites (m, S, d): satellites is the
    chains' current state, and the proposal moves satellite k, an int, of
    every chain from satellites[:, k] to new (m, d); at step t of a batch
    k is t mod S.  satellites is a strided view of the sampler's store,
    which takes an accepted move in only after the call, and new is a
    strided view of a buffer that the sampler overwrites in the next
    step, so a family must not write either of them, nor keep either past
    the call.  log_old (m,) is the current, finite value, and state is
    what chain_state(r, current satellites) returned at the batch's
    start, at the same points r as every hinted call of the batch.  With
    more than one satellite the sampler keeps it current: after every
    hinted call it calls state.commit(k, accept), accept the (m,) bool
    mask of the chains whose move was accepted, when state is not None.  A family may return log_old plus the change in
    the terms that involve satellite k, or evaluate proposal(satellites,
    k, new) in full; both give the same value up to rounding.  The value
    a hinted call returns may be a buffer of the state that the next
    hinted call overwrites.  A hinted call skips the shape checks and
    runs with numpy's divide and invalid errors ignored, as the sampler's
    step loop does.  Scratch buffers of a hinted path belong in the chain
    state, one set per batch, never on the family instance: the sampler's
    pool thread calls score on the same instance while the step loop
    runs.
    """

    family: str = "base"
    couplings: tuple[str, ...] = ()  # searched constructor parameters, see check_couplings
    searchable: bool = True  # may be optimized and compared
    closed_form_coulomb: bool = False  # Coulomb term has a quadrature route
    # rho(r) f(s|r) is the pair density of a state with density rho, so at
    # N = 2 the energy is that state's and bounds the ground state from above
    marginal_matched: bool = False

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
        """The coupling values that act on f at this N, a prefix of the
        family's `couplings`.  Two instances that build_ansatz made for one
        family, density and space with equal acting couplings are the same
        f, so every estimate at fixed settings is equal; empty for the
        families without couplings."""
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

    def proposal(self, satellites: np.ndarray, k: int, new: np.ndarray) -> np.ndarray:
        """The proposal of a move hint: the current satellites (m, S, d)
        with satellite k of every chain replaced by new (m, d); a copy, or
        with one satellite an (m, 1, d) view of new."""
        if self.n_satellites == 1:
            return new[:, None, :]
        proposal = np.array(satellites, order="C")
        proposal[:, k] = new
        return proposal

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


class PairChainState:
    """The pairwise family's per-chain terms of one sampler batch, chain
    axis last, and the hinted evaluator that reads them.

    rho_r: (m,) rho at each chain's conditioning point.
    e_cond: (S, m) conditioning terms E_H(r, s_j); held when S >= 2.
    e_pair: (S, S, m) satellite pair terms, E_H(s_i, s_j) at [i, j] and at
        [j, i], 0 on the diagonal, and rho_sat: (S, m) rho at each
        satellite; held when beta > 0 and S >= 2.
    Terms not held are None: with one satellite the full formula, which
    reads only rho_r, is the cheaper one.

    log(satellites, k, new, log_old) is the hinted evaluation, bound once
    per batch to the chains' points and to its buffers (see _evaluator).
    It reads the moved satellite's old terms as the rows e_cond[k] and
    e_pair[k] and leaves the proposal's new ones pending in buffers held
    here (e_new, rho_new, pair_new, whose row k is 0); commit(k, accept)
    writes them in at the chains where the (m,) bool mask accept is set,
    into row k of e_cond and rho_sat and into row and column k of e_pair,
    so every held array equals a fresh evaluation of the chains' current
    states.  The returned log f~ is a buffer of the evaluator too, so
    commit, and every use of the returned value, comes before the next
    hinted call.  With one satellite a hinted call leaves nothing to take
    in, and commit, which needs the terms held from S = 2 on, is not
    called.  The evaluator refers to the buffers, never to the state, so
    the two form no reference cycle and reference counting frees a batch's
    state when the batch ends.
    """

    def __init__(self, family, r, rho_r, rho_sat, e_cond, e_pair):
        self.rho_r, self.rho_sat, self.e_cond, self.e_pair = rho_r, rho_sat, e_cond, e_pair
        # what a hinted call with S >= 2 leaves pending: the new conditioning
        # terms, rho at the moved satellites and their new pair terms
        self.e_new, self.rho_new = np.empty((2, len(rho_r)))
        if e_pair is not None:
            self.pair_new = np.empty(e_pair.shape[1:])
            # for each k, the (m,) views that commit writes: the terms of k
            # against every other satellite j, at [k, j] and [j, k], and
            # their pending values; the diagonal stays 0
            n_sat = len(e_pair)
            self.pair_views = [
                [(e_pair[k, j], e_pair[j, k], self.pair_new[j]) for j in range(n_sat) if j != k]
                for k in range(n_sat)
            ]
        self.log = self._evaluator(family, np.ascontiguousarray(r.T))

    def _evaluator(self, family, r_t):
        """The hinted evaluation for the chains at the points r_t (d, m):
        log_old plus the change of the support term and of the terms that
        involve satellite k.  Only rho(new), the new conditioning term and
        the new pair terms are evaluated; the old terms are the held rows
        of satellite k.  They are finite, since the current state has
        finite log f~, so the E_H conventions carry over: a new
        coincidence gives -inf.  With one satellite the full formula has a
        single term and is kept, as (-gamma) E_H, so the value is a fresh
        evaluation's 0 - gamma E_H up to the sign of a zero.

        The kernel is kernel_steps', which pair_energy runs too, and
        the rest is the full formula's arithmetic in the same order, so
        every term is bit for bit an unhinted call's.
        Everything a step needs is bound here once: the buffers, the 0-d
        constants, the row views and the ufuncs, each called with its
        out positional.  A squared norm is one add-reduce over the
        coordinate axis, which adds its fewer than 8 terms in order, as
        sum_last does.  |new|^2 and |new - r|^2 are two rows of one
        array: the support test and, in 1D, the contact test read them
        squared, the softening is added to the distance row, and one sqrt
        gives both the radius that rho(new) takes and the distance the
        kernel takes.  The support test is a mask put in place."""
        dim, m = r_t.shape
        n_sat, value, rho_r = family.n_satellites, family.density.value, self.rho_r
        # 0-d constants: a ufunc converts a Python float argument on every
        # call, and a 0-d array costs it nothing
        neg_gamma, beta = np.array(-family.gamma), np.array(family.beta)
        omega_r2, neg_inf = np.array(family.space.omega_radius**2), np.array(-np.inf)
        multiply, subtract, add = np.multiply, np.subtract, np.add
        sqrt, greater, putmask, reduce = np.sqrt, np.greater, np.putmask, np.add.reduce
        # scratch: the squared coordinates of new and new - r, their sums
        # and then their roots, then (m,) terms; row views made once, since
        # a view costs each step as much as a small ufunc
        sq_new, sq_rel = sq = np.empty((2, dim, m))
        radius, dist = norms = np.empty((2, m))
        num, change, total = np.empty((3, m))
        rho_new, e_new = self.rho_new, self.e_new
        outside = np.empty(m, bool)
        e_cond = list(self.e_cond) if n_sat > 1 else None
        pairs = self.e_pair is not None
        if pairs:
            # the moved satellite against all S satellites: (S, d, m) and (S, m)
            pair_delta = np.empty((n_sat, dim, m))
            pair_d2, pair_num, pair_old = np.empty((3, n_sat, m))
            pair_new, rho_sat, e_pair = self.pair_new, self.rho_sat, list(self.e_pair)
        # the kernel's steps and the bool buffers they read in 1D
        soften, kernel = kernel_steps(family.space)
        cond_masks = np.empty((2, m), bool)
        pair_masks = np.empty((2, n_sat, m), bool) if pairs else None

        def log(satellites, k, new, log_old):
            new_t = new.T  # (d, m)
            # |new|^2 and |new - r|^2 in one add-reduce, their roots in one sqrt
            multiply(new_t, new_t, sq_new)
            subtract(new_t, r_t, sq_rel)
            multiply(sq_rel, sq_rel, sq_rel)
            reduce(sq, 1, None, norms)
            greater(radius, omega_r2, outside)
            soften(dist, cond_masks)
            sqrt(norms, norms)
            value(new, radius, rho_new)
            multiply(rho_r, rho_new, num)
            kernel(num, dist, e_new, cond_masks)
            if n_sat == 1:
                multiply(neg_gamma, e_new, total)
            else:
                subtract(e_new, e_cond[k], change)
                add(log_old, multiply(neg_gamma, change, change), total)
            if pairs:
                # the moved satellite against all S current satellites, chain
                # axis last; its own term, against its old position, is set to
                # 0, as is the held diagonal, and adding 0.0 in order leaves
                # the sum over the S - 1 others exact
                subtract(new_t, satellites.transpose(1, 2, 0), pair_delta)
                multiply(pair_delta, pair_delta, pair_delta)
                reduce(pair_delta, 1, None, pair_d2)
                soften(pair_d2, pair_masks)
                sqrt(pair_d2, pair_d2)
                multiply(rho_new, rho_sat, pair_num)
                kernel(pair_num, pair_d2, pair_new, pair_masks)
                pair_new[k] = 0.0
                subtract(pair_new, e_pair[k], pair_old)
                reduce(pair_old, 0, None, change)
                subtract(total, multiply(beta, change, change), total)
            putmask(total, outside, neg_inf)
            return total

        return log

    def commit(self, k: int, accept: np.ndarray) -> None:
        """Take in the pending terms of the last hinted call, which moved
        satellite k, at the chains where accept (m,) is set; S >= 2 only."""
        putmask = np.putmask
        putmask(self.e_cond[k], accept, self.e_new)
        if self.e_pair is not None:
            putmask(self.rho_sat[k], accept, self.rho_new)
            # one (m,) putmask per term: several times faster than copyto's
            # where= on the (S, m) row and column, and than a putmask there,
            # which needs a mask of its target's shape
            for row, column, new in self.pair_views[k]:
                putmask(row, accept, new)
                putmask(column, accept, new)


class PairwiseBiparametric(ConditionalAnsatz):
    """Two-parameter family with conditioning and satellite-satellite factors.

    log f~ = -gamma sum_n E_H(r, s_n) - beta sum_{i<j} E_H(s_i, s_j),
    supported on omega^(N-1), with gamma > 0, so that f vanishes wherever a
    satellite meets r, and beta >= 0.  beta > 0 makes every satellite
    coincidence a zero of f as well.
    """

    family = "pairwise"
    couplings = ("gamma", "beta")

    def __init__(self, density, space, gamma: float, beta: float):
        super().__init__(density, space)
        self.check_couplings(gamma, beta)
        self.gamma = float(gamma)
        self.beta = float(beta)

    @staticmethod
    def check_couplings(gamma: float, beta: float):
        """The family's coupling range: finite gamma > 0 and beta >= 0."""
        if not np.isfinite(gamma) or not np.isfinite(beta):
            raise AnsatzError("gamma and beta must be finite")
        if gamma <= 0.0:
            raise AnsatzError("gamma must be positive")
        if beta < 0.0:
            raise AnsatzError("beta must be non-negative")

    @property
    def acting_couplings(self) -> tuple[float, ...]:
        # beta weighs satellite pairs, and one satellite has none
        if self.n_satellites < 2:
            return (self.gamma,)
        return (self.gamma, self.beta)

    @property
    def fermionic_compatible(self) -> bool:
        return self.n_satellites < 2 or self.beta > 0.0

    def log_unnormalized(self, r, satellites, moved=None):
        if moved is not None:
            k, new, log_old, state = moved
            return state.log(satellites, k, new, log_old)
        r, satellites = self._check_shapes(r, satellites)
        e_cond = pair_energy(self.density, self.space, r[..., None, :], satellites)
        support = np.where(self.space.in_omega(satellites).all(axis=-1), 0.0, -np.inf)
        total = support - self.gamma * np.sum(e_cond, axis=-1)
        if self.beta > 0.0 and self.n_satellites >= 2:
            ii, jj = np.triu_indices(self.n_satellites, k=1)
            e_sat = pair_energy(
                self.density, self.space, satellites[..., ii, :], satellites[..., jj, :]
            )
            total = total - self.beta * np.sum(e_sat, axis=-1)
        return total

    def chain_state(self, r, satellites):
        r, satellites = self._check_shapes(r, satellites)
        density, space, n_sat = self.density, self.space, self.n_satellites
        rho_r = density.value(r)
        rho_sat = e_cond = e_pair = None
        if n_sat >= 2:
            e_cond = pair_energy(density, space, r[:, None, :], satellites).T.copy()
            if self.beta > 0.0:
                ii, jj = np.triu_indices(n_sat, k=1)
                e = pair_energy(density, space, satellites[:, ii], satellites[:, jj]).T
                rho_sat = density.value(satellites).T.copy()
                e_pair = np.zeros((n_sat, n_sat, len(r)))
                e_pair[ii, jj] = e_pair[jj, ii] = e
        return PairChainState(self, r, rho_r, rho_sat, e_cond, e_pair)

    def score(self, r, satellites):
        r, satellites = self._check_shapes(r, satellites)
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


class FrozenOrbitalProduct(ConditionalAnsatz):
    """Debug family: satellites i.i.d. from rho/N, independent of r.

    f = prod_n rho(s_n)/N is exactly normalized and its score vanishes
    identically, so the Fisher term is exactly zero.  Carries no
    coincidence zeros at all.
    """

    family = "frozen"
    closed_form_coulomb = True
    marginal_matched = True

    def log_unnormalized(self, r, satellites, moved=None):
        if moved is not None:
            satellites = self.proposal(satellites, moved[0], moved[1])
        # np.sum adds 8 or more terms in an order set by the memory layout,
        # so the sampler's chain-last views are summed as a C-ordered copy
        r, satellites = self._check_shapes(r, np.ascontiguousarray(satellites))
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

    def __init__(self, density, space, width: float = 1.0):
        super().__init__(density, space)
        if not width > 0.0:
            raise AnsatzError("width must be positive")
        self.width = float(width)

    def log_unnormalized(self, r, satellites, moved=None):
        if moved is not None:
            satellites = self.proposal(satellites, moved[0], moved[1])
        r, satellites = self._check_shapes(r, satellites)
        # summed in C order, whatever the layout, as FrozenOrbitalProduct does
        delta = np.subtract(satellites, r[..., None, :], order="C")
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
    for cls in (PairwiseBiparametric, FrozenOrbitalProduct, GaussianToy)
}


def family_class(family: str) -> type[ConditionalAnsatz]:
    """The registered class of a family name; AnsatzError if unknown."""
    try:
        return FAMILIES[family]
    except KeyError:
        raise AnsatzError(f"unknown ansatz family {family!r}") from None


def bound_status(family: str, n_electrons: int) -> str:
    """The record's `bound` label: "variational" when the energy is an upper
    bound on the ground-state energy, "none" otherwise.  Only a
    marginal-matched family at N = 2 has one: from three electrons on, a
    non-negative spin-free f bounds at best the symmetric (bosonic) ground
    state, not the fermionic one."""
    return "variational" if family_class(family).marginal_matched and n_electrons == 2 else "none"


def build_ansatz(
    family: str,
    density: Density,
    space: SpaceSpec,
    gamma: float = 1.0,
    beta: float = 1.0,
) -> ConditionalAnsatz:
    """An instance of any registered family; gamma and beta reach only
    the families that have couplings."""
    cls = family_class(family)
    if cls.couplings:
        return cls(density, space, gamma, beta)
    return cls(density, space)
