"""Independent reference routes: direct expectations and grid searches.

This module owns the machinery that validates the sampled functionals
against quantities computed another way:

* product wavefunctions with exponential orbitals, where kinetic and
  interaction expectations reduce to radial quadratures;
* the exact two-particle softened-interaction ground state on a 1D
  grid, with the three-point Dirichlet Laplacian: one matrix-free
  Lanczos iteration on the (M, M) amplitude table, projected onto the
  exchange sector, gives both its energy and its vector;
* the decomposition identity <T + V_ee> = Weizsacker + Fisher + Coulomb
  evaluated on the conditional density extracted from a wavefunction;
* a lattice form of the correlation functional that reproduces the grid
  solver's <T> and <V_ee> exactly, and the Levy-Lieb constrained search
  over representable tables (symmetric pair densities with marginal rho
  and zero diagonal), whose minimum at the fermion solver's density is
  that solver's own conditional.

Every grid route uses that one form: the solver's `kinetic_matrix` on
the wavefunction side and the `lattice_*` functional on the (rho, f)
side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import DomainError, _gauss_legendre, grid_spacing, radial_cutoff
from .functionals import prefactor_value, radial_pair_integral
from .sampler import restart_rng


# ---------------------------------------------------------------------------
# reference wavefunctions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductWavefunction:
    """N-fold product of the exponential orbital phi = sqrt(zeta^3/pi) e^(-zeta r)."""

    zeta: float
    n_electrons: int

    def __post_init__(self):
        if not 0.0 < self.zeta < np.inf or self.n_electrons < 2:
            raise DomainError("need a finite zeta > 0 and N >= 2")

    def orbital_sq(self, r: np.ndarray) -> np.ndarray:
        return self.zeta**3 / np.pi * np.exp(-2.0 * self.zeta * np.asarray(r))


@dataclass
class Grid1DWavefunction:
    """Two-particle amplitudes psi(x_i, x_j) on a uniform 1D grid."""

    x: np.ndarray
    psi: np.ndarray
    softening: float

    def __post_init__(self):
        m = self.x.size
        if self.psi.shape != (m, m):
            raise DomainError("psi must be (M, M)")
        self.h = grid_spacing(self.x)
        norm = float(np.sum(self.psi**2) * self.h**2)
        self.psi = self.psi / np.sqrt(norm)

    @property
    def n_electrons(self) -> int:
        return 2

    def density(self) -> np.ndarray:
        """rho on the grid: N * h * sum_x' psi^2."""
        return 2.0 * self.h * np.sum(self.psi**2, axis=1)

    def conditional_table(self) -> np.ndarray:
        """f(x' | x) as an (M, M) table; rows h-sum to 1 where rho > 0."""
        rho = self.density()
        with np.errstate(invalid="ignore", divide="ignore"):
            f = 2.0 * self.psi**2 / rho[:, None]
        return np.where(rho[:, None] > 0.0, f, 0.0)


# ---------------------------------------------------------------------------
# direct expectations (left-hand route)
# ---------------------------------------------------------------------------


@dataclass
class DirectExpectation:
    kinetic: float
    interaction: float

    @property
    def internal(self) -> float:
        return self.kinetic + self.interaction


def _orbital_pair_integral(w: ProductWavefunction) -> float:
    """int int |phi|^2 |phi|^2 / r_12 over two orbital clouds (= 5 zeta / 8)."""
    q_fn = lambda s: 4.0 * np.pi * s * s * w.orbital_sq(s)
    return radial_pair_integral(q_fn, radial_cutoff(w.zeta))


def direct_expectation_product(w: ProductWavefunction) -> DirectExpectation:
    """<T> and <V_ee> of the product state by radial quadrature.

    T = N/2 int |grad phi|^2 with |grad phi|^2 = zeta^2 phi^2, and V_ee
    sums the identical pair integrals of |phi|^2 with the 1/max(r, r')
    angular average of the Coulomb kernel.
    """
    r, wr = _gauss_legendre(256, 0.0, radial_cutoff(w.zeta))
    q = 4.0 * np.pi * r * r * w.orbital_sq(r)  # radial probability density
    kinetic = w.n_electrons * 0.5 * w.zeta**2 * float(np.sum(wr * q))
    pair = _orbital_pair_integral(w)
    n_pairs = w.n_electrons * (w.n_electrons - 1) // 2
    return DirectExpectation(kinetic=kinetic, interaction=n_pairs * pair)


def kinetic_matrix(m: int, h: float) -> np.ndarray:
    """One-particle -(1/2) d2/dx2: three-point stencil, Dirichlet boundaries."""
    kin = np.zeros((m, m))
    np.fill_diagonal(kin, 1.0 / h**2)
    idx = np.arange(m - 1)
    kin[idx, idx + 1] = kin[idx + 1, idx] = -0.5 / h**2
    return kin


def soft_kernel(x: np.ndarray, softening: float) -> np.ndarray:
    """w(x, x') = 1/sqrt((x-x')^2 + a^2) as an (M, M) table."""
    dx = x[:, None] - x[None, :]
    return 1.0 / np.sqrt(dx * dx + softening**2)


def direct_expectation_grid(w: Grid1DWavefunction) -> DirectExpectation:
    """<T> and <V_ee> on the grid: the solver's own quadratic forms."""
    kin = kinetic_matrix(w.x.size, w.h)
    kinetic = float(np.sum(w.psi * (kin @ w.psi + w.psi @ kin))) * w.h**2
    vee = float(np.sum(w.psi**2 * soft_kernel(w.x, w.softening))) * w.h**2
    return DirectExpectation(kinetic=kinetic, interaction=vee)


# ---------------------------------------------------------------------------
# exact diagonalization of the 1D two-particle problem
# ---------------------------------------------------------------------------


def _sector_operator(kin, diagonal, sign):
    """H = K x 1 + 1 x K + D as a map on flattened (M, M) amplitude tables.

    A table psi goes to K psi + psi K + D o psi, with D_ij = v_i + v_j +
    w_ij, projected by (P + sign P^T)/2 onto the exchange sector (sign
    +1 bosons, -1 fermions), so rounding never leaks into the other
    sector.  No matrix over grid pairs is built.
    """

    def matvec(vec):
        psi = vec.reshape(diagonal.shape)
        out = kin @ psi + psi @ kin + diagonal * psi
        return (0.5 * (out + sign * out.T)).ravel()

    return matvec


def _lowest_eigenpair(matvec, start, tol: float = 1e-10):
    """The lowest eigenvalue and its unit Ritz vector of a symmetric
    operator, by Lanczos iteration with full reorthogonalisation from
    `start`.  It stops when the lowest Ritz pair's residual norm, which
    bounds that Ritz value's distance to an eigenvalue, is at most
    tol max(1, |value|), and raises LinAlgError if it never is.  The
    check runs every 8 steps and at breakdown, where beta falls to
    tol max(1, |alpha|): a sector's Krylov space stops growing at the
    sector's dimension, below the vector length."""
    n = start.size
    basis = np.empty((0, n))
    alpha, beta = np.empty(n), np.empty(n)
    v = start / np.linalg.norm(start)
    for j in range(n):
        if j == len(basis):
            # room for 32 more: the basis holds only the vectors built so far
            basis = np.concatenate([basis, np.empty((32, n))])
        basis[j] = v
        w = matvec(v)
        # Gram-Schmidt against every basis vector, twice: the second pass
        # removes what rounding left of the first
        done = basis[: j + 1]
        coef = done @ w
        w -= coef @ done
        again = done @ w
        w -= again @ done
        alpha[j], beta[j] = coef[j] + again[j], np.linalg.norm(w)
        if j % 8 == 7 or j == n - 1 or beta[j] <= tol * max(1.0, abs(alpha[j])):
            tri = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            values, vectors = np.linalg.eigh(tri)
            if abs(beta[j] * vectors[-1, 0]) <= tol * max(1.0, abs(values[0])):
                return float(values[0]), vectors[:, 0] @ done
        v = w / beta[j]
    raise np.linalg.LinAlgError("Lanczos iteration did not converge")


def solve_two_particle_1d(
    n_points: int,
    extent: float,
    potential,
    softening: float = 1.0,
    symmetry: str = "fermion",
) -> Grid1DWavefunction:
    """Ground state of H = -(1/2)(d2/dx1^2 + d2/dx2^2) + v(x1) + v(x2) + w(x1-x2).

    Three-point Laplacian with Dirichlet boundaries on [-extent, extent].
    `potential` maps an (M,) position array to v values.  symmetry
    "fermion" restricts to the antisymmetric two-particle sector,
    "boson" to the symmetric one.  One Lanczos iteration on the (M, M)
    amplitude table gives the energy and the vector.  It starts from the
    sector's all-ones table (sign(j - i) for fermions), which overlaps
    the ground state: H's hops are <= 0 between sector states, so that
    state has one sign above the diagonal, and its largest-magnitude
    entry there is made positive.
    """
    if n_points < 4 or n_points > 64:
        raise DomainError("grid oracle supports 4..64 points")
    if symmetry not in ("fermion", "boson"):
        raise DomainError(f"unknown symmetry {symmetry!r}")
    if not (0.0 < extent < np.inf and 0.0 < softening < np.inf):
        raise DomainError("extent and softening must be finite and > 0")
    m = n_points
    x = np.linspace(-extent, extent, m)
    v = np.asarray(potential(x), dtype=float)
    if not np.all(np.isfinite(v)):
        raise DomainError("the potential must be finite at every grid point")

    sign = -1.0 if symmetry == "fermion" else 1.0
    diagonal = v[:, None] + v[None, :] + soft_kernel(x, softening)
    matvec = _sector_operator(kinetic_matrix(m, x[1] - x[0]), diagonal, sign)
    idx = np.arange(m)
    start = np.ones((m, m)) if sign > 0.0 else np.sign(idx[None, :] - idx[:, None])
    _, ground = _lowest_eigenpair(matvec, start.ravel())
    psi = ground.reshape(m, m)
    upper = psi[np.triu_indices(m, k=1)]
    psi = psi * np.sign(upper[np.argmax(np.abs(upper))])
    return Grid1DWavefunction(x=x, psi=psi, softening=softening)


# ---------------------------------------------------------------------------
# decomposition identity
# ---------------------------------------------------------------------------


@dataclass
class DecompositionReport:
    """Both routes to the internal energy and the residual between them."""

    lhs_internal: float
    weizsacker: float
    fisher: float
    coulomb_expectation: float  # int rho(r) E_f[w] dr, before the prefactor
    residual: float

    @classmethod
    def of(cls, lhs: float, w: float, fisher: float, expect: float, n: int):
        """The report for N electrons, its residual taken at P(N) = (N-1)/2."""
        rhs = w + fisher + prefactor_value(n) * expect
        return cls(lhs, w, fisher, expect, abs(lhs - rhs))


def verify_decomposition_product(w: ProductWavefunction) -> DecompositionReport:
    """Decomposition check for the product state.

    The extracted conditional density f = prod |phi(s_n)|^2 does not
    depend on the conditioning point, so the Fisher term vanishes and
    the Coulomb term is N(N-1)/2 identical orbital pair integrals.
    """
    direct = direct_expectation_product(w)
    r, wr = _gauss_legendre(256, 0.0, radial_cutoff(w.zeta))
    rho_amp = w.n_electrons * w.orbital_sq(r)
    # |rho'|^2 / rho = (2 zeta)^2 rho for the exponential profile
    weiz = float(np.sum(wr * 4.0 * np.pi * r * r * 4.0 * w.zeta**2 * rho_amp)) / 8.0
    pair = _orbital_pair_integral(w)
    # int rho(r) E_f[w(r, first satellite)] dr: rho carries the factor N
    expect = w.n_electrons * pair
    return DecompositionReport.of(direct.internal, weiz, 0.0, expect, w.n_electrons)


def grid_coulomb_expectation(x, rho, f_table, softening) -> float:
    """sum_x rho(x) sum_x' f(x'|x) w(x - x'), before the prefactor."""
    h = float(x[1] - x[0])
    return float(np.sum(rho[:, None] * f_table * soft_kernel(x, softening)) * h * h)


def verify_decomposition_grid(w: Grid1DWavefunction) -> DecompositionReport:
    direct = direct_expectation_grid(w)
    rho = w.density()
    f = w.conditional_table()
    weiz = lattice_weizsacker(w.x, rho)
    fisher = lattice_fisher(w.x, rho, f)
    expect = grid_coulomb_expectation(w.x, rho, f, w.softening)
    return DecompositionReport.of(direct.internal, weiz, fisher, expect, 2)


# ---------------------------------------------------------------------------
# grid systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSystem1D:
    """Fixed density on a uniform 1D grid; the arena for the constrained search."""

    x: np.ndarray
    rho: np.ndarray
    softening: float = 1.0

    def __post_init__(self):
        if self.x.ndim != 1 or self.x.shape != self.rho.shape:
            raise DomainError("x and rho must be matching 1D arrays")
        if self.x.size > 64:
            raise DomainError("grid oracle supports at most 64 points")
        grid_spacing(self.x)  # h is x[1] - x[0], so every spacing must equal it
        if np.any(self.rho < 0.0):
            raise DomainError("rho must be non-negative")

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def n_electrons(self) -> int:
        return 2


def system_from_wavefunction(w: Grid1DWavefunction) -> GridSystem1D:
    return GridSystem1D(x=w.x, rho=w.density(), softening=w.softening)


def system_from_density_values(x, rho, softening=1.0) -> GridSystem1D:
    """The two-electron grid system of rho's shape, rescaled to integrate to 2."""
    system = GridSystem1D(np.asarray(x, dtype=float), np.asarray(rho, dtype=float), softening)
    total = float(system.rho.sum() * system.h)
    if total <= 0.0:
        raise DomainError("density has no mass")
    return replace(system, rho=system.rho * (2.0 / total))


# ---------------------------------------------------------------------------
# lattice correlation functional and the representable search
# ---------------------------------------------------------------------------


def lattice_weizsacker(x: np.ndarray, rho: np.ndarray) -> float:
    """(1/2h) sum_links (sqrt(rho_{i+1}) - sqrt(rho_i))^2, ghost rho = 0 at both ends."""
    h = float(x[1] - x[0])
    root = np.sqrt(np.pad(rho, 1))
    return float(np.sum(np.diff(root) ** 2) / (2.0 * h))


def lattice_fisher(x: np.ndarray, rho: np.ndarray, f_table: np.ndarray) -> float:
    """(1/h) sum_links sqrt(rho_i rho_{i+1}) (1 - h sum_j sqrt(f_{i+1,j} f_{i,j})).

    Each link carries the squared Hellinger distance between neighbouring
    rows of the table, which is jointly convex in the pair table
    rho(x) f(x'|x) and tends to (1/8) int rho int |grad f|^2 / f as
    h -> 0.  Links to the ghost nodes carry no weight.
    """
    h = float(x[1] - x[0])
    weight = np.sqrt(rho[:-1] * rho[1:])
    overlap = h * np.sum(np.sqrt(f_table[:-1] * f_table[1:]), axis=1)
    return float(np.sum(weight * (1.0 - overlap)) / h)


def lattice_gamma(system: GridSystem1D, f_table: np.ndarray) -> float:
    """Lattice Fisher + Coulomb of an f table.

    This is the grid form that follows from the solver's three-point
    Dirichlet Laplacian: for the ground state of either exchange sector,
    lattice_weizsacker + lattice_fisher is the solver's <T> and the
    Coulomb part, with the prefactor (N - 1) / 2, is its <V_ee>, exactly.
    Representable tables vanish on the diagonal, so the boson ground
    state is not among them; the minimum over them at the fermion
    solver's density is the fermion solver's own conditional, which
    makes this the objective for stationarity checks.
    """
    fisher = lattice_fisher(system.x, system.rho, f_table)
    expect = grid_coulomb_expectation(system.x, system.rho, f_table, system.softening)
    return fisher + prefactor_value(system.n_electrons) * expect


class _PairTableSpace:
    """Symmetric pair tables P = rho(x) f(x'|x) with zero diagonal and marginal rho.

    The free variables are the upper-triangle entries p_k = P[i_k, j_k]
    between sites that both carry density; the marginal constraints
    h sum_j P[i, j] = rho_i are linear in p.
    """

    def __init__(self, system: GridSystem1D):
        m = system.x.size
        h = system.h
        rho = system.rho
        iu, ju = np.triu_indices(m, k=1)
        keep = (rho[iu] > 0.0) & (rho[ju] > 0.0)
        self.iu, self.ju = iu[keep], ju[keep]
        self.system, self.m, self.h, self.rho = system, m, h, rho
        active = np.flatnonzero(rho > 0.0)
        n = self.iu.size
        a = np.zeros((m, n))
        a[self.iu, np.arange(n)] = h
        a[self.ju, np.arange(n)] = h
        self.a = a[active]
        self.b = rho[active]
        self.var = np.full(m * m, -1)  # flat table index -> variable index
        self.var[self.iu * m + self.ju] = np.arange(n)
        self.var[self.ju * m + self.iu] = np.arange(n)
        # gradient of the Coulomb part; the link constant
        # (1/h) sum sqrt(rho_i rho_{i+1}) of the Fisher part has none
        pref = prefactor_value(system.n_electrons)
        kernel = soft_kernel(system.x, system.softening)
        self.linear = 2.0 * pref * h * h * kernel[self.iu, self.ju]

    def table(self, p: np.ndarray) -> np.ndarray:
        pair = np.zeros((self.m, self.m))
        pair[self.iu, self.ju] = p
        pair[self.ju, self.iu] = p
        return pair

    def f_table(self, p: np.ndarray) -> np.ndarray:
        pair = self.table(p)
        rho = self.rho[:, None]
        return np.where(rho > 0.0, pair / np.where(rho > 0.0, rho, 1.0), 0.0)

    def objective(self, p: np.ndarray) -> float:
        return lattice_gamma(self.system, self.f_table(p))

    def gradient_hessian(self, p: np.ndarray):
        s = np.sqrt(self.table(p))
        pad = np.pad(s, ((1, 1), (0, 0)))
        neighbours = pad[2:] + pad[:-2]
        inv = np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
        grad_full = -0.5 * neighbours * inv
        grad = self.linear + grad_full[self.iu, self.ju] + grad_full[self.ju, self.iu]

        # d2/dP2 of -sum_links s_{i+1,j} s_{i,j}: tridiagonal in i per column
        hess = np.zeros((p.size, p.size))
        diag_val = (0.25 * neighbours * inv**3).ravel()
        on = self.var >= 0
        np.add.at(hess, (self.var[on], self.var[on]), diag_val[on])
        up, down = self.var[: -self.m], self.var[self.m :]
        link_val = (-0.25 * inv[:-1] * inv[1:]).ravel()
        on = (up >= 0) & (down >= 0)
        np.add.at(hess, (up[on], down[on]), link_val[on])
        np.add.at(hess, (down[on], up[on]), link_val[on])
        return grad, hess

    def start(self, pair: np.ndarray) -> np.ndarray:
        """Scale a symmetric positive table onto the marginals (symmetric Sinkhorn)."""
        p = pair[self.iu, self.ju].astype(float)
        if np.any(p <= 0.0):
            raise DomainError("start table must be positive off the diagonal")
        target = self.rho / self.h
        scale = np.where(self.rho > 0.0, 1.0, 0.0)
        for _ in range(10000):
            row = self.table(p * scale[self.iu] * scale[self.ju]).sum(axis=1)
            if np.max(np.abs(row - target)) <= 1e-13 * target.max():
                break
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                scale = np.where(target > 0.0, scale * np.sqrt(target / row), 0.0)
        else:
            raise DomainError("no positive symmetric table has this marginal")
        p = p * scale[self.iu] * scale[self.ju]
        # least-norm correction puts the marginals exactly in place
        p = p + np.linalg.lstsq(self.a, self.b - self.a @ p, rcond=None)[0]
        if np.any(p <= 0.0):
            raise DomainError("no positive symmetric table has this marginal")
        return p


def pairwise_table(system: GridSystem1D, gamma: float) -> np.ndarray:
    """Density-damped pair candidate as a representable grid table.

    The pair table exp(-gamma rho(x) rho(x') w(x - x')) with a zero
    diagonal, scaled onto the marginal rho by symmetric Sinkhorn (the
    grid analogue of normalizing the continuum family), returned as
    f = P / rho.
    """
    damp = (
        system.rho[:, None]
        * system.rho[None, :]
        * soft_kernel(system.x, system.softening)
    )
    space = _PairTableSpace(system)
    return space.f_table(space.start(np.exp(-gamma * damp)))


@dataclass
class GridSearchResult:
    value: float
    f_table: np.ndarray
    n_iter: int
    converged: bool
    restart_values: list[float]
    init_value: float | None = None

    @property
    def decrease_from_init(self) -> float | None:
        if self.init_value is None:
            return None
        return self.init_value - self.value


_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-15  # stop once half the Newton decrement is below this (Ha)


def _newton_pairs(space: _PairTableSpace, p):
    """Newton in the null space of the marginal constraints, kept inside P > 0.

    Steps are solved in the relative variables dp / p, where the entries
    of a table spanning many decades of density are equally resolved.
    Returns the final p, its objective value, the iteration count and
    whether the decrement fell below the tolerance.
    """
    val = space.objective(p)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        grad, hess = space.gradient_hessian(p)
        _, sv, vt = np.linalg.svd(space.a * p)
        z = vt[int(np.sum(sv > sv[0] * 1e-12)) :].T
        gz = z.T @ (p * grad)
        step_z = np.linalg.lstsq(z.T @ (p[:, None] * hess * p) @ z, -gz, rcond=None)[0]
        decrement = -float(gz @ step_z)
        if decrement <= 2.0 * _NEWTON_TOL:
            return p, val, it, True
        rel = z @ step_z
        t = min(1.0, 0.99 / float(np.max(-rel))) if np.any(rel < 0.0) else 1.0
        for _ in range(60):
            cand = p * (1.0 + t * rel)
            cand_val = space.objective(cand)
            if cand_val <= val - 1e-4 * t * decrement:
                break
            t *= 0.5
        else:
            # no representable decrease at double precision
            return p, val, it, False
        p, val = cand, cand_val
    return p, val, _NEWTON_MAX_ITER, False


def representable_inner_min(
    system: GridSystem1D,
    f_init: np.ndarray | None = None,
    n_restarts: int = 4,
    seed: int = 0,
) -> GridSearchResult:
    """Minimize the lattice functional over representable f tables.

    The tables searched are those of pair densities P = rho(x) f(x'|x)
    that are symmetric, non-negative and zero on the diagonal, with
    marginal rho: the conditionals of antisymmetric two-particle states
    with density rho, so this is the Levy-Lieb constrained search on the
    grid.  Starts from f_init (if given; symmetrized and scaled onto the
    marginal), a uniform off-diagonal table, and n_restarts random
    symmetric tables; returns the best optimum found, with values from
    `lattice_gamma`.  The objective is convex in P (minus a sum of
    geometric means plus a linear term), so each start runs a Newton
    search in the null space of the marginal constraints.
    """
    m = system.x.size
    space = _PairTableSpace(system)
    inits: list[np.ndarray] = []
    init_value = None
    if f_init is not None:
        pair = system.rho[:, None] * np.asarray(f_init, dtype=float)
        p0 = space.start(0.5 * (pair + pair.T))
        init_value = space.objective(p0)
        inits.append(p0)
    inits.append(space.start(np.ones((m, m))))
    for k in range(n_restarts):
        raw = restart_rng(seed, k).random((m, m)) + 1e-3
        inits.append(space.start(raw + raw.T))

    best = None
    values = []
    total_iter = 0
    all_converged = True
    for p0 in inits:
        p, val, iters, conv = _newton_pairs(space, p0)
        values.append(val)
        total_iter += iters
        all_converged = all_converged and conv
        if best is None or val < best[1]:
            best = (space.f_table(p), val)

    f_star, val = best
    return GridSearchResult(
        value=val,
        f_table=f_star,
        n_iter=total_iter,
        converged=all_converged,
        restart_values=values,
        init_value=init_value,
    )
