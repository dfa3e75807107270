"""Spatial domain, electron-density models, external potentials, quadrature.

Everything is expressed in Hartree atomic units.  Positions are numpy
arrays whose last axis is the spatial dimension (3 for atoms, 1 for the
softened line model).  Density models are analytic and defined on the
unbounded domain; the finite radius ``R`` of the working region only
bounds the one-particle volume ``omega`` and uniform proposal draws.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Raised for invalid geometry or density parameters."""


@dataclass(frozen=True)
class SpaceSpec:
    """Working region geometry.

    Attributes:
        dim: spatial dimensionality, 3 (Coulomb) or 1 (softened line).
        radius: half-extent R of the working region Omega (a ball in 3D,
            the interval [-R, R] in 1D).
        softening: softening length a of the 1D interaction kernel
            1/sqrt(dx^2 + a^2).  Ignored in 3D.
        n_electrons: electron count N; fixes omega = vol(Omega)/N.
    """

    dim: int = 3
    radius: float = 10.0
    softening: float = 1.0
    n_electrons: int = 2

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise DomainError(f"dim must be 1 or 3, got {self.dim}")
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError(f"radius must be positive and finite, got {self.radius}")
        if self.dim == 1 and not (np.isfinite(self.softening) and self.softening > 0.0):
            raise DomainError("softening must be positive and finite in 1D")
        if self.n_electrons < 1:
            raise DomainError(f"n_electrons must be >= 1, got {self.n_electrons}")

    @property
    def domain_volume(self) -> float:
        if self.dim == 3:
            return 4.0 / 3.0 * np.pi * self.radius**3
        return 2.0 * self.radius

    @property
    def omega_volume(self) -> float:
        """Volume of the one-particle region omega = vol(Omega)/N."""
        return self.domain_volume / self.n_electrons

    @property
    def omega_radius(self) -> float:
        """Half-extent of omega, kept as a ball (3D) or interval (1D) at the origin."""
        if self.dim == 3:
            return self.radius / self.n_electrons ** (1.0 / 3.0)
        return self.radius / self.n_electrons

    def in_omega(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask: which points lie inside omega.  points: (..., dim)."""
        return sq_norm(np.asarray(points, dtype=float)) <= self.omega_radius**2

    def uniform_omega(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform draws inside omega, shape (n, dim)."""
        if self.dim == 1:
            return rng.uniform(-self.omega_radius, self.omega_radius, size=(n, 1))
        # uniform in a ball: isotropic direction times r ~ b * u^(1/3)
        z = rng.standard_normal((n, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = self.omega_radius * rng.random(n) ** (1.0 / 3.0)
        return z * r[:, None]


def sum_last(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-1), bit for bit, at a fraction of its cost on the
    short axes of positions and satellites: numpy adds fewer than 8 terms
    in order, and so does this loop.  Longer axes go to np.sum."""
    if a.shape[-1] >= 8:
        return np.sum(a, axis=-1)
    out = a[..., 0]
    for i in range(1, a.shape[-1]):
        out = out + a[..., i]
    return out


def sq_norm(points: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis."""
    return sum_last(points * points)


def radial_distance(points: np.ndarray) -> np.ndarray:
    return np.sqrt(sq_norm(np.asarray(points, dtype=float)))


# ---------------------------------------------------------------------------
# density families
# ---------------------------------------------------------------------------


class Density:
    """Common interface for one-particle density models rho(x).

    All models integrate to ``n_electrons`` over the unbounded domain.
    ``value`` and ``gradient`` accept arrays of shape (..., dim);
    ``value`` also takes the points' sq_norm when the caller has it (the
    radial models then skip recomputing it and checking the points).
    ``sample`` draws positions from the probability density rho/N.
    """

    dim: int
    n_electrons: int
    family: str

    def value(self, points: np.ndarray, r2: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


def _check_points(points: np.ndarray, dim: int) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.shape[-1] != dim:
        raise DomainError(
            f"points have dimension {points.shape[-1]}, density expects {dim}"
        )
    return points


@dataclass(frozen=True)
class ExponentialDensity(Density):
    """Single-exponential density.

    3D: rho(r) = N zeta^3/pi exp(-2 zeta r); 1D: rho(x) = N zeta exp(-2 zeta |x|).
    """

    zeta: float
    n_electrons: int
    dim: int = 3
    family: str = "exponential"

    def __post_init__(self):
        if not 0.0 < self.zeta < np.inf:
            raise DomainError(f"zeta must be positive and finite, got {self.zeta}")
        if self.n_electrons < 1:
            raise DomainError("n_electrons must be >= 1")
        if self.dim not in (1, 3):
            raise DomainError("dim must be 1 or 3")
        n, zeta = self.n_electrons, self.zeta
        # 0-d arrays: value runs in every sampler step, and a ufunc converts
        # a Python float argument on every call
        amplitude = n * zeta**3 / np.pi if self.dim == 3 else n * zeta
        object.__setattr__(self, "_amplitude", np.array(amplitude))
        object.__setattr__(self, "_rate", np.array(-2.0 * zeta))

    def value(self, points, r2=None):
        if r2 is None:
            r2 = sq_norm(_check_points(points, self.dim))
        return self._amplitude * np.exp(self._rate * np.sqrt(r2))

    def gradient(self, points):
        points = _check_points(points, self.dim)
        r = radial_distance(points)
        if np.any(r == 0.0):
            raise DomainError("density gradient undefined at the origin cusp")
        rho = self._amplitude * np.exp(-2.0 * self.zeta * r)
        return (-2.0 * self.zeta * rho / r)[..., None] * points

    def sample(self, n, rng):
        if self.dim == 3:
            # radial law r^2 exp(-2 zeta r) is Gamma(shape=3, scale=1/(2 zeta))
            r = rng.gamma(3.0, 1.0 / (2.0 * self.zeta), size=n)
            z = rng.standard_normal((n, 3))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            return z * r[:, None]
        s = rng.exponential(1.0 / (2.0 * self.zeta), size=n)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return (s * sign)[:, None]


@dataclass(frozen=True)
class ExponentialMixtureDensity(Density):
    """Convex combination of exponential profiles with weights summing to 1."""

    zetas: tuple[float, ...]
    weights: tuple[float, ...]
    n_electrons: int
    dim: int = 3
    family: str = "exponential-mixture"

    def __post_init__(self):
        if len(self.zetas) != len(self.weights) or not self.zetas:
            raise DomainError("zetas and weights must be equal-length, non-empty")
        if not all(0.0 < z < np.inf for z in self.zetas):
            raise DomainError(f"all zetas must be positive and finite, got {self.zetas}")
        if not all(w >= 0.0 for w in self.weights):
            raise DomainError("mixture weights must be non-negative")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise DomainError("mixture weights must sum to 1")
        parts = tuple(ExponentialDensity(z, self.n_electrons, self.dim) for z in self.zetas)
        object.__setattr__(self, "_components", parts)

    def value(self, points, r2=None):
        if r2 is None:
            r2 = sq_norm(_check_points(points, self.dim))
        out = np.zeros(np.shape(r2))
        for w, comp in zip(self.weights, self._components):
            out = out + w * comp.value(points, r2)
        return out

    def gradient(self, points):
        points = _check_points(points, self.dim)
        out = np.zeros(points.shape)
        for w, comp in zip(self.weights, self._components):
            out = out + w * comp.gradient(points)
        return out

    def sample(self, n, rng):
        ks = rng.choice(len(self.zetas), size=n, p=np.asarray(self.weights))
        out = np.empty((n, self.dim))
        for k, comp in enumerate(self._components):
            mask = ks == k
            cnt = int(mask.sum())
            if cnt:
                out[mask] = comp.sample(cnt, rng)
        return out


class Tabulated1DDensity(Density):
    """Density tabulated on a uniform 1D grid, linearly interpolated.

    Values are rescaled at construction so that sum(rho) * h = n_electrons,
    matching the plain Riemann convention of the grid oracle.  Outside the
    tabulated range the density is zero.
    """

    dim = 1
    family = "tabulated-1d"

    def __init__(self, x: np.ndarray, values: np.ndarray, n_electrons: int):
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != values.shape or x.size < 2:
            raise DomainError("tabulated density needs matching 1D x/values arrays")
        h = np.diff(x)
        if not np.allclose(h, h[0], rtol=1e-10, atol=1e-12):
            raise DomainError("tabulated density grid must be uniform")
        if np.any(values < 0.0):
            raise DomainError("tabulated density values must be non-negative")
        if n_electrons < 1:
            raise DomainError("n_electrons must be >= 1")
        self.x = x
        self.h = float(h[0])
        total = float(values.sum() * self.h)
        if total <= 0.0:
            raise DomainError("tabulated density must have positive mass")
        self.values = values * (n_electrons / total)
        self.n_electrons = n_electrons
        # scalar spacing keeps the slopes of a constant table exactly zero
        self._slopes = np.gradient(self.values, self.h)
        # CDF of rho/N on the nodes via trapezoid, used for inverse sampling
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (self.values[1:] + self.values[:-1]) * self.h)]
        )
        self._cdf = cdf / cdf[-1]

    def value(self, points, r2=None):
        points = _check_points(points, 1)
        return np.interp(points[..., 0], self.x, self.values, left=0.0, right=0.0)

    def gradient(self, points):
        points = _check_points(points, 1)
        g = np.interp(points[..., 0], self.x, self._slopes, left=0.0, right=0.0)
        return g[..., None]

    def sample(self, n, rng):
        u = rng.random(n)
        return np.interp(u, self._cdf, self.x)[:, None]


# ---------------------------------------------------------------------------
# external potential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExternalPotential:
    """One-body potential v(x).

    kind "coulomb-nucleus": -Z/r at the origin (3D).
    kind "softened-1d": -Z/sqrt(x^2 + a^2) (1D, finite everywhere).
    kind "none": identically zero.
    """

    kind: str = "coulomb-nucleus"
    z: float = 1.0
    softening: float = 1.0

    def __post_init__(self):
        if self.kind not in ("coulomb-nucleus", "softened-1d", "none"):
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.kind != "none" and not 0.0 <= self.z < np.inf:
            raise DomainError(f"nuclear charge z must be non-negative and finite, got {self.z}")
        if self.kind == "softened-1d" and not self.softening > 0.0:
            raise DomainError("softening must be positive")

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self.kind == "none":
            return np.zeros(points.shape[:-1])
        if self.kind == "coulomb-nucleus":
            r = radial_distance(points)
            with np.errstate(divide="ignore"):
                return -self.z / r
        x = points[..., 0]
        return -self.z / np.sqrt(x * x + self.softening**2)


# ---------------------------------------------------------------------------
# quadrature grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes/weights pair; integrate(f) approximates the integral of f."""

    scheme: str
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise DomainError("node/weight count mismatch")

    @property
    def dim(self) -> int:
        return self.nodes.shape[-1]

    def integrate(self, fn) -> float:
        return float(np.sum(self.weights * fn(self.nodes)))


@functools.lru_cache(maxsize=None)
def _unit_gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1], solved once per n, read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(n: int, lo: float, hi: float):
    x, w = _unit_gauss_legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def radial_angular_grid(
    r_max: float = 30.0,
    n_radial: int = 128,
    n_theta: int = 24,
    n_phi: int = 24,
) -> QuadratureGrid:
    """Product quadrature over the 3D ball of radius r_max.

    Gauss-Legendre radially and in cos(theta), uniform in phi.  Radial
    nodes are strictly inside (0, r_max), so integrands with a cusp or
    1/r singularity at the origin never see the origin node.
    """
    r, wr = _gauss_legendre(n_radial, 0.0, r_max)
    mu, wmu = _gauss_legendre(n_theta, -1.0, 1.0)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    wphi = np.full(n_phi, 2.0 * np.pi / n_phi)

    rr, mm, pp = np.meshgrid(r, mu, phi, indexing="ij")
    ww = (
        (wr * r * r)[:, None, None]
        * wmu[None, :, None]
        * wphi[None, None, :]
    )
    st = np.sqrt(1.0 - mm * mm)
    nodes = np.stack(
        [rr * st * np.cos(pp), rr * st * np.sin(pp), rr * mm], axis=-1
    ).reshape(-1, 3)
    return QuadratureGrid("radial-angular", nodes, ww.reshape(-1))


def radial_grid(r_max: float = 30.0, n_radial: int = 128) -> QuadratureGrid:
    """The radial factor of radial_angular_grid alone, for spherically
    symmetric integrands only: its Gauss-Legendre nodes, placed on the z
    axis, with weights 4 pi r^2 w_r.  The product rule's angular weights
    sum to 4 pi, so on such an integrand both rules agree to rounding."""
    r, wr = _gauss_legendre(n_radial, 0.0, r_max)
    nodes = np.zeros((n_radial, 3))
    nodes[:, 2] = r
    return QuadratureGrid("radial", nodes, 4.0 * np.pi * (wr * r * r))


def uniform_1d_grid(radius: float, n: int = 2048) -> QuadratureGrid:
    """Midpoint rule on [-radius, radius]."""
    h = 2.0 * radius / n
    x = -radius + h * (np.arange(n) + 0.5)
    return QuadratureGrid("uniform-1d", x[:, None], np.full(n, h))


def line_grid(radius: float, n_half: int = 160) -> QuadratureGrid:
    """Gauss-Legendre panels [-radius, 0] and [0, radius].

    Splitting at the origin keeps each panel smooth for densities with an
    |x| cusp, so normalization converges far past the 1e-8 contract.
    """
    xr, wr = _gauss_legendre(n_half, 0.0, radius)
    x = np.concatenate([-xr[::-1], xr])
    w = np.concatenate([wr[::-1], wr])
    return QuadratureGrid("line-gauss", x[:, None], w)


def radial_cutoff(zeta: float) -> float:
    """Outer radius of the 3D radial rules for an exponential of slowest
    rate zeta: exp(-2 zeta r) is below exp(-28) there, and the radius is
    never under 20."""
    return max(20.0, 14.0 / zeta)


def default_grid(density: Density) -> QuadratureGrid:
    """A grid resolving the given density to ~1e-9 relative accuracy.  The
    3D densities are spherical, so theirs is the radial rule: it takes
    spherically symmetric integrands only (external_energy refuses it for
    the one potential that is not)."""
    if density.dim == 1:
        if isinstance(density, Tabulated1DDensity):
            extent = float(max(abs(density.x[0]), abs(density.x[-1])))
            return uniform_1d_grid(extent, n=max(2048, 8 * density.x.size))
        zeta_min = min(_zetas_of(density))
        return line_grid(14.0 / zeta_min)
    return radial_grid(r_max=radial_cutoff(min(_zetas_of(density))))


def _zetas_of(density: Density):
    if isinstance(density, ExponentialDensity):
        return (density.zeta,)
    if isinstance(density, ExponentialMixtureDensity):
        return density.zetas
    raise DomainError(f"no analytic decay scale for family {density.family!r}")


def external_energy(density: Density, potential: ExternalPotential, grid: QuadratureGrid) -> float:
    """Integral of v(x) rho(x) over the grid."""
    if grid.dim != density.dim:
        raise DomainError("grid and density dimensionality differ")
    if grid.scheme == "radial" and potential.kind == "softened-1d":
        raise DomainError("the softened-1d potential is not spherical; use radial_angular_grid")
    return float(np.sum(grid.weights * potential.value(grid.nodes) * density.value(grid.nodes)))
