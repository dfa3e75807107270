"""Spatial domain, electron-density models, external potentials, quadrature.

Everything is expressed in Hartree atomic units.  Positions are numpy
arrays whose last axis is the spatial dimension (3 for atoms, 1 for the
softened line model).  Density models are analytic and defined on the
unbounded domain; the finite radius ``R`` of the working region only
bounds the one-particle volume ``omega`` and uniform proposal draws.

This module owns the density registry: each density class declares its
family name and capabilities as class attributes, ``zetas`` (the decay
rates, empty for tabulated data) and ``scale_searched`` (the nested
search varies its one scale ``zeta``), and builds itself from the
[density] section with ``from_section``; DENSITIES maps names to
classes.  Other modules read those attributes instead of naming
families.
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
    def omega_radius(self) -> float:
        """Half-extent of omega, kept as a ball (3D) or interval (1D) at the origin."""
        if self.dim == 3:
            return self.radius / self.n_electrons ** (1.0 / 3.0)
        return self.radius / self.n_electrons

    def interaction(self, d2: np.ndarray) -> np.ndarray:
        """The interaction w at squared distance d2: 1/d in 3D, +inf at
        contact, and 1/sqrt(d^2 + a^2) on the softened line."""
        if self.dim == 3:
            with np.errstate(divide="ignore"):
                return 1.0 / np.sqrt(d2)
        return 1.0 / np.sqrt(d2 + self.softening**2)

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
    ``value`` and ``gradient`` accept arrays of shape (..., dim).
    ``sample`` draws positions from the probability density rho/N.
    The classmethod ``from_section(section, space)`` builds the density
    that a [density] section (the config's DensityConfig) describes for
    the space's N and dimension.
    """

    dim: int
    n_electrons: int
    family: str
    zetas: tuple[float, ...]
    scale_searched = False

    def value(
        self, points: np.ndarray, radius: np.ndarray | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """rho at points (..., dim), shape (...).  radius, the points'
        |x|, may be passed when the caller has it: the radial models then
        skip computing it and checking the points, bit for bit the same
        value, and the others ignore it; value never writes into it.  out,
        an array of the result's shape, receives the value and is returned."""
        raise NotImplementedError

    def gradient(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, points: np.ndarray) -> np.ndarray:
        """The CDF F of rho/N at points (..., dim), shape (...): of the
        radius |x| in 3D and of x itself in 1D.  F(x) of a draw x from
        rho/N is uniform on [0, 1]."""
        raise NotImplementedError


def grid_spacing(x: np.ndarray) -> float:
    """The spacing h of the 1D grid x, which must have at least 2 points
    and be increasing and uniform: every step equals x[1] - x[0] to
    rtol 1e-10 and atol 1e-12.  The grid rule of every 1D table."""
    steps = np.diff(x)
    if x.size < 2 or not (steps[0] > 0.0 and np.allclose(steps, steps[0], rtol=1e-10, atol=1e-12)):
        raise DomainError("x must be an increasing, uniform grid of at least 2 points")
    return float(steps[0])


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
    family = "exponential"
    scale_searched = True

    @classmethod
    def from_section(cls, section, space):
        return cls(section.zeta, space.n_electrons, space.dim)

    @property
    def zetas(self) -> tuple[float, ...]:
        return (self.zeta,)

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

    def value(self, points, radius=None, out=None):
        if radius is None:
            radius = radial_distance(_check_points(points, self.dim))
        # amplitude * exp(rate * radius), one ufunc at a time, in out if given
        rho = np.multiply(self._rate, radius, out)
        rho = np.exp(rho, out)
        return np.multiply(self._amplitude, rho, out)

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

    def cdf(self, points):
        points = _check_points(points, self.dim)
        x = 2.0 * self.zeta * radial_distance(points)
        if self.dim == 3:
            # the radial law is Gamma(3): 1 - e^-x (1 + x + x^2/2)
            return 1.0 - np.exp(-x) * (1.0 + x + 0.5 * x * x)
        tail = 0.5 * np.exp(-x)
        return np.where(points[..., 0] < 0.0, tail, 1.0 - tail)


@dataclass(frozen=True)
class ExponentialMixtureDensity(Density):
    """Convex combination of exponential profiles with weights summing to 1."""

    zetas: tuple[float, ...]
    weights: tuple[float, ...]
    n_electrons: int
    dim: int = 3
    family = "exponential-mixture"

    @classmethod
    def from_section(cls, section, space):
        # equal weights by default
        weights = section.weights or tuple(1.0 / len(section.zetas) for _ in section.zetas)
        return cls(section.zetas, weights, space.n_electrons, space.dim)

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

    def value(self, points, radius=None, out=None):
        if radius is None:
            radius = radial_distance(_check_points(points, self.dim))
        rho = np.zeros(np.shape(radius))
        for w, comp in zip(self.weights, self._components):
            rho = rho + w * comp.value(points, radius)
        if out is None:
            return rho
        np.copyto(out, rho)
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

    def cdf(self, points):
        return sum(w * comp.cdf(points) for w, comp in zip(self.weights, self._components))


class Tabulated1DDensity(Density):
    """Density tabulated on a uniform 1D grid, linearly interpolated.

    Values are rescaled at construction so that sum(rho) * h = n_electrons,
    matching the plain Riemann convention of the grid oracle.  Outside the
    tabulated range the density is zero.
    """

    dim = 1
    family = "tabulated-1d"
    zetas = ()

    @classmethod
    def from_section(cls, section, space):
        """Reads the two-column (x, rho) text file at section.table_path;
        the class fixes the dimension, so space.dim is not used."""
        if not section.table_path:
            raise DomainError("field 'table_path': required for tabulated-1d")
        try:
            data = np.loadtxt(section.table_path, ndmin=2)
        except OSError as exc:
            raise DomainError(f"field 'table_path': {exc}") from None
        if data.shape[1] != 2:
            raise DomainError("field 'table_path': file must have two columns (x, rho)")
        return cls(data[:, 0], data[:, 1], space.n_electrons)

    def __init__(self, x: np.ndarray, values: np.ndarray, n_electrons: int):
        x, values = np.asarray(x, dtype=float), np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != values.shape:
            raise DomainError("tabulated density needs matching 1D x/values arrays")
        self.h = grid_spacing(x)
        if not np.all(np.isfinite(values) & (values >= 0.0)):
            raise DomainError("tabulated density values must be finite and non-negative")
        if n_electrons < 1:
            raise DomainError("n_electrons must be >= 1")
        self.x = x
        total = float(values.sum() * self.h)
        if total <= 0.0:
            raise DomainError("tabulated density must have positive mass")
        self.values = values * (n_electrons / total)
        self.n_electrons = n_electrons
        # scalar spacing keeps the slopes of a constant table exactly zero
        self._slopes = np.gradient(self.values, self.h)
        # CDF of rho/N on the nodes via trapezoid, used for inverse sampling and cdf
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (self.values[1:] + self.values[:-1]) * self.h)]
        )
        self._cdf = cdf / cdf[-1]

    def value(self, points, radius=None, out=None):
        points = _check_points(points, 1)
        rho = np.interp(points[..., 0], self.x, self.values, left=0.0, right=0.0)
        if out is None:
            return rho
        np.copyto(out, rho)
        return out

    def gradient(self, points):
        points = _check_points(points, 1)
        g = np.interp(points[..., 0], self.x, self._slopes, left=0.0, right=0.0)
        return g[..., None]

    def sample(self, n, rng):
        u = rng.random(n)
        return np.interp(u, self._cdf, self.x)[:, None]

    def cdf(self, points):
        # the CDF that sample inverts: 0 below the table and 1 above it
        return np.interp(_check_points(points, 1)[..., 0], self.x, self._cdf)


# the registry: the one place that maps density family names to their classes
DENSITIES = {
    cls.family: cls for cls in (ExponentialDensity, ExponentialMixtureDensity, Tabulated1DDensity)
}


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


def radial_grid(r_max: float, n_radial: int = 128) -> QuadratureGrid:
    """A radial Gauss-Legendre rule over the 3D ball of radius r_max, for
    spherically symmetric integrands only: its nodes, placed on the z axis,
    with weights 4 pi r^2 w_r.  The angular weights of a radial-angular
    product rule sum to 4 pi, so on such an integrand the two agree to
    rounding."""
    r, wr = _gauss_legendre(n_radial, 0.0, r_max)
    nodes = np.zeros((n_radial, 3))
    nodes[:, 2] = r
    return QuadratureGrid("radial", nodes, 4.0 * np.pi * (wr * r * r))


def uniform_1d_grid(radius: float, n: int) -> QuadratureGrid:
    """Midpoint rule on [-radius, radius]."""
    h = 2.0 * radius / n
    x = -radius + h * (np.arange(n) + 0.5)
    return QuadratureGrid("uniform-1d", x[:, None], np.full(n, h))


def line_grid(radius: float) -> QuadratureGrid:
    """Gauss-Legendre panels [-radius, 0] and [0, radius], 160 nodes each.

    Splitting at the origin keeps each panel smooth for densities with an
    |x| cusp, so normalization converges far past the 1e-8 contract.
    """
    xr, wr = _gauss_legendre(160, 0.0, radius)
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
    if isinstance(density, Tabulated1DDensity):
        extent = float(max(abs(density.x[0]), abs(density.x[-1])))
        return uniform_1d_grid(extent, n=max(2048, 8 * density.x.size))
    zeta_min = min(density.zetas)
    if density.dim == 1:
        return line_grid(14.0 / zeta_min)
    return radial_grid(r_max=radial_cutoff(zeta_min))


def external_energy(density: Density, potential: ExternalPotential, grid: QuadratureGrid) -> float:
    """Integral of v(x) rho(x) over the grid."""
    if grid.dim != density.dim:
        raise DomainError("grid and density dimensionality differ")
    if grid.scheme == "radial" and potential.kind == "softened-1d":
        raise DomainError(
            "the softened-1d potential is not spherical, and the radial rule takes only "
            "spherical integrands"
        )
    return float(np.sum(grid.weights * potential.value(grid.nodes) * density.value(grid.nodes)))
