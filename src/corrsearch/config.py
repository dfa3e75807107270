"""Run configuration: sectioned key-value files -> validated dataclasses.

The on-disk format is INI-style with sections [system], [density],
[ansatz], [sampler] and [optimize].  Every field except the electron
count and nuclear charge has a default.  Parsing errors always name the
offending section and field.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, asdict, replace

from .ansatz import FAMILIES
from .domain import (
    Density,
    ExponentialDensity,
    ExponentialMixtureDensity,
    ExternalPotential,
    SpaceSpec,
    Tabulated1DDensity,
)
from .optimizer import OptimizeSpec
from .sampler import SamplerSettings

import numpy as np


class ConfigError(ValueError):
    """Invalid or missing configuration value; message names the field."""


@dataclass(frozen=True)
class SystemConfig:
    n_electrons: int
    z: float
    dimensionality: str = "3d"   # "3d" | "1d"
    radius: float = 10.0
    softening: float = 1.0


@dataclass(frozen=True)
class DensityConfig:
    family: str = "exponential"
    zeta: float = 1.0
    zetas: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()
    table_path: str = ""


@dataclass(frozen=True)
class AnsatzConfig:
    family: str = "pairwise"
    gamma: float = 1.0
    beta: float = 1.0


@dataclass(frozen=True)
class SamplerConfig:
    conditioning_points: int = 512
    samples: int = 256
    burn_in: int = 512
    thinning: int = 4
    walkers: int = 1
    sigma: float = 0.5
    seed: int = 0
    tune: bool = True
    workers: int = 1


@dataclass(frozen=True)
class OptimizeConfig:
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
    crn: bool = True


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    density: DensityConfig = field(default_factory=DensityConfig)
    ansatz: AnsatzConfig = field(default_factory=AnsatzConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    optimize: OptimizeConfig = field(default_factory=OptimizeConfig)
    prefactor: str = "half"
    test_mode: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        def tup(x):
            return tuple(x) if isinstance(x, (list, tuple)) else x

        dens = dict(data["density"])
        dens["zetas"] = tup(dens.get("zetas", ()))
        dens["weights"] = tup(dens.get("weights", ()))
        return cls(
            system=SystemConfig(**data["system"]),
            density=DensityConfig(**dens),
            ansatz=AnsatzConfig(**data["ansatz"]),
            sampler=SamplerConfig(**data["sampler"]),
            optimize=OptimizeConfig(**data["optimize"]),
            prefactor=data.get("prefactor", "half"),
            test_mode=data.get("test_mode", False),
        )


_SECTIONS = ("system", "density", "ansatz", "sampler", "optimize")


class _SectionReader:
    def __init__(self, parser: configparser.ConfigParser, section: str):
        self.parser = parser
        self.section = section
        self.seen: set[str] = set()

    def _fetch(self, key: str, conv, default, required: bool):
        self.seen.add(key)
        if not self.parser.has_option(self.section, key):
            if required:
                raise ConfigError(f"[{self.section}] missing required field '{key}'")
            return default
        raw = self.parser.get(self.section, key)
        try:
            return conv(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"[{self.section}] field '{key}': cannot parse {raw!r} ({exc})"
            ) from None

    def get_int(self, key, default=None, required=False):
        return self._fetch(key, int, default, required)

    def get_float(self, key, default=None, required=False):
        return self._fetch(key, float, default, required)

    def get_str(self, key, default=None, required=False):
        return self._fetch(key, str, default, required)

    def get_bool(self, key, default=None, required=False):
        def conv(raw):
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")

        return self._fetch(key, conv, default, required)

    def get_floats(self, key, default=(), required=False):
        def conv(raw):
            return tuple(float(t) for t in raw.replace(",", " ").split())

        return self._fetch(key, conv, default, required)

    def check_unknown(self):
        if not self.parser.has_section(self.section):
            return
        for key in self.parser.options(self.section):
            if key not in self.seen:
                raise ConfigError(f"[{self.section}] unknown field '{key}'")


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse config text; overrides (e.g. from CLI flags) are applied last.

    Recognized override keys: seed, prefactor, test_mode.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    if not parser.has_section("system"):
        raise ConfigError("[system] missing required field 'n'")

    overrides = overrides or {}

    sys_r = _SectionReader(parser, "system")
    system = SystemConfig(
        n_electrons=sys_r.get_int("n", required=True),
        z=sys_r.get_float("z", required=True),
        dimensionality=sys_r.get_str("dimensionality", "3d"),
        radius=sys_r.get_float("radius", 10.0),
        softening=sys_r.get_float("softening", 1.0),
    )
    sys_r.check_unknown()
    if system.dimensionality not in ("3d", "1d"):
        raise ConfigError("[system] field 'dimensionality': must be '3d' or '1d'")
    if system.n_electrons < 1:
        raise ConfigError("[system] field 'n': must be >= 1")
    if system.radius <= 0.0:
        raise ConfigError("[system] field 'radius': must be positive")

    den_r = _SectionReader(parser, "density")
    density = DensityConfig(
        family=den_r.get_str("family", "exponential"),
        zeta=den_r.get_float("zeta", 1.0),
        zetas=den_r.get_floats("zetas", ()),
        weights=den_r.get_floats("weights", ()),
        table_path=den_r.get_str("table_path", ""),
    )
    den_r.check_unknown()
    if density.family not in ("exponential", "exponential-mixture", "tabulated-1d"):
        raise ConfigError(f"[density] field 'family': unknown family {density.family!r}")
    if density.family == "exponential" and density.zeta <= 0.0:
        raise ConfigError("[density] field 'zeta': must be positive")
    if density.family == "exponential-mixture" and not density.zetas:
        raise ConfigError("[density] field 'zetas': required for the mixture family")

    ans_r = _SectionReader(parser, "ansatz")
    ansatz = AnsatzConfig(
        family=ans_r.get_str("family", "pairwise"),
        gamma=ans_r.get_float("gamma", 1.0),
        beta=ans_r.get_float("beta", 1.0),
    )
    ans_r.check_unknown()
    if ansatz.family not in FAMILIES:
        raise ConfigError(
            f"[ansatz] field 'family': unknown family {ansatz.family!r}; "
            f"choose from {sorted(FAMILIES)}"
        )

    smp_r = _SectionReader(parser, "sampler")
    sampler = SamplerConfig(
        conditioning_points=smp_r.get_int("conditioning_points", 512),
        samples=smp_r.get_int("samples", 256),
        burn_in=smp_r.get_int("burn_in", 512),
        thinning=smp_r.get_int("thinning", 4),
        walkers=smp_r.get_int("walkers", 1),
        sigma=smp_r.get_float("sigma", 0.5),
        seed=smp_r.get_int("seed", 0),
        tune=smp_r.get_bool("tune", True),
        workers=smp_r.get_int("workers", 1),
    )
    smp_r.check_unknown()
    if not (np.isfinite(sampler.sigma) and sampler.sigma > 0.0):
        raise ConfigError("[sampler] field 'sigma': must be positive and finite")

    opt_r = _SectionReader(parser, "optimize")
    optimize = OptimizeConfig(
        zeta_min=opt_r.get_float("zeta_min", 1.0),
        zeta_max=opt_r.get_float("zeta_max", 2.5),
        gamma_min=opt_r.get_float("gamma_min", 0.05),
        gamma_max=opt_r.get_float("gamma_max", 50.0),
        beta_min=opt_r.get_float("beta_min", 0.0),
        beta_max=opt_r.get_float("beta_max", 50.0),
        gamma_init=opt_r.get_float("gamma_init", 1.0),
        beta_init=opt_r.get_float("beta_init", 1.0),
        max_iter_inner=opt_r.get_int("max_iter_inner", 60),
        max_iter_outer=opt_r.get_int("max_iter_outer", 40),
        tol=opt_r.get_float("tol", 1e-3),
        crn=opt_r.get_bool("crn", True),
    )
    opt_r.check_unknown()

    cfg = RunConfig(
        system=system,
        density=density,
        ansatz=ansatz,
        sampler=sampler,
        optimize=optimize,
        prefactor=str(overrides.get("prefactor", "half")),
        test_mode=bool(overrides.get("test_mode", False)),
    )
    if "seed" in overrides:
        cfg = replace(cfg, sampler=replace(cfg.sampler, seed=int(overrides["seed"])))
    _validate_cross(cfg)
    return cfg


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


def _validate_cross(cfg: RunConfig):
    if cfg.prefactor not in ("half", "full"):
        raise ConfigError("prefactor must be 'half' or 'full'")
    if cfg.density.family == "tabulated-1d" and cfg.system.dimensionality != "1d":
        raise ConfigError("[density] field 'family': tabulated-1d needs a 1d system")
    gamma_searched = "gamma" in FAMILIES[cfg.ansatz.family].couplings
    if gamma_searched and cfg.ansatz.gamma <= 0.0 and not cfg.test_mode:
        raise ConfigError("[ansatz] field 'gamma': must be positive outside test mode")
    if cfg.optimize.gamma_min <= 0.0 and not cfg.test_mode:
        raise ConfigError("[optimize] field 'gamma_min': must be positive outside test mode")


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------


def build_space(cfg: RunConfig) -> SpaceSpec:
    dim = 3 if cfg.system.dimensionality == "3d" else 1
    return SpaceSpec(
        dim=dim,
        radius=cfg.system.radius,
        softening=cfg.system.softening,
        n_electrons=cfg.system.n_electrons,
    )


def build_density(cfg: RunConfig, zeta: float | None = None) -> Density:
    dim = 3 if cfg.system.dimensionality == "3d" else 1
    n = cfg.system.n_electrons
    fam = cfg.density.family
    if fam == "exponential":
        return ExponentialDensity(zeta or cfg.density.zeta, n, dim)
    if fam == "exponential-mixture":
        weights = cfg.density.weights or tuple(
            1.0 / len(cfg.density.zetas) for _ in cfg.density.zetas
        )
        return ExponentialMixtureDensity(cfg.density.zetas, weights, n, dim)
    if not cfg.density.table_path:
        raise ConfigError("[density] field 'table_path': required for tabulated-1d")
    data = np.loadtxt(cfg.density.table_path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ConfigError(
            "[density] field 'table_path': file must have two columns (x, rho)"
        )
    return Tabulated1DDensity(data[:, 0], data[:, 1], n)


def build_potential(cfg: RunConfig) -> ExternalPotential:
    if cfg.system.z == 0.0:
        return ExternalPotential(kind="none", z=0.0)
    if cfg.system.dimensionality == "3d":
        return ExternalPotential(kind="coulomb-nucleus", z=cfg.system.z)
    return ExternalPotential(
        kind="softened-1d", z=cfg.system.z, softening=cfg.system.softening
    )


def _in_section(section: str, build, **fields):
    """build(**fields), with its ValueError re-raised as a ConfigError
    that names the section."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def build_sampler_settings(cfg: RunConfig) -> SamplerSettings:
    s = cfg.sampler
    if s.samples < 2:
        # the within-chain score variance needs two kept samples
        raise ConfigError("[sampler] samples must be >= 2")
    return _in_section(
        "sampler",
        SamplerSettings,
        sigma=s.sigma,
        burn_in=s.burn_in,
        samples=s.samples,
        thinning=s.thinning,
        walkers=s.walkers,
        conditioning_points=s.conditioning_points,
        seed=s.seed,
        tune=s.tune,
        workers=s.workers,
    )


def build_optimize_spec(cfg: RunConfig) -> OptimizeSpec:
    o = cfg.optimize
    return _in_section(
        "optimize",
        OptimizeSpec,
        zeta_bounds=(o.zeta_min, o.zeta_max),
        gamma_bounds=(o.gamma_min, o.gamma_max),
        beta_bounds=(o.beta_min, o.beta_max),
        gamma_init=o.gamma_init,
        beta_init=o.beta_init,
        max_iter_inner=o.max_iter_inner,
        max_iter_outer=o.max_iter_outer,
        tol_inner=o.tol,
        tol_outer=o.tol,
        crn=o.crn,
        seed=cfg.sampler.seed,
    )


def config_to_text(cfg: RunConfig) -> str:
    """Serialize back to the INI format (used for record round-trips)."""
    parser = configparser.ConfigParser()
    parser["system"] = {
        "n": str(cfg.system.n_electrons),
        "z": repr(cfg.system.z),
        "dimensionality": cfg.system.dimensionality,
        "radius": repr(cfg.system.radius),
        "softening": repr(cfg.system.softening),
    }
    dens = {"family": cfg.density.family, "zeta": repr(cfg.density.zeta)}
    if cfg.density.zetas:
        dens["zetas"] = " ".join(repr(z) for z in cfg.density.zetas)
    if cfg.density.weights:
        dens["weights"] = " ".join(repr(w) for w in cfg.density.weights)
    if cfg.density.table_path:
        dens["table_path"] = cfg.density.table_path
    parser["density"] = dens
    parser["ansatz"] = {
        "family": cfg.ansatz.family,
        "gamma": repr(cfg.ansatz.gamma),
        "beta": repr(cfg.ansatz.beta),
    }
    parser["sampler"] = {
        "conditioning_points": str(cfg.sampler.conditioning_points),
        "samples": str(cfg.sampler.samples),
        "burn_in": str(cfg.sampler.burn_in),
        "thinning": str(cfg.sampler.thinning),
        "walkers": str(cfg.sampler.walkers),
        "sigma": repr(cfg.sampler.sigma),
        "seed": str(cfg.sampler.seed),
        "tune": str(cfg.sampler.tune).lower(),
        "workers": str(cfg.sampler.workers),
    }
    parser["optimize"] = {
        "zeta_min": repr(cfg.optimize.zeta_min),
        "zeta_max": repr(cfg.optimize.zeta_max),
        "gamma_min": repr(cfg.optimize.gamma_min),
        "gamma_max": repr(cfg.optimize.gamma_max),
        "beta_min": repr(cfg.optimize.beta_min),
        "beta_max": repr(cfg.optimize.beta_max),
        "gamma_init": repr(cfg.optimize.gamma_init),
        "beta_init": repr(cfg.optimize.beta_init),
        "max_iter_inner": str(cfg.optimize.max_iter_inner),
        "max_iter_outer": str(cfg.optimize.max_iter_outer),
        "tol": repr(cfg.optimize.tol),
        "crn": str(cfg.optimize.crn).lower(),
    }
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
