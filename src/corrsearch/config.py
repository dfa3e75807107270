"""Run configuration: sectioned key-value files -> validated dataclasses.

The on-disk format is INI-style with sections [system], [density],
[ansatz], [sampler] and [optimize].  The section dataclasses below are
the whole schema: each field is one key (its name, or the `key` in its
metadata), converted by the field's type, and every field without a
default is required; parsing walks those fields.  The sampler,
optimizer and geometry defaults and range checks belong to
`SamplerSettings`, `OptimizeSpec` and `SpaceSpec`; the file is checked
against them when it loads, whatever the command.
Errors always name the offending section and field.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

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
    n_electrons: int = field(metadata={"key": "n"})
    z: float
    dimensionality: str = "3d"   # "3d" | "1d"
    radius: float = SpaceSpec.radius
    softening: float = SpaceSpec.softening


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
    conditioning_points: int = SamplerSettings.conditioning_points
    samples: int = SamplerSettings.samples
    burn_in: int = SamplerSettings.burn_in
    thinning: int = SamplerSettings.thinning
    walkers: int = SamplerSettings.walkers
    sigma: float = SamplerSettings.sigma
    seed: int = SamplerSettings.seed
    # no effect: the sampler picks its pool thread from the batch's step-chunks;
    # kept, range-checked, so that existing files still load
    workers: int = 1


@dataclass(frozen=True)
class OptimizeConfig:
    zeta_min: float = OptimizeSpec.zeta_bounds[0]
    zeta_max: float = OptimizeSpec.zeta_bounds[1]
    gamma_min: float = OptimizeSpec.gamma_bounds[0]
    gamma_max: float = OptimizeSpec.gamma_bounds[1]
    beta_min: float = OptimizeSpec.beta_bounds[0]
    beta_max: float = OptimizeSpec.beta_bounds[1]
    gamma_init: float = OptimizeSpec.gamma_init
    beta_init: float = OptimizeSpec.beta_init
    max_iter_inner: int = OptimizeSpec.max_iter_inner
    max_iter_outer: int = OptimizeSpec.max_iter_outer
    tol: float = OptimizeSpec.tol
    # no effect: every search takes its seed from the common-random-number
    # substream; kept so that existing files still load
    crn: bool = True


_SECTIONS = {
    "system": SystemConfig,
    "density": DensityConfig,
    "ansatz": AnsatzConfig,
    "sampler": SamplerConfig,
    "optimize": OptimizeConfig,
}


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    density: DensityConfig = field(default_factory=DensityConfig)
    ansatz: AnsatzConfig = field(default_factory=AnsatzConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    optimize: OptimizeConfig = field(default_factory=OptimizeConfig)

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# field type (a string under postponed annotations) -> parser of the raw text
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "tuple[float, ...]": lambda raw: tuple(float(t) for t in raw.replace(",", " ").split()),
}


def _key(f) -> str:
    return f.metadata.get("key", f.name)


def _read_section(parser: configparser.ConfigParser, name: str):
    """The section's dataclass from the parser: absent keys take the field
    default, a field without one is required, unknown keys are rejected."""
    schema = _SECTIONS[name]
    values = {}
    for f in fields(schema):
        key = _key(f)
        if not parser.has_option(name, key):
            if f.default is MISSING:
                raise ConfigError(f"[{name}] missing required field '{key}'")
            continue
        raw = parser.get(name, key)
        try:
            values[f.name] = _PARSERS[f.type](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{name}] field '{key}': cannot parse {raw!r} ({exc})") from None
    if parser.has_section(name):
        known = {_key(f) for f in fields(schema)}
        for key in parser.options(name):
            if key not in known:
                raise ConfigError(f"[{name}] unknown field '{key}'")
    return schema(**values)


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and check config text; overrides (e.g. from CLI flags) are
    applied last.

    Recognized override key: seed; others are ignored.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    overrides = overrides or {}
    cfg = RunConfig(**{name: _read_section(parser, name) for name in _SECTIONS})
    if "seed" in overrides:
        cfg = replace(cfg, sampler=replace(cfg.sampler, seed=int(overrides["seed"])))
    _validate(cfg)
    return cfg


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


def _validate(cfg: RunConfig):
    """The checks no built object owns, and a build of each object that
    owns its section's range checks (`SpaceSpec`, `ExternalPotential`, the
    analytic densities, `SamplerSettings`, `OptimizeSpec`), so every
    command rejects a bad section at load.  A tabulated density is read
    from its file only when a command builds it."""
    if cfg.system.dimensionality not in ("3d", "1d"):
        raise ConfigError("[system] field 'dimensionality': must be '3d' or '1d'")
    build_space(cfg)
    _in_section("system", build_potential, cfg=cfg)
    density = cfg.density
    if density.family not in ("exponential", "exponential-mixture", "tabulated-1d"):
        raise ConfigError(f"[density] field 'family': unknown family {density.family!r}")
    if density.family != "tabulated-1d":
        _in_section("density", build_density, cfg=cfg)
    if cfg.ansatz.family not in FAMILIES:
        raise ConfigError(
            f"[ansatz] field 'family': unknown family {cfg.ansatz.family!r}; "
            f"choose from {sorted(FAMILIES)}"
        )
    if density.family == "tabulated-1d" and cfg.system.dimensionality != "1d":
        raise ConfigError("[density] field 'family': tabulated-1d needs a 1d system")
    family = FAMILIES[cfg.ansatz.family]
    if family.couplings:
        _in_section("ansatz", family.check_couplings, gamma=cfg.ansatz.gamma, beta=cfg.ansatz.beta)
    build_sampler_settings(cfg)
    build_optimize_spec(cfg)


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------


def build_space(cfg: RunConfig) -> SpaceSpec:
    return _in_section(
        "system",
        SpaceSpec,
        dim=3 if cfg.system.dimensionality == "3d" else 1,
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


def _in_section(section: str, build, **kw):
    """build(**kw), with its ValueError re-raised as a ConfigError that
    names the section, and the key a user writes for each field whose key
    differs from its name."""
    try:
        return build(**kw)
    except ValueError as exc:
        message = str(exc)
        for f in fields(_SECTIONS[section]):
            if "key" in f.metadata:
                message = message.replace(f.name, f.metadata["key"])
        raise ConfigError(f"[{section}] {message}") from None


def build_sampler_settings(cfg: RunConfig) -> SamplerSettings:
    if cfg.sampler.samples < 2:
        # the within-chain score variance needs two kept samples
        raise ConfigError("[sampler] samples must be >= 2")
    if cfg.sampler.workers < 1:
        raise ConfigError("[sampler] workers must be >= 1")
    kw = {k: v for k, v in asdict(cfg.sampler).items() if k != "workers"}
    return _in_section("sampler", SamplerSettings, **kw)


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
        tol=o.tol,
    )

