"""Run configuration: sectioned key-value files -> validated dataclasses.

The on-disk format is INI-style with sections [system], [density],
[ansatz], [sampler] and [optimize].  The section dataclasses are the
whole schema: each field is one key (its name, or the `key` in its
metadata), converted by the field's type, and every field without a
default is required; parsing walks those fields.  [sampler] and
[optimize] are the settings classes themselves, `SamplerSettings` and
`OptimizeSpec`, so their defaults and range checks apply as the file
loads; `SpaceSpec` and the other objects that [system], [density] and
[ansatz] feed are built at load too, whatever the command.  Keys that
no longer have an effect live in `_RETIRED`: read, checked, then dropped.
Errors always name the offending section and field.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, asdict, dataclass, field, fields

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


_SECTIONS = {
    "system": SystemConfig,
    "density": DensityConfig,
    "ansatz": AnsatzConfig,
    "sampler": SamplerSettings,
    "optimize": OptimizeSpec,
}


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    density: DensityConfig = field(default_factory=DensityConfig)
    ansatz: AnsatzConfig = field(default_factory=AnsatzConfig)
    sampler: SamplerSettings = field(default_factory=SamplerSettings)
    optimize: OptimizeSpec = field(default_factory=OptimizeSpec)

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
    "tuple[float, ...]": lambda raw: tuple(float(t) for t in raw.replace(",", " ").split()),
}


def _workers(raw: str) -> int:
    workers = int(raw)
    if workers < 1:
        raise ValueError("must be >= 1")
    return workers


# keys with no effect that existing files still set: each is parsed and
# checked like a field, then dropped
_RETIRED = {"sampler": {"workers": _workers}, "optimize": {"crn": _parse_bool}}


def _key(f) -> str:
    return f.metadata.get("key", f.name)


def _parse(parser: configparser.ConfigParser, section: str, key: str, convert):
    raw = parser.get(section, key)
    try:
        return convert(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] field '{key}': invalid value {raw!r} ({exc})") from None


def _read_section(parser: configparser.ConfigParser, name: str, given: dict):
    """The section's dataclass from the parser, built through its own range
    checks: absent keys take the field default, a field without one is
    required, retired keys are checked and dropped, unknown keys are
    rejected, and the `given` values (command-line overrides) replace
    the file's."""
    schema = _SECTIONS[name]
    retired = _RETIRED.get(name, {})
    values = {}
    for f in fields(schema):
        key = _key(f)
        if parser.has_option(name, key):
            values[f.name] = _parse(parser, name, key, _PARSERS[f.type])
        elif f.default is MISSING:
            raise ConfigError(f"[{name}] missing required field '{key}'")
    for key, convert in retired.items():
        if parser.has_option(name, key):
            _parse(parser, name, key, convert)
    if parser.has_section(name):
        known = {_key(f) for f in fields(schema)} | retired.keys()
        for key in parser.options(name):
            if key not in known:
                raise ConfigError(f"[{name}] unknown field '{key}'")
    return _in_section(name, schema, **{**values, **given})


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and check config text; overrides (e.g. from CLI flags) take
    the place of the file's values.

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

    given = {name: {} for name in _SECTIONS}
    if "seed" in (overrides or {}):
        given["sampler"]["seed"] = int(overrides["seed"])
    cfg = RunConfig(**{name: _read_section(parser, name, given[name]) for name in _SECTIONS})
    _validate(cfg)
    return cfg


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


def _validate(cfg: RunConfig):
    """The checks no built object owns, and a build of each object that
    owns its section's range checks (`SpaceSpec`, `ExternalPotential`, the
    analytic densities), so every command rejects a bad section at load.
    A tabulated density is read from its file only when a command builds
    it."""
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
    if cfg.sampler.samples < 2:
        # the within-chain score variance needs two kept samples
        raise ConfigError("[sampler] samples must be >= 2")


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
        return ExponentialDensity(cfg.density.zeta if zeta is None else zeta, n, dim)
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


# [sampler] and [optimize] are their settings objects; these two accessors
# stay only for the benchmark's set-up step, which calls them
def build_sampler_settings(cfg: RunConfig) -> SamplerSettings:
    return cfg.sampler


def build_optimize_spec(cfg: RunConfig) -> OptimizeSpec:
    return cfg.optimize
