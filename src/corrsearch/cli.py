"""Command line interface.

Subcommands:
    energy              evaluate the energy of a configured pair
    optimize            nested search over density scale and couplings
    compare-ansatz      rank conditional families on one density
    verify              run the exact decomposition cross-checks
    sample-diagnostics  the estimator's chains: acceptance, ESS, error bars

The four config-driven commands load through `_setup` (the config with
`--seed` applied, its space and its density, and `--out` checked before
any sampling, so a path that cannot be a directory costs no work), and
every command writes its `record.json`, and `optimize` its `trace.csv`,
through `_write`.  `verify` reads no config and takes only `--out`,
checked before it computes; without it no record is written.

Exit codes: 0 success, 1 invalid input, 2 numerical failure,
3 tolerance failure in `verify`.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import shlex
import sys
import time

import numpy as np

from .ansatz import (
    AnsatzError,
    EstimatorError,
    FAMILIES,
    bound_status,
    build_ansatz,
    check_conditions,
)
from .config import (
    ConfigError,
    RunConfig,
    build_density,
    build_potential,
    build_space,
    load_config,
)
from .domain import Density, DomainError, SpaceSpec
from .functionals import (
    conditional_moments,
    gamma_from_moments,
    prefactor_value,
    quadrature_applies,
    total_energy,
)
from .optimizer import fresh_estimate, inner_minimize, outer_minimize
from .oracle import (
    ProductWavefunction,
    solve_two_particle_1d,
    verify_decomposition_grid,
    verify_decomposition_product,
)
from .records import RunRecord, run_directory, save_record, save_trace
from .sampler import batch_means_stderr, effective_sample_size
from . import __version__

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_TOLERANCE = 3

SEARCHABLE = [name for name, cls in FAMILIES.items() if cls.searchable]


def _jsonable(obj):
    """Recursively convert numpy scalars and non-finite floats for JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if math.isfinite(val) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", required=True, help="path to the run config file")
    sub.add_argument("--seed", type=int, default=None, help="override the sampler seed")
    sub.add_argument("--out", default=None, help="output directory (default runs/<stamp>-<seed>)")
    # a single value, kept so that existing command lines still parse
    sub.add_argument(
        "--prefactor",
        choices=("half",),
        default="half",
        help="interaction prefactor (N-1)/2, the only choice",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrsearch",
        description="Conditional-density energy decomposition and variational search.",
    )
    parser.add_argument("--version", action="version", version=f"corrsearch {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_energy = subs.add_parser("energy", help="evaluate the energy once")
    _add_common(p_energy)
    p_energy.add_argument(
        "--method",
        choices=("auto", "mc", "quadrature"),
        default="auto",
        help="route for the correlation terms",
    )
    p_energy.set_defaults(handler=cmd_energy)

    p_opt = subs.add_parser("optimize", help="nested variational search")
    _add_common(p_opt)
    p_opt.add_argument("--method", choices=("auto", "mc", "quadrature"), default="auto")
    p_opt.set_defaults(handler=cmd_optimize)

    p_cmp = subs.add_parser("compare-ansatz", help="rank families on one density")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--families",
        default=",".join(SEARCHABLE),
        help=f"comma separated list, at least two of: {', '.join(SEARCHABLE)}",
    )
    p_cmp.set_defaults(handler=cmd_compare)

    p_ver = subs.add_parser("verify", help="exact decomposition cross-checks")
    p_ver.add_argument("--out", default=None, help="write record.json to this directory")
    p_ver.add_argument("--zeta", type=float, default=27.0 / 16.0)
    p_ver.add_argument("--n", type=int, default=2, help="electron count of the product state")
    p_ver.add_argument("--grid-points", type=int, default=32)
    p_ver.add_argument("--extent", type=float, default=6.0)
    p_ver.add_argument("--z", type=float, default=2.0, help="1D well depth")
    p_ver.add_argument("--softening", type=float, default=1.0)
    p_ver.add_argument("--symmetry", choices=("fermion", "boson"), default="boson")
    p_ver.add_argument("--tol-product", type=float, default=1e-3)
    p_ver.add_argument("--tol-grid", type=float, default=1e-10)
    p_ver.set_defaults(handler=cmd_verify)

    p_diag = subs.add_parser("sample-diagnostics", help="chain health report")
    _add_common(p_diag)
    p_diag.add_argument("--points", type=int, default=4, help="conditioning points to probe")
    p_diag.set_defaults(handler=cmd_diagnostics)

    return parser


def _setup(args) -> tuple[RunConfig, SpaceSpec, Density]:
    """The command's config, with --seed applied, and its space and
    density; a given --out is checked here, before any sampling."""
    cfg = load_config(args.config, {} if args.seed is None else {"seed": args.seed})
    _check_out(args.out)
    return cfg, build_space(cfg), build_density(cfg)


def _check_out(out: str | None) -> None:
    """ConfigError naming --out when the path, if given, can be no run
    directory: its nearest existing part is not a directory, or not one
    this process may write in.  Nothing is made here, so a command that
    fails later leaves no directory behind."""
    if not out:
        return
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {out!r}: {path!r} is not a directory")
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {out!r}: {path!r} is not writable")


def _write(args, config, seed, results, timings=None, status="ok", trace=None) -> str:
    """Save the command's record.json, and trace.csv when given a trace;
    return the directory, args.out or a new one under runs/."""
    record = RunRecord(
        command=args.command_line,
        config=_jsonable(config),
        seed=seed,
        results=_jsonable(results),
        timings=timings or {},
        status=status,
    )
    outdir = run_directory(args.out, seed)
    save_record(record, f"{outdir}/record.json")
    if trace is not None:
        save_trace(trace, f"{outdir}/trace.csv")
    return outdir


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def cmd_energy(args) -> int:
    cfg, space, density = _setup(args)
    potential = build_potential(cfg)
    ansatz = build_ansatz(cfg.ansatz.family, density, space, cfg.ansatz.gamma, cfg.ansatz.beta)

    t0 = time.perf_counter()
    breakdown = total_energy(density, ansatz, potential, cfg.sampler, method=args.method)
    elapsed = time.perf_counter() - t0

    results = {
        "family": cfg.ansatz.family,
        "gamma": cfg.ansatz.gamma,
        "beta": cfg.ansatz.beta,
        "breakdown": breakdown.to_dict(),
        "bound": bound_status(cfg.ansatz.family, cfg.system.n_electrons),
    }
    outdir = _write(args, cfg.to_dict(), cfg.sampler.seed, results, {"energy_seconds": elapsed})

    print(f"family              {cfg.ansatz.family}")
    print(f"one-body gradient   {breakdown.weizsacker:+.6f}")
    print(f"nonlocal gradient   {breakdown.fisher:+.6f} (se {breakdown.fisher_stderr:.2e})")
    print(f"interaction         {breakdown.coulomb:+.6f} (se {breakdown.coulomb_stderr:.2e})")
    print(f"external            {breakdown.external:+.6f}")
    print(f"total               {breakdown.total:+.6f} (se {breakdown.total_stderr:.2e})")
    print(f"record              {outdir}/record.json")
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg, space, density = _setup(args)
    if not density.scale_searched:
        raise ConfigError(f"[density] field 'family': {density.family} has no zeta to search")
    family = FAMILIES[cfg.ansatz.family]
    if not family.searchable:
        raise ConfigError("[ansatz] field 'family': not searchable")
    if args.method == "quadrature" and not quadrature_applies(family, density):
        raise ConfigError("--method quadrature applies only to the frozen family on 3d densities")
    potential = build_potential(cfg)
    config, seed = cfg.to_dict(), cfg.sampler.seed

    t0 = time.perf_counter()
    try:
        result = outer_minimize(
            lambda z: build_density(cfg, zeta=z),
            potential,
            space,
            cfg.ansatz.family,
            cfg.sampler,
            cfg.optimize,
            method=args.method,
        )
    except (Exception, KeyboardInterrupt) as exc:
        timings = {"optimize_seconds": time.perf_counter() - t0}
        error = {"error": f"{type(exc).__name__}: {exc}"}
        outdir = _write(args, config, seed, error, timings, status="partial", trace=[])
        print(f"search aborted: {exc}", file=sys.stderr)
        print(f"partial record      {outdir}/record.json", file=sys.stderr)
        return EXIT_NUMERICAL

    results = {
        "zeta": result.zeta,
        "gamma": result.gamma,
        "beta": result.beta,
        "breakdown": result.energy.to_dict(),
        "n_eval": result.n_eval,
        "converged": result.converged,
        "estimator_calls": result.estimator_calls,
        "inner_first_simplex": result.inner_first_simplex,
        "bound": bound_status(cfg.ansatz.family, cfg.system.n_electrons),
    }
    timings = {"optimize_seconds": time.perf_counter() - t0}
    outdir = _write(args, config, seed, results, timings, trace=result.trace)

    print(f"zeta*               {result.zeta:.6f}")
    if not math.isnan(result.gamma):
        print(f"gamma*              {result.gamma:.6f}")
        print(f"beta*               {result.beta:.6f}")
    print(f"energy              {result.energy.total:+.6f} (se {result.energy.total_stderr:.2e})")
    print(f"evaluations         {result.n_eval}")
    print(f"record              {outdir}/record.json")
    print(f"trace               {outdir}/trace.csv")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg, space, density = _setup(args)
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if len(families) < 2:
        raise ConfigError("--families needs at least two entries")
    if len(set(families)) < len(families):
        raise ConfigError(f"--families lists a family more than once: {args.families}")
    for fam in families:
        if fam not in SEARCHABLE:
            raise ConfigError(f"--families: {fam!r} is not comparable")

    entries = []
    for fam in families:
        inner = inner_minimize(density, space, fam, cfg.sampler, cfg.optimize, method="auto")
        # the parameter-free families ignore the nan couplings
        ansatz = build_ansatz(fam, density, space, inner.gamma, inner.beta)
        fresh = fresh_estimate(density, ansatz, cfg.sampler, "auto")
        report = check_conditions(ansatz, seed=cfg.sampler.seed)
        entries.append(
            {
                "family": fam,
                "gamma": inner.gamma,
                "beta": inner.beta,
                "value": fresh.value,
                "stderr": fresh.stderr,
                "method": fresh.method,
                "bound": bound_status(fam, cfg.system.n_electrons),
                "conditions": {
                    "normalized": report.normalization_pass,
                    "vanishes_at_conditioning": report.vanishes_at_conditioning,
                    "vanishes_at_satellite_pairs": report.vanishes_at_satellite_pairs,
                    "fermionic_compatible": report.fermionic_compatible,
                    "all_pass": report.all_pass,
                },
            }
        )

    entries.sort(key=lambda e: e["value"])
    for i, entry in enumerate(entries):
        entry["rank"] = i + 1
        if i == 0:
            entry["tied_with_previous"] = False
        else:
            prev = entries[i - 1]
            gap = entry["value"] - prev["value"]
            scale = math.sqrt(entry["stderr"] ** 2 + prev["stderr"] ** 2)
            entry["tied_with_previous"] = gap <= 3.0 * scale

    outdir = _write(args, cfg.to_dict(), cfg.sampler.seed, {"ranking": entries})

    print(f"{'rank':<5}{'family':<10}{'Gamma':>12}{'stderr':>11}  flags")
    for entry in entries:
        flags = []
        if entry["tied_with_previous"]:
            flags.append("~tied-with-previous")
        cond = entry["conditions"]
        if not cond["all_pass"]:
            flags.append("conditions-fail")
        if not cond["fermionic_compatible"]:
            flags.append("not-fermionic")
        print(
            f"{entry['rank']:<5}{entry['family']:<10}"
            f"{entry['value']:>12.6f}{entry['stderr']:>11.2e}  {' '.join(flags)}"
        )
    print(f"record              {outdir}/record.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    for flag, tol in (("--tol-product", args.tol_product), ("--tol-grid", args.tol_grid)):
        if not (math.isfinite(tol) and tol > 0.0):
            raise ConfigError(f"{flag} must be finite and positive, got {tol}")
    _check_out(args.out)
    product = verify_decomposition_product(ProductWavefunction(args.zeta, args.n))
    wave = solve_two_particle_1d(
        args.grid_points,
        args.extent,
        lambda x: -args.z / np.sqrt(x * x + args.softening**2),
        softening=args.softening,
        symmetry=args.symmetry,
    )
    grid = verify_decomposition_grid(wave)

    pref = prefactor_value(args.n)
    decomposed = product.weizsacker + product.fisher + pref * product.coulomb_expectation
    print(f"product state (zeta={args.zeta:g}, n={args.n})")
    print(f"  internal direct   {product.lhs_internal:+.8f}")
    print(f"  decomposed        {decomposed:+.8f}")
    print(f"  residual          {product.residual:.2e} (tol {args.tol_product:.1e})")
    print(f"1d grid state ({args.symmetry}, M={args.grid_points})")
    print(f"  internal direct   {grid.lhs_internal:+.8f}")
    print(f"  residual          {grid.residual:.2e} (tol {args.tol_grid:.1e})")

    if args.out:
        config = {
            key: getattr(args, key)
            for key in ("zeta", "n", "grid_points", "extent", "z", "softening", "symmetry")
        }
        results = {"product": dataclasses.asdict(product), "grid": dataclasses.asdict(grid)}
        outdir = _write(args, config, 0, results)
        print(f"record              {outdir}/record.json")

    ok = product.residual <= args.tol_product and grid.residual <= args.tol_grid
    if not ok:
        print("verification FAILED tolerance", file=sys.stderr)
        return EXIT_TOLERANCE
    print("verification passed")
    return EXIT_OK


def cmd_diagnostics(args) -> int:
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    cfg, space, density = _setup(args)
    ansatz = build_ansatz(cfg.ansatz.family, density, space, cfg.ansatz.gamma, cfg.ansatz.beta)
    if ansatz.n_satellites == 0:
        raise ConfigError("[system] field 'n': sample-diagnostics needs n >= 2")
    settings = cfg.sampler

    # one estimator run: its Gamma, and the chains of its first points
    moments = conditional_moments(density, ansatz, settings)
    gamma = gamma_from_moments(moments, ansatz.n_electrons)
    rows = []
    for chain in range(min(args.points, settings.conditioning_points) * settings.walkers):
        point = chain // settings.walkers
        series = moments.pair_series[:, chain]
        ess = effective_sample_size(series)
        rows.append(
            {
                "point": point,
                "r_norm": float(np.linalg.norm(moments.r_points[point])),
                "pair_mean": float(series.mean()),
                "stderr": batch_means_stderr(series),
                "ess": ess,
                "ess_fraction": ess / series.size,
                "acceptance": float(moments.acceptance[chain]),
                "sigma_final": float(moments.sigma_final[chain]),
            }
        )

    results = {"chains": rows, "gamma": gamma.to_dict()}
    outdir = _write(args, cfg.to_dict(), cfg.sampler.seed, results)

    print(
        f"{'|r|':>8}{'<1/|r-s1|>':>12}{'stderr':>11}{'ESS':>9}{'ESS/n':>8}"
        f"{'accept':>9}{'sigma':>9}"
    )
    for row in rows:
        print(
            f"{row['r_norm']:>8.3f}{row['pair_mean']:>12.5f}"
            f"{row['stderr']:>11.2e}{row['ess']:>9.1f}"
            f"{row['ess_fraction']:>8.2f}{row['acceptance']:>9.3f}{row['sigma_final']:>9.3f}"
        )
    print(
        f"correlation term    {gamma.value:+.6f} (se {gamma.stderr:.2e}, "
        f"acceptance {gamma.acceptance:.3f})"
    )
    print(f"record              {outdir}/record.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    args.command_line = "corrsearch " + shlex.join(argv)
    try:
        return args.handler(args)
    except (ConfigError, DomainError, AnsatzError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (EstimatorError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
