"""Acceptance suite: one test per numbered criterion.

Every test prints exactly one line

    [criterion N] PASS|FAIL: <measured values vs stated tolerance>

and then asserts, so `pytest -v` shows one verdict per criterion and the
printed line carries the numbers.  Tolerances are stated inline and are
not adjusted to the implementation.
"""

import json

import numpy as np
import pytest

from corrsearch.ansatz import (
    FrozenOrbitalProduct,
    GaussianToy,
    PairwiseBiparametric,
)
from corrsearch.cli import main
from corrsearch.domain import (
    ExponentialDensity,
    ExternalPotential,
    SpaceSpec,
)
from corrsearch.functionals import check_conditions, gamma_correlation, total_energy
from corrsearch.oracle import (
    ProductWavefunction,
    lattice_gamma,
    pairwise_table,
    representable_inner_min,
    solve_two_particle_1d,
    system_from_density_values,
    system_from_wavefunction,
    verify_decomposition_product,
)
from corrsearch.sampler import SamplerSettings

from conftest import pooled_runs, read_record, steps_per_chunk

HE_ZETA = 27.0 / 16.0
HE_FLOOR = -2.9037  # best variational ground-state energy, for the bound check


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def soft_atom(x):
    return -2.0 / np.sqrt(x * x + 1.0)


def test_criterion_1_decomposition_identity():
    rep = verify_decomposition_product(ProductWavefunction(HE_ZETA, 2))
    # the literal factor N - 1 = 1, from the report's terms
    literal = abs(rep.lhs_internal - (rep.weizsacker + rep.fisher + rep.coulomb_expectation))
    literal_expected = 5.0 * HE_ZETA / 8.0
    ok = rep.residual <= 1e-3 and abs(literal - literal_expected) <= 1e-3
    report(
        1,
        ok,
        f"halved-prefactor residual {rep.residual:.2e} <= 1e-3; "
        f"literal-prefactor residual {literal:.6f} vs "
        f"5*zeta/8 = {literal_expected:.6f} within 1e-3",
    )


def test_criterion_2_product_pipeline(tmp_path):
    cfg = tmp_path / "he.cfg"
    cfg.write_text(
        "[system]\nn = 2\nz = 2.0\nradius = 8.0\n"
        "[density]\nfamily = exponential\nzeta = 1.2\n"
        "[ansatz]\nfamily = frozen\n"
        "[sampler]\nseed = 11\n"
        "[optimize]\nzeta_min = 1.0\nzeta_max = 2.5\ntol = 1e-4\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    code = main(["optimize", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    record = read_record(str(out / "record.json"))
    zeta = record["results"]["zeta"]
    breakdown = record["results"]["breakdown"]
    total = breakdown["total"]
    # the frozen family on a 3D analytic density takes the quadrature route
    assert breakdown["method"] == "quadrature"
    ok = abs(zeta - 1.6875) <= 0.02 and abs(total - (-2.8477)) <= 0.005
    report(
        2,
        ok,
        f"zeta* = {zeta:.4f} (want 1.6875 +- 0.02), "
        f"E = {total:.4f} (want -2.8477 +- 0.005), quadrature path",
    )


def test_criterion_3_variational_bound():
    density_space = SpaceSpec(dim=3, radius=1.3, n_electrons=2)
    potential = ExternalPotential(kind="coulomb-nucleus", z=2.0)
    settings = SamplerSettings(
        conditioning_points=512,
        samples=256,
        burn_in=512,
        thinning=4,
        walkers=1,
        sigma=0.5,
        seed=1,
    )
    worst = np.inf
    count = 0
    for zeta in np.linspace(1.0, 2.5, 5):
        density = ExponentialDensity(zeta, 2, 3)
        for gamma in np.geomspace(0.2, 5.0, 5):
            for beta in (0.0, 0.5, 1.0, 2.0, 5.0):
                ansatz = PairwiseBiparametric(density, density_space, gamma, beta)
                b = total_energy(density, ansatz, potential, settings)
                margin = b.total - (HE_FLOOR - 3.0 * b.total_stderr)
                worst = min(worst, margin)
                count += 1
    ok = worst >= 0.0 and count == 125
    report(
        3,
        ok,
        f"{count} sweep points, min margin above -2.9037 - 3*stderr: {worst:+.4f} Ha",
    )


def test_criterion_4_conditional_density_conditions():
    density = ExponentialDensity(1.0, 3, 3)
    space = SpaceSpec(dim=3, radius=6.0, n_electrons=3)
    # the coincidence probes read only the run's first four points
    settings = SamplerSettings(conditioning_points=16, samples=8, burn_in=0, seed=0)
    pair_rep = check_conditions(PairwiseBiparametric(density, space, 0.5, 0.5), settings)
    # at beta = 0 no satellite pair is weighed, so (iii) must be flagged
    unpaired_rep = check_conditions(PairwiseBiparametric(density, space, 1.0, 0.0), settings)
    ok = (
        pair_rep.vanishes_at_conditioning
        and pair_rep.vanishes_at_satellite_pairs
        and unpaired_rep.vanishes_at_conditioning
        and unpaired_rep.vanishes_at_satellite_pairs is False
    )
    report(
        4,
        ok,
        "pairwise: (ii)/(iii) exact; pairwise at beta = 0 flagged for (iii): "
        f"{unpaired_rep.vanishes_at_satellite_pairs is False}",
    )


def test_criterion_5_fisher_estimator():
    # score vs central finite differences at 50 random configurations
    density = ExponentialDensity(1.2, 3, 3)
    space = SpaceSpec(dim=3, radius=10.0, n_electrons=3)
    ansatz = PairwiseBiparametric(density, space, 0.8, 0.5)
    rng = np.random.default_rng(5)
    h = 1e-5
    worst_rel = 0.0
    for _ in range(50):
        r = rng.uniform(-1.5, 1.5, size=3)
        satellites = rng.uniform(-1.5, 1.5, size=(2, 3))
        while min(np.linalg.norm(satellites - r, axis=-1)) < 0.3:
            satellites = rng.uniform(-1.5, 1.5, size=(2, 3))
        exact = ansatz.score(r, satellites)
        fd = np.zeros(3)
        for k in range(3):
            rp, rm = r.copy(), r.copy()
            rp[k] += h
            rm[k] -= h
            fd[k] = (
                ansatz.log_unnormalized(rp, satellites)
                - ansatz.log_unnormalized(rm, satellites)
            ) / (2.0 * h)
        rel = np.linalg.norm(fd - exact) / max(1.0, np.linalg.norm(exact))
        worst_rel = max(worst_rel, rel)

    # analytic toy family pins the nonlocal term to N/8
    density_1d = ExponentialDensity(1.0, 2, 1)
    space_1d = SpaceSpec(dim=1, radius=8.0, n_electrons=2)
    toy = GaussianToy(density_1d, space_1d, width=1.0)
    settings = SamplerSettings(
        conditioning_points=512,
        samples=128,
        burn_in=256,
        thinning=2,
        walkers=1,
        sigma=1.0,
        seed=3,
    )
    est = gamma_correlation(density_1d, toy, settings)
    z = abs(est.fisher - 0.25) / est.fisher_stderr

    frozen = FrozenOrbitalProduct(density_1d, space_1d)
    frozen_est = gamma_correlation(density_1d, frozen, settings)

    ok = (
        worst_rel <= 1e-5
        and z <= 3.0
        and frozen_est.fisher == 0.0
        and frozen_est.fisher_stderr == 0.0
    )
    report(
        5,
        ok,
        f"score vs FD worst rel err {worst_rel:.2e} <= 1e-5; toy family "
        f"{est.fisher:.4f} vs N/8 = 0.25 (|z| = {z:.2f} <= 3); "
        f"conditioning-independent family exactly 0",
    )


def test_criterion_6_grid_hierarchy_and_stationarity():
    # three densities x two parametric settings on the M = 16 grid
    x = np.linspace(-5.0, 5.0, 16)
    solved = solve_two_particle_1d(16, 5.0, soft_atom, symmetry="fermion")
    densities = {
        "uniform": np.ones_like(x),
        "extracted": solved.density(),
        "gaussian": np.exp(-0.5 * x * x),
    }
    # the parametric tables are representable, so the hierarchy runs the
    # constrained search on the lattice functional as well
    worst_excess = -np.inf
    all_converged = True
    for name, rho in densities.items():
        system = system_from_density_values(x, rho)
        for gamma in (1.0, 5.0):
            table = pairwise_table(system, gamma)
            parametric = lattice_gamma(system, table)
            result = representable_inner_min(system, f_init=table, n_restarts=2, seed=0)
            worst_excess = max(worst_excess, result.value - parametric)
            all_converged = all_converged and result.converged
    hierarchy_ok = worst_excess <= 0.05 and all_converged

    # stationarity of the exact extracted conditional under the constrained
    # search over representable tables, on the lattice functional whose
    # weights reproduce the solver's own kinetic and interaction energies;
    # every start must converge, so a search that stays where it started
    # cannot pass
    system = system_from_wavefunction(solved)
    result = representable_inner_min(
        system, f_init=solved.conditional_table(), n_restarts=2, seed=0
    )
    decrease = result.decrease_from_init
    stationary_ok = result.converged and decrease <= 1e-3

    ok = hierarchy_ok and stationary_ok
    report(
        6,
        ok,
        f"hierarchy: max(grid - parametric) = {worst_excess:+.4f} <= 0.05 over "
        f"3 densities x 2 settings, searches "
        f"{'all converged' if all_converged else 'not all converged'} "
        f"({'ok' if hierarchy_ok else 'violated'}); "
        f"stationarity: objective decrease from extracted f = {decrease:.1e} "
        f"<= 1e-3, search {'converged' if result.converged else 'not converged'} "
        f"({'ok' if stationary_ok else 'violated'})",
    )


def test_criterion_7_determinism(monkeypatch):
    density = ExponentialDensity(HE_ZETA, 2, 3)
    space = SpaceSpec(dim=3, radius=1.3, n_electrons=2)
    ansatz = PairwiseBiparametric(density, space, 1.0, 1.0)
    settings = SamplerSettings(
        conditioning_points=128,
        samples=64,
        burn_in=128,
        thinning=2,
        walkers=1,
        sigma=1.0,
        seed=4,
    )

    def estimate():
        est = gamma_correlation(density, ansatz, settings)
        return json.dumps(est.to_dict(), sort_keys=True)

    runs = [estimate(), estimate()]
    # 256 steps in chunks of 64 start the pool thread
    steps_per_chunk(monkeypatch, 64, settings.conditioning_points, dim=3)
    pooled = pooled_runs(monkeypatch, estimate)
    ok = len(set(runs)) == 1 and len(set(pooled)) == 1
    report(
        7,
        ok,
        "numeric payloads bit-identical on a rerun, and with the pool thread, "
        "a rerun and a synchronous stand-in for it"
        if ok
        else "payloads differ between runs",
    )


def test_criterion_8_mc_scaling():
    density = ExponentialDensity(HE_ZETA, 2, 3)
    space = SpaceSpec(dim=3, radius=1.3, n_electrons=2)
    ansatz = PairwiseBiparametric(density, space, 1.0, 1.0)

    def stderr_at(points):
        settings = SamplerSettings(
            conditioning_points=points,
            samples=64,
            burn_in=128,
            thinning=2,
            walkers=1,
            sigma=1.0,
            seed=7,
        )
        return gamma_correlation(density, ansatz, settings).stderr

    ratio = stderr_at(512) / stderr_at(128)
    ok = 0.4 <= ratio <= 0.6
    report(
        8,
        ok,
        f"stderr ratio after quadrupling the budget: {ratio:.3f} in [0.4, 0.6]",
    )
