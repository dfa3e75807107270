"""End-to-end tests of the command line interface and run records."""

import argparse
import configparser
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrsearch import cli
from corrsearch.ansatz import FAMILIES
from corrsearch.cli import main
from corrsearch.config import (
    _RETIRED,
    ConfigError,
    build_density,
    build_optimize_spec,
    build_sampler_settings,
    build_space,
    load_config,
    parse_config,
)
from corrsearch.domain import DENSITIES
from corrsearch.functionals import GammaEstimate, gamma_correlation
from corrsearch.optimizer import TraceEntry, build_ansatz
from corrsearch.records import RunRecord, save_record, save_trace

from conftest import pooled_runs, read_record, steps_per_chunk

HE_ZETA = 27.0 / 16.0
REPO = Path(__file__).resolve().parents[1]


def load_trace(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(
    tmp_path,
    family="frozen",
    seed=9,
    workers=1,
    name="run.cfg",
    optimize="",
    gamma=1.0,
    walkers=1,
):
    text = f"""\
[system]
n = 2
z = 2.0
radius = 8.0

[density]
family = exponential
zeta = 1.6875

[ansatz]
family = {family}
gamma = {gamma}
beta = 0.5

[sampler]
conditioning_points = 24
samples = 24
burn_in = 48
thinning = 2
sigma = 1.0
seed = {seed}
workers = {workers}
walkers = {walkers}
{optimize}"""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


OPT_SECTION = """
[optimize]
zeta_min = 1.0
zeta_max = 2.5
max_iter_inner = 12
max_iter_outer = 60
tol = 1e-4
"""


# ---------------------------------------------------------------------------
# validation and exit codes
# ---------------------------------------------------------------------------


def test_missing_n_names_the_field(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[system]\nz = 2.0\n", encoding="utf-8")
    code = main(["energy", "--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "[system]" in err and "'n'" in err


@pytest.mark.parametrize("command", ["energy", "optimize"])
@pytest.mark.parametrize("sub", ["", "inner"])
def test_out_that_cannot_be_a_directory_rejected_before_sampling(
    tmp_path, capsys, monkeypatch, command, sub
):
    # an --out that names a file, or a directory below one, exits 1 with an
    # error naming --out, before the command samples or searches anything
    cfg = write_config(tmp_path, optimize=OPT_SECTION)
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    out = str(afile / sub) if sub else str(afile)

    def never(*args, **kwargs):
        raise AssertionError("sampled before --out was checked")

    monkeypatch.setattr(cli, "total_energy", never)
    monkeypatch.setattr(cli, "outer_minimize", never)
    code = main([command, "--config", cfg, "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out") and "Traceback" not in err
    assert afile.read_text(encoding="utf-8") == ""


def test_unknown_section_rejected(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[system]\nn = 2\nz = 2.0\n[plotting]\nstyle = x\n", encoding="utf-8")
    assert main(["energy", "--config", str(path)]) == 1
    assert "[plotting]" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[system]\nn = 2\nz = 2.0\nnn = 4\n", encoding="utf-8")
    assert main(["energy", "--config", str(path)]) == 1
    assert "'nn'" in capsys.readouterr().err


def test_malformed_config_rejected(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[system\nn = 2\n", encoding="utf-8")
    assert main(["energy", "--config", str(path)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["energy", "--config", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize("case", ["directory", "not-utf8"])
def test_unreadable_config_exits_1_without_a_traceback(tmp_path, case):
    # a --config that names a directory, or a file that is not UTF-8 text,
    # is a validation error that names the path, not a crash
    path = tmp_path / "run.cfg"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"[system]\nn = 2\nz = \xff\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "corrsearch.cli", "energy", "--config", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and str(path) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unparseable_value_names_field(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[system]\nn = two\nz = 2.0\n", encoding="utf-8")
    assert main(["energy", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "'n'" in err and "two" in err


@pytest.mark.parametrize(
    "command,section,fields",
    [
        ("energy", "[sampler]", "samples = 0"),
        # a retired key is still checked before it is dropped
        ("energy", "[sampler]", "workers = 0"),
        ("energy", "[optimize]", "crn = maybe"),
        ("energy", "[sampler]", "seed = -1"),
        ("energy --seed -3", "[sampler]", "seed = 0"),
        ("energy", "[sampler]", "samples = 1"),
        # the score variance is extrapolated over four quarters of two samples
        ("energy", "[sampler]", "samples = 7"),
        ("energy", "[sampler]", "sigma = nan"),
        ("energy", "[sampler]", "sigma = inf"),
        ("optimize", "[optimize]", "zeta_min = 3\nzeta_max = 1"),
        ("optimize", "[optimize]", "max_iter_outer = 0"),
        ("optimize", "[optimize]", "max_iter_outer = -3"),
        ("optimize", "[optimize]", "max_iter_inner = -1"),
        ("optimize", "[optimize]", "max_iter_inner = 0"),
        # every command checks every section when the file loads
        ("energy", "[optimize]", "max_iter_inner = 0"),
        ("energy", "[optimize]", "zeta_min = 3\nzeta_max = 1"),
        ("energy", "[optimize]", "tol = -1"),
        # an infinite tol would stop both searches at once and read as converged
        ("optimize", "[optimize]", "tol = inf"),
        ("energy", "[optimize]", "tol = inf"),
        ("sample-diagnostics", "[optimize]", "max_iter_outer = 0"),
        # golden section needs a bracket
        ("energy", "[optimize]", "zeta_min = 1.5\nzeta_max = 1.5"),
        ("optimize", "[optimize]", "zeta_min = 1.5\nzeta_max = 1.5"),
        # a bracket that reaches zeta <= 0, and a search start that is not finite
        *(
            (command, "[optimize]", fields)
            for command in ("energy", "optimize")
            for fields in (
                "zeta_min = 0",
                "zeta_min = -1\nzeta_max = 0.5",
                "gamma_init = nan",
                "gamma_init = inf",
                "beta_init = nan",
            )
        ),
        # the pairwise coupling range, also where a search ignores the couplings
        *(
            (command, "[ansatz]", coupling)
            for command in ("energy", "optimize")
            for coupling in ("gamma = nan", "gamma = inf", "beta = -1", "beta = nan")
        ),
    ],
)
def test_out_of_range_setting_names_its_section(tmp_path, capsys, command, section, fields):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[system]\nn = 2\nz = 2.0\n{section}\n{fields}\n", encoding="utf-8")
    assert main([*command.split(), "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert section in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields,named",
    [
        ({"n": "0"}, "n"),
        ({"radius": "nan"}, "radius"),
        ({"dimensionality": "1d", "softening": "0.0"}, "softening"),
        ({"dimensionality": "2d"}, "dimensionality"),
        ({"z": "nan"}, "z"),
        ({"z": "inf"}, "z"),
        ({"z": "-2.0"}, "z"),
        ({"density.zeta": "nan"}, "zeta"),
        ({"density.family": "exponential-mixture", "density.zetas": "1.0 nan"}, "zetas"),
        (
            {
                "density.family": "exponential-mixture",
                "density.zetas": "1.0 2.0",
                "density.weights": "nan 0.5",
            },
            "weights",
        ),
        ({"radius": "inf"}, "radius"),
        ({"dimensionality": "1d", "softening": "inf"}, "softening"),
    ],
)
def test_out_of_range_system_names_section_and_field(tmp_path, capsys, fields, named):
    # a key "section.field" sets a field outside [system]
    sections = {"system": {"n": "2", "z": "2.0"}}
    for key, value in fields.items():
        section, _, field = key.rpartition(".")
        section = section or "system"
        sections.setdefault(section, {})[field] = value
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )
    with pytest.raises(ConfigError, match=rf"\[{section}\].*\b{named}\b"):
        parse_config(text)
    # a command that builds no potential still rejects the file at load
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["sample-diagnostics", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"[{section}]" in capsys.readouterr().err


GOOD_TABLE = "-2 0.1\n-1 0.5\n0 1.0\n1 0.5\n2 0.1\n"

# (table file text, or None for no file; table_path; dimensionality)
BAD_DENSITY_INPUTS = {
    "negative-value": ("-2 0.1\n-1 -0.5\n0 1.0\n1 0.5\n2 0.1\n", "rho.txt", "1d"),
    "nan-value": ("-2 0.1\n-1 nan\n0 1.0\n1 0.5\n2 0.1\n", "rho.txt", "1d"),
    "non-uniform-x": ("-2 0.1\n-1 0.5\n0.5 1.0\n1 0.5\n2 0.1\n", "rho.txt", "1d"),
    "one-column": ("0.1\n0.5\n1.0\n0.5\n0.1\n", "rho.txt", "1d"),
    "missing-file": (None, "rho.txt", "1d"),
    "empty-table-path": (None, "", "1d"),
    "3d-system": (GOOD_TABLE, "rho.txt", "3d"),
}


def tabulated_config(tmp_path, table, table_path, dimensionality):
    if table is not None:
        (tmp_path / table_path).write_text(table, encoding="utf-8")
    path = tmp_path / "tab.cfg"
    path.write_text(
        f"[system]\nn = 2\nz = 1.0\ndimensionality = {dimensionality}\n\n"
        f"[density]\nfamily = tabulated-1d\n"
        f"table_path = {tmp_path / table_path if table_path else ''}\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("command", ["energy", "compare-ansatz", "sample-diagnostics"])
@pytest.mark.parametrize("case", list(BAD_DENSITY_INPUTS))
def test_bad_density_table_fails_at_load(tmp_path, capsys, command, case):
    # the tabulated density is built, its file read, when the config loads
    cfg = tabulated_config(tmp_path, *BAD_DENSITY_INPUTS[case])
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "[density]" in capsys.readouterr().err
    assert not out.exists()


def test_decreasing_density_table_names_the_grid_rule(tmp_path, capsys):
    # a table written from large x to small has a uniform, negative spacing
    table = "".join(f"{x} {1.0 - abs(x) / 3.0}\n" for x in (2, 1, 0, -1, -2))
    cfg = tabulated_config(tmp_path, table, "rho.txt", "1d")
    assert main(["energy", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "[density]" in err and "increasing, uniform grid" in err


def test_good_density_table_loads(tmp_path):
    loaded = load_config(tabulated_config(tmp_path, GOOD_TABLE, "rho.txt", "1d"))
    density = build_density(loaded)
    assert density.dim == 1 and density.x.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_missing_required_flag_is_validation_error(capsys):
    assert main(["energy"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "corrsearch" in capsys.readouterr().out


def test_package_root_holds_only_the_version():
    """Each name has one import path, its module: a fresh import of the
    package loads no submodule and exposes nothing but __version__."""
    probe = (
        "import sys, corrsearch; "
        "print(sorted(m for m in sys.modules if m.startswith('corrsearch.'))); "
        "print(sorted(n for n in vars(corrsearch) if not n.startswith('_')), "
        "hasattr(corrsearch, '__all__'), isinstance(corrsearch.__version__, str))"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    submodules, public = proc.stdout.splitlines()
    assert submodules == "[]"
    assert public == "[] False True"


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_frozen_quadrature_closed_form(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    code = main(["energy", "--config", cfg, "--out", str(out)])
    assert code == 0
    record = read_record(str(out / "record.json"))
    assert record["status"] == "ok"
    breakdown = record["results"]["breakdown"]
    # hydrogenic closed forms at the scale that balances them
    assert breakdown["weizsacker"] == pytest.approx(2.84765625, abs=1e-5)
    assert breakdown["coulomb"] == pytest.approx(1.0546875, abs=1e-3)
    assert breakdown["external"] == pytest.approx(-6.75, abs=1e-6)
    assert breakdown["total"] == pytest.approx(-2.84765625, abs=1e-3)
    parts = (
        breakdown["weizsacker"]
        + breakdown["fisher"]
        + breakdown["coulomb"]
        + breakdown["external"]
    )
    assert breakdown["total"] == pytest.approx(parts, rel=1e-12)
    assert "total" in capsys.readouterr().out


def test_energy_rerun_is_byte_identical(tmp_path, monkeypatch):
    names = iter(range(6))

    def payload(workers=1):
        i = next(names)
        cfg = write_config(
            tmp_path, family="pairwise", seed=4, workers=workers, name=f"r{i}.cfg"
        )
        out = tmp_path / f"out{i}"
        assert main(["energy", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "record.json", encoding="utf-8") as fh:
            return json.dumps(json.load(fh)["results"], sort_keys=True)

    payloads = [payload(), payload()]
    assert payloads[0] == payloads[1]
    # the workers key has no effect
    assert payloads[0] == payload(workers=2)
    # 96 steps in chunks of 20 start the pool thread; a rerun and a
    # synchronous stand-in for it give the same bytes
    steps_per_chunk(monkeypatch, 20, 24, dim=3)
    pooled = pooled_runs(monkeypatch, payload)
    assert pooled[0] == pooled[1] == pooled[2]


def test_energy_seed_override_changes_mc_numbers(tmp_path):
    cfg = write_config(tmp_path, family="pairwise", seed=4)
    results = []
    for seed in (4, 5):
        out = tmp_path / f"seed{seed}"
        assert main(["energy", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        record = read_record(str(out / "record.json"))
        assert record["seed"] == seed
        results.append(record["results"]["breakdown"]["fisher"])
    assert results[0] != results[1]


# the breakdowns of three small `energy` runs of the pairwise
# family, recorded when the proposal steps became uniform (N = 3 and 6 when
# the satellites began to move in turn).  A change to
# how the sampler or the hinted evaluation computes must leave them bit
# for bit; a change to what the sampler draws re-records them
PINNED_MC_BREAKDOWNS = {
    (2, "3d"): {
        "coulomb": 1.0130860534382617, "coulomb_stderr": 0.0375361331799223,
        "external": -6.000000000000069, "fisher": 0.0698507696341338,
        "fisher_stderr": 0.02165712746200656, "method": "mc", "total": -2.6670631769276825,
        "total_stderr": 0.0503402226483118, "weizsacker": 2.249999999999991,
    },
    (3, "1d"): {
        "coulomb": 2.349918537113833, "coulomb_stderr": 0.05424317336881996,
        "external": -8.37441119338203, "fisher": 1.9870655093805045,
        "fisher_stderr": 0.2697983337246555, "method": "mc", "total": -0.6624271468898026,
        "total_stderr": 0.2837873280707437, "weizsacker": 3.37499999999789,
    },
    (6, "3d"): {
        "coulomb": 10.044828820897926, "coulomb_stderr": 0.6647764036222547,
        "external": -54.00000000000064, "fisher": 2.090137298843203,
        "fisher_stderr": 0.8585602843096993, "method": "mc", "total": -35.11503388025953,
        "total_stderr": 1.1194970146818255, "weizsacker": 6.749999999999974,
    },
}


@pytest.mark.parametrize("n,dimensionality,chains,steps", [
    (2, "3d", 64, 23),  # 134 steps in 6 step-chunks, with the pool thread
    (3, "1d", 48, None),
    (6, "3d", 32, None),
])
def test_mc_energy_breakdown_pinned(tmp_path, monkeypatch, n, dimensionality, chains, steps):
    text = f"""\
[system]
n = {n}
z = {float(n)}
radius = {1.3 if n == 2 else 3.0}
dimensionality = {dimensionality}

[density]
family = exponential
zeta = 1.5

[ansatz]
family = pairwise
gamma = 1.0
beta = 1.5

[sampler]
conditioning_points = {chains}
samples = 32
burn_in = 70
thinning = 2
sigma = 0.5
seed = {40 + n}
"""
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(text, encoding="utf-8")
    if steps is not None:
        steps_per_chunk(monkeypatch, steps, chains, dim=3)
    out = tmp_path / "run"
    assert main(["energy", "--config", str(cfg), "--out", str(out)]) == 0
    breakdown = read_record(str(out / "record.json"))["results"]["breakdown"]
    assert breakdown == PINNED_MC_BREAKDOWNS[(n, dimensionality)]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_default_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "verification passed" in out


def test_verify_tolerance_below_residual_fails(tmp_path, capsys):
    out = tmp_path / "ver"
    code = main(["verify", "--tol-grid", "1e-20", "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    record = read_record(str(out / "record.json"))
    product, grid = record["results"]["product"], record["results"]["grid"]
    assert product["residual"] <= 1e-3
    # the grid identity closes at rounding, above the 1e-20 tolerance
    assert 1e-20 < grid["residual"] <= 1e-10
    # the printed residuals are the recorded ones the exit code is judged on
    residuals = [
        float(line.split()[1]) for line in captured.out.splitlines()
        if line.strip().startswith("residual")
    ]
    assert residuals == [float(f"{product['residual']:.2e}"), float(f"{grid['residual']:.2e}")]


def test_prefactor_flag_accepts_only_half(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["energy", "--config", cfg, "--prefactor", "full"]) == 1
    out = tmp_path / "half"
    assert main(["energy", "--config", cfg, "--prefactor", "half", "--out", str(out)]) == 0
    record = json.loads((out / "record.json").read_text())
    assert "prefactor" not in record and "prefactor" not in record["results"]["breakdown"]
    capsys.readouterr()


@pytest.mark.parametrize("workload", ["he-sweep", "n6-pairs", "he-optimize"])
def test_benchmark_setup_reads_the_cli_and_config(tmp_path, workload):
    """The benchmark's set-up step builds its parser and config through the
    package; a flag or key it reads that goes away fails it here."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "bench/worker.py", "setup", "--workload", workload,
         "--seed", "1", "--dir", str(tmp_path)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["setup_s"] > 0.0


def test_verify_fermion_passes_default_grid_tolerance(capsys):
    assert main(["verify", "--symmetry", "fermion"]) == 0
    assert "verification passed" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--tol-product", "--tol-grid"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_verify_rejects_invalid_tolerance(capsys, flag, value):
    # an invalid tolerance is invalid input (1), not a tolerance failure (3)
    assert main(["verify", flag, value]) == 1
    assert flag in capsys.readouterr().err


def test_verify_takes_only_the_out_flag(capsys):
    # verify reads no config: its record always has seed 0, and the
    # prefactor has one value
    assert main(["verify", "--seed", "5"]) == 1
    assert main(["verify", "--prefactor", "half"]) == 1
    capsys.readouterr()


def test_verify_invalid_parameters_exit_validation(capsys):
    assert main(["verify", "--zeta", "-1.0"]) == 1
    assert main(["verify", "--grid-points", "80"]) == 1
    # a non-finite orbital exponent or well depth is a bad input, not a
    # failed tolerance or an unconverged solve
    for flag in ("--zeta", "--z"):
        for value in ("nan", "inf"):
            assert main(["verify", flag, value]) == 1
    for flag in ("--extent", "--softening"):
        for value in ("0", "-3", "nan", "inf"):
            assert main(["verify", flag, value]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# compare-ansatz
# ---------------------------------------------------------------------------


def test_compare_single_family_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, optimize=OPT_SECTION)
    assert main(["compare-ansatz", "--config", cfg, "--families", "frozen"]) == 1
    assert "at least two" in capsys.readouterr().err


def test_compare_unknown_family_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, optimize=OPT_SECTION)
    code = main(["compare-ansatz", "--config", cfg, "--families", "frozen,bogus"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_compare_duplicate_family_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, optimize=OPT_SECTION)
    out = tmp_path / "cmp"
    code = main(
        ["compare-ansatz", "--config", cfg, "--families", "frozen,frozen", "--out", str(out)]
    )
    assert code == 1
    assert "--families" in capsys.readouterr().err
    assert not out.exists()


def test_compare_equal_families_are_tied(tmp_path, capsys, monkeypatch):
    # two families whose fresh estimates are equal tie
    estimate = GammaEstimate(0.1, 0.01, 0.5, 0.02, 0.0, 0.6, 0.03, "mc")
    monkeypatch.setattr(cli, "fresh_estimate", lambda *args: estimate)
    pinned = "[optimize]\nmax_iter_outer = 2\nmax_iter_inner = 4\n"
    cfg = write_config(tmp_path, family="pairwise", optimize=pinned)
    out = tmp_path / "cmp"
    code = main(
        ["compare-ansatz", "--config", cfg, "--families", "pairwise,frozen", "--out", str(out)]
    )
    assert code == 0
    ranking = read_record(str(out / "record.json"))["results"]["ranking"]
    assert ranking[0]["value"] == ranking[1]["value"]
    assert ranking[1]["tied_with_previous"] is True
    assert "~tied-with-previous" in capsys.readouterr().out


def test_compare_ranks_families(tmp_path, capsys):
    cfg = write_config(tmp_path, optimize=OPT_SECTION, seed=2)
    out = tmp_path / "cmp2"
    code = main(
        ["compare-ansatz", "--config", cfg, "--families", "pairwise,frozen", "--out", str(out)]
    )
    assert code == 0
    record = read_record(str(out / "record.json"))
    ranking = record["results"]["ranking"]
    assert [e["rank"] for e in ranking] == [1, 2]
    values = [e["value"] for e in ranking]
    assert values == sorted(values)
    by_family = {e["family"]: e for e in ranking}
    # the conditioning-independent family keeps its closed-form repulsion
    assert by_family["frozen"]["value"] == pytest.approx(5.0 * HE_ZETA / 8.0, abs=1e-3)
    # the marginal is the gate: frozen meets it without the conditioning
    # zero; pairwise has the zero, but its satellites spread over omega,
    # far past rho's mass
    frozen, pairwise = by_family["frozen"]["conditions"], by_family["pairwise"]["conditions"]
    assert frozen["vanishes_at_conditioning"] is False and frozen["marginal"] is True
    assert pairwise["marginal"] is False and pairwise["marginal_z"] > 100.0
    assert pairwise["vanishes_at_conditioning"] is True
    assert "all_pass" not in frozen and "all_pass" not in pairwise
    # two satellites never collide when there is only one of them
    assert frozen["fermionic_compatible"] is True
    assert pairwise["fermionic_compatible"] is True
    lines = capsys.readouterr().out.splitlines()
    flags = {line.split()[1]: line.split()[4:] for line in lines[1:3]}
    assert flags == {"frozen": [], "pairwise": ["marginal-fail"]}
    # an unflagged row prints no empty flags column
    assert [line for line in lines if line != line.rstrip()] == []
    assert by_family["frozen"]["bound"] == "variational"
    assert by_family["pairwise"]["bound"] == "none"


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_energy_record_states_its_bound(tmp_path, family, n):
    # the energy bounds the ground state only for a marginal-matched family
    # (frozen) at N = 2; from N = 3 on no spin-free f gives a fermionic bound
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"[system]\nn = {n}\nz = {float(n)}\nradius = 3.0\n"
        f"[ansatz]\nfamily = {family}\n"
        "[sampler]\nconditioning_points = 8\nsamples = 8\nburn_in = 8\nthinning = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "energy"
    assert main(["energy", "--config", str(cfg), "--out", str(out)]) == 0
    bound = read_record(str(out / "record.json"))["results"]["bound"]
    assert bound == ("variational" if (family, n) == ("frozen", 2) else "none")


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_frozen_recovers_balance_point(tmp_path, capsys):
    cfg = write_config(tmp_path, optimize=OPT_SECTION, seed=11)
    out = tmp_path / "opt"
    code = main(["optimize", "--config", cfg, "--out", str(out)])
    assert code == 0
    record = read_record(str(out / "record.json"))
    assert record["results"]["zeta"] == pytest.approx(1.6875, abs=0.02)
    assert record["results"]["breakdown"]["total"] == pytest.approx(-2.84765625, abs=0.005)
    assert record["results"]["converged"] is True
    # the parameter-free family makes one search call per zeta, and the
    # winner one fresh call
    assert record["results"]["estimator_calls"] == record["results"]["n_eval"] + 1
    # a family without couplings has no inner search to stall
    assert record["results"]["inner_first_simplex"] == 0
    assert record["results"]["bound"] == "variational"

    rows = load_trace(str(out / "trace.csv"))
    assert rows, "trace must not be empty"
    assert list(rows[0].keys()) == ["iteration", "zeta", "gamma", "beta", "energy", "stderr"]
    energies = [float(r["energy"]) for r in rows]
    assert min(energies) == pytest.approx(record["results"]["breakdown"]["total"], abs=1e-9)
    capsys.readouterr()


def test_optimize_pins_a_tiny_helium_search(tmp_path, capsys):
    # every stream of the run comes from [sampler] seed, so a change to how
    # the search, its common random numbers or the fresh re-evaluation take
    # their seeds moves these numbers
    path = tmp_path / "he.cfg"
    path.write_text(
        "[system]\nn = 2\nz = 2.0\nradius = 1.3\n"
        "[sampler]\nconditioning_points = 16\nsamples = 8\nburn_in = 128\nthinning = 2\n"
        "seed = 2\n"
        "[optimize]\nmax_iter_outer = 2\nmax_iter_inner = 4\n",
        encoding="utf-8",
    )
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    results = read_record(str(out / "record.json"))["results"]
    search = {key: results[key] for key in ("zeta", "gamma", "estimator_calls")}
    assert search == pytest.approx(
        {"zeta": 1.5729490168751576, "gamma": 1.0, "estimator_calls": 7},
        rel=1e-12,
    )
    assert results["beta"] is None  # beta does not act at N = 2
    breakdown = dict(results["breakdown"])
    assert breakdown.pop("method") == "mc"
    assert breakdown == pytest.approx(
        {
            "weizsacker": 2.4741686096885167,
            "fisher": 0.04294349394699307,
            "fisher_stderr": 0.024244379968631543,
            "coulomb": 0.8662625999467015,
            "coulomb_stderr": 0.06290097797198049,
            "external": -6.291796067500713,
            "total": -2.9084213639185017,
            "total_stderr": 0.07959184076194398,
        },
        rel=1e-12,
    )


@pytest.mark.parametrize("n", [2, 3])
def test_optimize_reports_a_coupling_that_does_not_act_as_null(tmp_path, capsys, n):
    # the search starts on beta_max; at N = 2 beta weighs no satellite pair,
    # so the record holds null for it, its trace column nan, its box flag
    # false, and stdout no beta* line; at N = 3 beta acts and is reported
    path = tmp_path / "tiny.cfg"
    path.write_text(
        f"[system]\nn = {n}\nz = {float(n)}\nradius = 1.3\n"
        "[ansatz]\nfamily = pairwise\n"
        "[sampler]\nconditioning_points = 16\nsamples = 8\nburn_in = 16\nthinning = 1\n"
        "seed = 1\n"
        "[optimize]\nbeta_max = 1.0\nmax_iter_outer = 2\nmax_iter_inner = 4\n",
        encoding="utf-8",
    )
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    results = read_record(str(out / "record.json"))["results"]
    betas = [float(row["beta"]) for row in load_trace(str(out / "trace.csv"))]
    assert np.isfinite(results["gamma"]) and "gamma*" in printed
    if n == 2:
        assert results["beta"] is None
        assert results["at_search_bound"]["beta"] is False
        assert all(np.isnan(b) for b in betas)
        assert "beta*" not in printed
    else:
        assert 0.0 <= results["beta"] <= 1.0
        assert all(np.isfinite(b) for b in betas)
        assert f"beta*               {results['beta']:.6f}" in printed


def test_optimize_says_when_its_winner_hit_the_box(tmp_path, capsys):
    # frozen helium's zeta* is 27/16; a bracket above it puts the winner on
    # zeta_min, and the default bracket holds it.  frozen searches no
    # coupling, so gamma and beta never read true
    flags = []
    for zeta_min, zeta_max in ((2.0, 2.5), (1.0, 2.5)):
        section = f"[optimize]\nzeta_min = {zeta_min}\nzeta_max = {zeta_max}\ntol = 1e-3\n"
        cfg = write_config(tmp_path, optimize=section)
        out = tmp_path / f"box{zeta_min}"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        results = read_record(str(out / "record.json"))["results"]
        flags.append(results["at_search_bound"])
        printed = capsys.readouterr().out
        assert f"at search bound     {'zeta' if flags[-1]['zeta'] else 'none'}" in printed
    assert flags == [
        {"zeta": True, "gamma": False, "beta": False},
        {"zeta": False, "gamma": False, "beta": False},
    ]


def test_optimize_trace_header_is_stable(tmp_path):
    cfg = write_config(tmp_path, optimize=OPT_SECTION)
    out = tmp_path / "opt2"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "trace.csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "iteration,zeta,gamma,beta,energy,stderr"


def test_optimize_partial_record_on_failure(tmp_path, capsys, monkeypatch):
    import corrsearch.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "outer_minimize", boom)
    cfg = write_config(tmp_path, optimize=OPT_SECTION)
    out = tmp_path / "opt3"
    code = main(["optimize", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "aborted" in capsys.readouterr().err
    record = read_record(str(out / "record.json"))
    assert record["status"] == "partial"
    assert "RuntimeError" in record["results"]["error"]
    assert load_trace(str(out / "trace.csv")) == []


def test_optimize_rejects_unsearchable_configs(tmp_path, capsys):
    path = tmp_path / "mix.cfg"
    path.write_text(
        "[system]\nn = 2\nz = 2.0\n"
        "[density]\nfamily = exponential-mixture\nzetas = 1.0 2.0\n",
        encoding="utf-8",
    )
    assert main(["optimize", "--config", str(path)]) == 1
    cfg = write_config(tmp_path, family="gaussian-toy")
    assert main(["optimize", "--config", cfg]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sample-diagnostics
# ---------------------------------------------------------------------------


def test_sample_diagnostics_reports_chain_health(tmp_path, capsys):
    cfg = write_config(tmp_path, family="pairwise", seed=6)
    out = tmp_path / "diag"
    code = main(["sample-diagnostics", "--config", cfg, "--points", "2", "--out", str(out)])
    assert code == 0
    record = read_record(str(out / "record.json"))
    chains = record["results"]["chains"]
    assert len(chains) == 2
    for row in chains:
        assert row["ess"] > 0.0
        assert 0.0 <= row["acceptance"] <= 1.0
        assert row["pair_mean"] > 0.0
    assert np.isfinite(record["results"]["gamma"]["value"])
    assert "correlation term" in capsys.readouterr().out


def test_sample_diagnostics_reads_the_estimators_chains(tmp_path, capsys):
    # the record's Gamma is the estimator's, and it has one row per chain
    # of the first --points conditioning points
    cfg = write_config(tmp_path, family="pairwise", seed=6, walkers=2)
    out = tmp_path / "diag"
    assert main(["sample-diagnostics", "--config", cfg, "--points", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    record = read_record(str(out / "record.json"))
    assert [row["point"] for row in record["results"]["chains"]] == [0, 0, 1, 1, 2, 2]
    # each row's (pair_mean, stderr, ess, acceptance): the rows come from
    # the estimator's own chains, which it keeps only for these six
    pinned = [
        (0.21965534164985487, 0.00955315342069858, 12.96219490283801, 0.75),
        (0.24236678297615422, 0.02145381376754088, 14.697250614169675, 0.875),
        (0.18052425175867126, 0.005183575898530961, 10.036691611482524, 0.75),
        (0.17273098135609785, 0.005448831179626917, 15.371812939370656, 0.7083333333333334),
        (0.2701498105519826, 0.04469964108606482, 15.686659909199788, 0.8541666666666666),
        (0.20784257450886878, 0.011227348368469104, 9.708602902002282, 0.7916666666666666),
    ]
    keys = ("pair_mean", "stderr", "ess", "acceptance")
    assert [tuple(row[k] for k in keys) for row in record["results"]["chains"]] == pinned

    loaded = load_config(cfg)
    space, density = build_space(loaded), build_density(loaded)
    ansatz = build_ansatz("pairwise", density, space, loaded.ansatz.gamma, loaded.ansatz.beta)
    settings = build_sampler_settings(loaded)
    direct = gamma_correlation(density, ansatz, settings)
    assert record["results"]["gamma"] == direct.to_dict()


def test_sample_diagnostics_needs_a_satellite(tmp_path, capsys):
    path = tmp_path / "h.cfg"
    path.write_text("[system]\nn = 1\nz = 1.0\n", encoding="utf-8")
    assert main(["sample-diagnostics", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "[system]" in capsys.readouterr().err


def test_compare_needs_a_satellite(tmp_path, capsys):
    path = tmp_path / "h.cfg"
    path.write_text("[system]\nn = 1\nz = 1.0\n", encoding="utf-8")
    argv = ["compare-ansatz", "--config", str(path), "--families", "pairwise,frozen"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "[system] field 'n': compare-ansatz needs n >= 2" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("points", ["0", "-5"])
def test_sample_diagnostics_rejects_nonpositive_points(tmp_path, capsys, points):
    cfg = write_config(tmp_path, family="pairwise")
    out = tmp_path / "diag"
    argv = ["sample-diagnostics", "--config", cfg, "--points", points, "--out", str(out)]
    assert main(argv) == 1
    assert "--points" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# config round trips
# ---------------------------------------------------------------------------


# every one of the 33 keys away from its default
EVERY_KEY_CONFIG = """\
[system]
n = 3
z = 3.0
dimensionality = 1d
radius = 6.0
softening = 0.5

[density]
family = exponential-mixture
zeta = 1.3
zetas = 1.45, 2.9
weights = 0.25 0.75
table_path = tables/rho.txt

[ansatz]
family = frozen
gamma = 2.5
beta = 0.25

[sampler]
conditioning_points = 64
samples = 32
burn_in = 16
thinning = 2
walkers = 2
sigma = 0.75
seed = 11
workers = 2

[optimize]
zeta_min = 1.1
zeta_max = 2.2
gamma_min = 0.1
gamma_max = 20.0
beta_min = 0.5
beta_max = 5.0
gamma_init = 2.0
beta_init = 0.75
max_iter_inner = 30
max_iter_outer = 20
tol = 1e-4
crn = false
"""


def config_keys(text):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return {(section, key) for section in parser.sections() for key in parser[section]}


def section_fields(cfg):
    """(section name, dataclass field) for every key of the file format."""
    return [
        (section.name, f)
        for section in dataclasses.fields(cfg)
        if dataclasses.is_dataclass(getattr(cfg, section.name))
        for f in dataclasses.fields(getattr(cfg, section.name))
    ]


def test_every_key_config_sets_every_field():
    every = parse_config(EVERY_KEY_CONFIG)
    for name, f in section_fields(every):
        assert getattr(getattr(every, name), f.name) != f.default, (name, f.name)
    assert len(config_keys(EVERY_KEY_CONFIG)) == 33


def test_every_key_config_moves_every_setting():
    # a settings field that no key reaches is a constant, not a setting
    every = parse_config(EVERY_KEY_CONFIG)
    for built in (build_sampler_settings(every), build_optimize_spec(every)):
        for f in dataclasses.fields(built):
            assert getattr(built, f.name) != f.default, (type(built).__name__, f.name)


def test_runconfig_dict_round_trip(tmp_path):
    with open(write_config(tmp_path), encoding="utf-8") as fh:
        cfg = parse_config(fh.read(), {"seed": 77, "prefactor": "half"})
    assert cfg.sampler.seed == 77
    assert "prefactor" not in cfg.to_dict()


def test_build_density_takes_an_explicit_zeta(tmp_path):
    # a search zeta of 0.0 is passed on and rejected, not replaced by [density] zeta
    cfg = load_config(write_config(tmp_path))
    assert build_density(cfg, zeta=1.25).zeta == 1.25
    with pytest.raises(ValueError, match="zeta"):
        build_density(cfg, zeta=0.0)


def test_readme_config_block_lists_every_key():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    keys = {(name, f.metadata.get("key", f.name)) for name, f in section_fields(cfg)}
    keys |= {(name, key) for name, retired in _RETIRED.items() for key in retired}
    assert config_keys(block) == keys
    assert len(config_keys(block)) == 33
    # and every value the block shows is its key's default
    for name, f in section_fields(cfg):
        if f.default is not dataclasses.MISSING:
            assert getattr(getattr(cfg, name), f.name) == f.default, (name, f.name)


def test_readme_command_line_matches_the_parser():
    # every flag the README's command-line section names exists on some
    # subcommand, and every option of a config-driven command is named there
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        command: {s for s in sub._option_string_actions if s.startswith("--")} - {"--help"}
        for command, sub in subs.choices.items()
    }
    assert named <= set().union(*flags.values())
    for command in ("energy", "optimize", "compare-ansatz", "sample-diagnostics"):
        assert flags[command] <= named, command


def test_readme_names_only_registered_families_and_densities():
    # the config block's family comments list each registry exactly, and
    # the module table and the compare-ansatz lines name only what is there
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    listed, section = {}, None
    for line in block.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif line.startswith("family"):
            listed[section] = {name.strip() for name in line.split("#", 1)[1].split("|")}
    assert listed == {"density": set(DENSITIES), "ansatz": set(FAMILIES)}
    row = next(line for line in readme.splitlines() if line.startswith("| `corrsearch.ansatz`"))
    named = re.search(r"conditional families \(([^)]*)\)", row).group(1)
    assert set(re.findall(r"`([\w-]+)`", named)) == set(FAMILIES)
    compared = re.findall(r"--families ([\w,-]+)", readme)
    assert compared
    for families in compared:
        assert set(families.split(",")) <= set(cli.SEARCHABLE), families


def test_retired_keys_load_and_are_dropped(tmp_path):
    cfg = write_config(tmp_path, workers=2, optimize="[optimize]\ncrn = false\n")
    out = tmp_path / "out"
    assert main(["energy", "--config", cfg, "--out", str(out)]) == 0
    config = read_record(str(out / "record.json"))["config"]
    assert "workers" not in config["sampler"] and "crn" not in config["optimize"]


def test_gamma_floor_needs_test_mode(tmp_path):
    # no override lifts the floor; an old test_mode key is ignored
    text = "[system]\nn = 2\nz = 2.0\n[ansatz]\nfamily = pairwise\ngamma = 0.0\n"
    low = "[system]\nn = 2\nz = 2.0\n[optimize]\ngamma_min = 0.0\n"
    for overrides in (None, {"test_mode": True}):
        with pytest.raises(ConfigError, match=r"\[ansatz\].*\bgamma\b"):
            parse_config(text, overrides)
        with pytest.raises(ConfigError, match=r"\[optimize\].*\bgamma_min\b"):
            parse_config(low, overrides)


@pytest.mark.parametrize("command", ["optimize", "compare-ansatz"])
def test_gamma_floor_stops_a_search_at_load(tmp_path, capsys, command):
    cfg = write_config(tmp_path, family="pairwise", optimize="[optimize]\ngamma_min = 0\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "[optimize]" in err and "gamma_min" in err
    assert not out.exists()


def test_test_mode_flag_is_gone(tmp_path, capsys):
    assert main(["energy", "--config", write_config(tmp_path), "--test-mode"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["energy", "optimize"])
def test_method_flag_is_gone(tmp_path, capsys, command):
    # the family and the density pick the estimator's route; no flag does
    cfg = write_config(tmp_path, optimize=OPT_SECTION)
    assert main([command, "--config", cfg, "--method", "mc"]) == 1
    assert "--method" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def test_default_run_directory_is_unique(tmp_path, monkeypatch, capsys):
    # two runs of one seed in the same second get two directories
    import corrsearch.records as records

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(records.time, "strftime", lambda fmt, t=None: "20260101-000000")
    cfg = write_config(tmp_path)
    for _ in range(2):
        assert main(["energy", "--config", cfg, "--seed", "4"]) == 0
    capsys.readouterr()
    runs = sorted(p.name for p in (tmp_path / "runs").iterdir())
    assert runs == ["20260101-000000-4", "20260101-000000-4-2"]
    for name in runs:
        assert read_record(str(tmp_path / "runs" / name / "record.json"))["seed"] == 4
    # an explicit --out is reused
    out = tmp_path / "given"
    for _ in range(2):
        assert main(["energy", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["record.json"]
    capsys.readouterr()


def test_record_save_load_round_trip(tmp_path):
    record = RunRecord(command="corrsearch energy --config x", config={"a": 1}, seed=3)
    record.results = {"value": 1.5}
    path = str(tmp_path / "deep" / "record.json")
    save_record(record, path)
    loaded = read_record(path)
    assert loaded["results"] == {"value": 1.5}
    assert loaded["timestamp"]  # finalize stamped it
    assert loaded["version"] == record.version


def test_reproducible_view_strips_clock_fields(tmp_path):
    record = RunRecord(command="c", config={}, seed=0)
    record.timings = {"seconds": 1.0}
    record.finalize()
    view = record.reproducible_view()
    assert "timestamp" not in view and "timings" not in view
    assert view["seed"] == 0


def test_trace_round_trip(tmp_path):
    rows = [TraceEntry(0, 1.0, 2.0, 0.0, -1.0, 0.1), TraceEntry(1, 1.1, 2.1, 0.0, -1.2, 0.1)]
    path = str(tmp_path / "trace.csv")
    save_trace(rows, path)
    loaded = load_trace(path)
    assert len(loaded) == 2
    assert loaded[0]["iteration"] == "0"
    assert float(loaded[1]["energy"]) == -1.2
