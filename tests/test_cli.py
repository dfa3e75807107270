"""End-to-end tests of the command line interface and run records."""

import configparser
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from corrsearch.cli import main
from corrsearch.config import (
    ConfigError,
    RunConfig,
    build_density,
    build_sampler_settings,
    build_space,
    config_to_text,
    load_config,
    parse_config,
)
from corrsearch.functionals import gamma_correlation
from corrsearch.optimizer import build_ansatz
from corrsearch.records import (
    RunRecord,
    load_record,
    load_trace,
    save_record,
    save_trace,
)

HE_ZETA = 27.0 / 16.0


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
    code = main(["energy", "--config", str(path), "--method", "quadrature"])
    assert code == 1
    err = capsys.readouterr().err
    assert "[system]" in err and "'n'" in err


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
        ("energy", "[sampler]", "workers = 0"),
        ("energy", "[sampler]", "samples = 1"),
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
        ("sample-diagnostics", "[optimize]", "max_iter_outer = 0"),
    ],
)
def test_out_of_range_setting_names_its_section(tmp_path, capsys, command, section, fields):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[system]\nn = 2\nz = 2.0\n{section}\n{fields}\n", encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
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


def test_missing_required_flag_is_validation_error(capsys):
    assert main(["energy"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "corrsearch" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_frozen_quadrature_closed_form(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    code = main(["energy", "--config", cfg, "--method", "quadrature", "--out", str(out)])
    assert code == 0
    record = load_record(str(out / "record.json"))
    assert record.status == "ok"
    breakdown = record.results["breakdown"]
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


def test_energy_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, family="pairwise", seed=4)
    payloads = []
    for i, workers in enumerate((1, 1, 2)):
        cfg_i = write_config(
            tmp_path, family="pairwise", seed=4, workers=workers, name=f"r{i}.cfg"
        )
        out = tmp_path / f"out{i}"
        assert main(["energy", "--config", cfg_i, "--out", str(out)]) == 0
        with open(out / "record.json", encoding="utf-8") as fh:
            payloads.append(json.dumps(json.load(fh)["results"], sort_keys=True))
    assert payloads[0] == payloads[1]
    # worker count changes scheduling only, never numbers
    assert payloads[0] == payloads[2]


def test_energy_seed_override_changes_mc_numbers(tmp_path):
    cfg = write_config(tmp_path, family="pairwise", seed=4)
    results = []
    for seed in (4, 5):
        out = tmp_path / f"seed{seed}"
        assert main(["energy", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        record = load_record(str(out / "record.json"))
        assert record.seed == seed
        results.append(record.results["breakdown"]["fisher"])
    assert results[0] != results[1]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_default_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "verification passed" in out


def test_verify_literal_prefactor_fails_tolerance(tmp_path, capsys):
    out = tmp_path / "ver"
    code = main(["verify", "--prefactor", "full", "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    record = load_record(str(out / "record.json"))
    # doubling the interaction prefactor leaves one whole pair energy over
    assert record.results["product"]["residual_full"] == pytest.approx(
        5.0 * HE_ZETA / 8.0, abs=1e-3
    )
    assert record.results["product"]["residual_half"] <= 1e-3
    # the printed residuals are the full-prefactor ones the exit code is
    # judged on: the grid one (the whole <V_ee>) above its 1e-10 tolerance
    residuals = [
        float(line.split()[1]) for line in captured.out.splitlines()
        if line.strip().startswith("residual")
    ]
    grid_full = record.results["grid"]["residual_full"]
    assert residuals == [
        float(f"{record.results['product']['residual_full']:.2e}"), float(f"{grid_full:.2e}")
    ]
    assert residuals[1] > 1e-10


def test_verify_fermion_passes_default_grid_tolerance(capsys):
    assert main(["verify", "--symmetry", "fermion"]) == 0
    assert "verification passed" in capsys.readouterr().out


def test_verify_invalid_parameters_exit_validation(capsys):
    assert main(["verify", "--zeta", "-1.0"]) == 1
    assert main(["verify", "--grid-points", "80"]) == 1
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


def test_compare_duplicate_family_is_tied(tmp_path, capsys):
    cfg = write_config(tmp_path, optimize=OPT_SECTION)
    out = tmp_path / "cmp"
    code = main(
        ["compare-ansatz", "--config", cfg, "--families", "frozen,frozen", "--out", str(out)]
    )
    assert code == 0
    record = load_record(str(out / "record.json"))
    ranking = record.results["ranking"]
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
    record = load_record(str(out / "record.json"))
    ranking = record.results["ranking"]
    assert [e["rank"] for e in ranking] == [1, 2]
    values = [e["value"] for e in ranking]
    assert values == sorted(values)
    by_family = {e["family"]: e for e in ranking}
    # the conditioning-independent family keeps its closed-form repulsion
    assert by_family["frozen"]["value"] == pytest.approx(5.0 * HE_ZETA / 8.0, abs=1e-3)
    assert by_family["frozen"]["conditions"]["all_pass"] is False
    assert by_family["pairwise"]["conditions"]["all_pass"] is True
    # two satellites never collide when there is only one of them
    assert by_family["frozen"]["conditions"]["fermionic_compatible"] is True
    assert by_family["pairwise"]["conditions"]["fermionic_compatible"] is True
    assert "conditions-fail" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_frozen_recovers_balance_point(tmp_path, capsys):
    cfg = write_config(tmp_path, optimize=OPT_SECTION, seed=11)
    out = tmp_path / "opt"
    code = main(
        ["optimize", "--config", cfg, "--method", "quadrature", "--out", str(out)]
    )
    assert code == 0
    record = load_record(str(out / "record.json"))
    assert record.results["zeta"] == pytest.approx(1.6875, abs=0.02)
    assert record.results["breakdown"]["total"] == pytest.approx(-2.84765625, abs=0.005)
    assert record.results["converged"] is True
    # the parameter-free family makes one search call per zeta, and the
    # winner one fresh call
    assert record.results["estimator_calls"] == record.results["n_eval"] + 1

    rows = load_trace(str(out / "trace.csv"))
    assert rows, "trace must not be empty"
    assert list(rows[0].keys()) == ["iteration", "zeta", "gamma", "beta", "energy", "stderr"]
    energies = [float(r["energy"]) for r in rows]
    assert min(energies) == pytest.approx(record.results["breakdown"]["total"], abs=1e-9)
    capsys.readouterr()


def test_optimize_trace_header_is_stable(tmp_path):
    cfg = write_config(tmp_path, optimize=OPT_SECTION)
    out = tmp_path / "opt2"
    assert main(["optimize", "--config", cfg, "--method", "quadrature", "--out", str(out)]) == 0
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
    record = load_record(str(out / "record.json"))
    assert record.status == "partial"
    assert "RuntimeError" in record.results["error"]
    assert load_trace(str(out / "trace.csv")) == []


def test_forced_quadrature_needs_frozen_family(tmp_path, capsys):
    cfg = write_config(tmp_path, family="pairwise", optimize=OPT_SECTION)
    assert main(["energy", "--config", cfg, "--method", "quadrature"]) == 1
    assert main(["optimize", "--config", cfg, "--method", "quadrature"]) == 1
    assert "quadrature" in capsys.readouterr().err


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
    record = load_record(str(out / "record.json"))
    chains = record.results["chains"]
    assert len(chains) == 2
    for row in chains:
        assert row["ess"] > 0.0
        assert 0.0 <= row["acceptance"] <= 1.0
        assert row["pair_mean"] > 0.0
    assert np.isfinite(record.results["gamma"]["value"])
    assert "correlation term" in capsys.readouterr().out


def test_sample_diagnostics_reads_the_estimators_chains(tmp_path, capsys):
    # the record's Gamma is the estimator's, and it has one row per chain
    # of the first --points conditioning points
    cfg = write_config(tmp_path, family="pairwise", seed=6, walkers=2)
    out = tmp_path / "diag"
    assert main(["sample-diagnostics", "--config", cfg, "--points", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    record = load_record(str(out / "record.json"))
    assert [row["point"] for row in record.results["chains"]] == [0, 0, 1, 1, 2, 2]

    loaded = load_config(cfg)
    space, density = build_space(loaded), build_density(loaded)
    ansatz = build_ansatz("pairwise", density, space, loaded.ansatz.gamma, loaded.ansatz.beta)
    settings = build_sampler_settings(loaded)
    direct = gamma_correlation(density, ansatz, settings, method="mc")
    assert record.results["gamma"] == direct.to_dict()


def test_sample_diagnostics_needs_a_satellite(tmp_path, capsys):
    path = tmp_path / "h.cfg"
    path.write_text("[system]\nn = 1\nz = 1.0\n", encoding="utf-8")
    assert main(["sample-diagnostics", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "[system]" in capsys.readouterr().err


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


# every one of the 34 keys away from its default
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
family = simple
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
tune = false
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


def test_config_text_round_trip(tmp_path):
    with open(write_config(tmp_path, optimize=OPT_SECTION), encoding="utf-8") as fh:
        texts = [fh.read(), EVERY_KEY_CONFIG]
    for text in texts:
        cfg = parse_config(text)
        again = parse_config(config_to_text(cfg))
        assert again == cfg

    every = parse_config(EVERY_KEY_CONFIG)
    for name in ("system", "density", "ansatz", "sampler", "optimize"):
        section = getattr(every, name)
        for f in dataclasses.fields(section):
            assert getattr(section, f.name) != f.default, (name, f.name)
    assert len(config_keys(EVERY_KEY_CONFIG)) == 34


def test_runconfig_dict_round_trip(tmp_path):
    with open(write_config(tmp_path), encoding="utf-8") as fh:
        cfg = parse_config(fh.read(), {"seed": 77, "prefactor": "full"})
    assert cfg.sampler.seed == 77
    assert cfg.prefactor == "full"
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    # through JSON, as a record stores it: the float tuples come back as lists
    mixture = parse_config(EVERY_KEY_CONFIG, {"test_mode": True})
    assert RunConfig.from_dict(json.loads(json.dumps(mixture.to_dict()))) == mixture


def test_readme_config_block_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert config_keys(block) == config_keys(config_to_text(cfg))
    assert len(config_keys(block)) == 34


def test_gamma_floor_needs_test_mode(tmp_path):
    text = "[system]\nn = 2\nz = 2.0\n[ansatz]\nfamily = pairwise\ngamma = 0.0\n"
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(text)
    cfg = parse_config(text, {"test_mode": True})
    assert cfg.ansatz.gamma == 0.0

    low = "[system]\nn = 2\nz = 2.0\n[optimize]\ngamma_min = 0.0\n"
    with pytest.raises(ConfigError, match="gamma_min"):
        parse_config(low)
    assert parse_config(low, {"test_mode": True}).optimize.gamma_min == 0.0


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def test_record_save_load_round_trip(tmp_path):
    record = RunRecord(
        command="corrsearch energy --config x", config={"a": 1}, seed=3, prefactor="half"
    )
    record.results = {"value": 1.5}
    path = str(tmp_path / "deep" / "record.json")
    save_record(record, path)
    loaded = load_record(path)
    assert loaded.results == {"value": 1.5}
    assert loaded.timestamp  # finalize stamped it
    assert loaded.version == record.version


def test_reproducible_view_strips_clock_fields(tmp_path):
    record = RunRecord(command="c", config={}, seed=0, prefactor="half")
    record.timings = {"seconds": 1.0}
    record.finalize()
    view = record.reproducible_view()
    assert "timestamp" not in view and "timings" not in view
    assert view["seed"] == 0


def test_trace_round_trip(tmp_path):
    rows = [
        {"iteration": 0, "zeta": 1.0, "gamma": 2.0, "beta": 0.0, "energy": -1.0, "stderr": 0.1},
        {"iteration": 1, "zeta": 1.1, "gamma": 2.1, "beta": 0.0, "energy": -1.2, "stderr": 0.1},
    ]
    path = str(tmp_path / "trace.csv")
    save_trace(rows, path)
    loaded = load_trace(path)
    assert len(loaded) == 2
    assert loaded[0]["iteration"] == "0"
    assert float(loaded[1]["energy"]) == -1.2
