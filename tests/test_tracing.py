"""The benchmark's tracer wraps package attributes by name.

bench/tracing.py replaces functions at the module attributes their callers
look up, and family methods on the class.  A refactor that renames or
drops one of them must fail here, and every wrapper must come off again.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


@pytest.mark.parametrize("install", ["install_all", "install_estimator_log"])
def test_tracer_installs_and_restores_every_attribute(tracing, install):
    tracer = tracing.Tracer()
    getattr(tracing, install)(tracer)
    wrapped = list(tracer._installed)
    try:
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr


def test_traced_cli_calls_record_every_boundary(tracing, tmp_path, capsys):
    # the tracer wraps cli's module globals, so a writer or set-up step
    # that went round them would leave these spans unrecorded
    from corrsearch.cli import main

    cfg = tmp_path / "he.cfg"
    cfg.write_text(
        "[system]\nn = 2\nz = 2.0\n[ansatz]\nfamily = frozen\n"
        "[optimize]\nmax_iter_outer = 2\n",
        encoding="utf-8",
    )
    tracer = tracing.Tracer()
    tracing.install_all(tracer)
    try:
        for command in ("energy", "optimize"):
            argv = [command, "--config", str(cfg)]
            assert main([*argv, "--out", str(tmp_path / command)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span.name for span in tracer.spans()}
    for name in (
        "config.load_config",
        "records.save_record",
        "records.save_trace",
        "functionals.total_energy",
        "optimizer.outer_minimize",
    ):
        assert name in names, name
