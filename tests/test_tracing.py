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
