"""Shared helpers for the test suite."""

import concurrent.futures
import json
import threading

import numpy as np
import pytest

from corrsearch import sampler
from corrsearch.ansatz import AnsatzError, EstimatorError, PairwiseBiparametric, pair_energy
from corrsearch.domain import ExponentialDensity, QuadratureGrid, SpaceSpec, _gauss_legendre
from corrsearch.sampler import SamplerSettings

HE_ZETA = 27.0 / 16.0


def read_record(path) -> dict:
    """A run's record.json as written, without going through RunRecord."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more threads running than it started with."""
    before = threading.active_count()
    yield
    leaked = threading.active_count() - before
    assert leaked <= 0, f"{leaked} thread(s) left running: {threading.enumerate()}"


@pytest.fixture
def he_density():
    return ExponentialDensity(zeta=HE_ZETA, n_electrons=2)


@pytest.fixture
def h_density():
    return ExponentialDensity(zeta=1.0, n_electrons=1)


@pytest.fixture
def space3d():
    return SpaceSpec(dim=3, radius=10.0, n_electrons=2)


def fast_settings(**kw) -> SamplerSettings:
    """Small but statistically usable sampler budgets for unit tests."""
    base = dict(
        conditioning_points=64,
        samples=64,
        burn_in=128,
        thinning=2,
        walkers=1,
        sigma=0.5,
        seed=0,
    )
    base.update(kw)
    return SamplerSettings(**base)


def random_points(rng: np.random.Generator, n: int, dim: int, r_min: float = 0.1,
                  r_max: float = 4.0) -> np.ndarray:
    """Random points with radius in [r_min, r_max], shape (n, dim)."""
    out = np.empty((n, dim))
    k = 0
    while k < n:
        cand = rng.uniform(-r_max, r_max, size=(2 * n, dim))
        r = np.sqrt(np.sum(cand * cand, axis=-1))
        good = cand[(r > r_min) & (r < r_max)]
        take = min(n - k, good.shape[0])
        out[k : k + take] = good[:take]
        k += take
    return out


def radial_angular_grid(
    r_max: float = 30.0,
    n_radial: int = 128,
    n_theta: int = 24,
    n_phi: int = 24,
) -> QuadratureGrid:
    """Product quadrature over the 3D ball of radius r_max, the reference
    rule for integrands that are not spherical.

    Gauss-Legendre radially and in cos(theta), uniform in phi.  Radial
    nodes are strictly inside (0, r_max), so integrands with a cusp or
    1/r singularity at the origin never see the origin node.
    """
    r, wr = _gauss_legendre(n_radial, 0.0, r_max)
    mu, wmu = _gauss_legendre(n_theta, -1.0, 1.0)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    wphi = np.full(n_phi, 2.0 * np.pi / n_phi)

    rr, mm, pp = np.meshgrid(r, mu, phi, indexing="ij")
    ww = (
        (wr * r * r)[:, None, None]
        * wmu[None, :, None]
        * wphi[None, None, :]
    )
    st = np.sqrt(1.0 - mm * mm)
    nodes = np.stack(
        [rr * st * np.cos(pp), rr * st * np.sin(pp), rr * mm], axis=-1
    ).reshape(-1, 3)
    return QuadratureGrid("radial-angular", nodes, ww.reshape(-1))


def unit_pairwise_normalization(
    ansatz: PairwiseBiparametric, r: np.ndarray, grid: QuadratureGrid
) -> float:
    """Per-satellite log normalization Ebar(r) of pairwise at (gamma, beta)
    = (1, 0), one factor per satellite, which the quadrature reference for
    its sampled satellite marginal divides by.

    Defined by exp(-Ebar(r)) = integral over omega of exp(-E_H(r, s)) ds,
    evaluated by quadrature on a grid covering omega.  The normalized
    density is then f = prod_n exp(Ebar(r)) exp(-E_H(r, s_n)).
    """
    if not (isinstance(ansatz, PairwiseBiparametric) and (ansatz.gamma, ansatz.beta) == (1.0, 0.0)):
        raise AnsatzError("unit_pairwise_normalization requires pairwise at (1, 0)")
    r = np.asarray(r, dtype=float)
    e = pair_energy(ansatz.density, ansatz.space, r[None, :], grid.nodes)
    val = float(np.sum(grid.weights * np.exp(-e)))
    if not val > 0.0:
        raise EstimatorError("unit pairwise normalization integral vanished")
    return -np.log(val)


class InlinePool:
    """A synchronous stand-in for the sampler's one-thread pool: each job
    runs when it is submitted, on the calling thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def steps_per_chunk(monkeypatch, steps, chains, dim=1):
    """Set the variate budget so that a batch draws `steps` steps at a time."""
    monkeypatch.setattr(sampler, "_VARIATE_BYTES", steps * 8 * (dim + 2) * chains)


def pooled_runs(monkeypatch, run):
    """run() with the sampler's pool thread, a rerun, and run() with
    InlinePool in the pool's place; each must start the pool."""
    real = sampler.ThreadPoolExecutor
    outs = []
    for pool in (real, real, InlinePool):
        started = []

        def counted(max_workers, pool=pool):
            started.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(sampler, "ThreadPoolExecutor", counted)
        outs.append(run())
        assert started, "the batch did not start the pool"
    monkeypatch.setattr(sampler, "ThreadPoolExecutor", real)
    return outs
