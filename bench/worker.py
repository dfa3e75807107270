"""One workload run in a fresh process; started by run.py, not by hand.

    worker.py setup --workload W --seed N --dir D
        time import + config load + object build once; print the raw and
        the host-normalized seconds as JSON
    worker.py run --workload W --seed N --seconds S --trace 0|1 --dir D --result F
        run the closed loop and write the raw result as JSON to F

run.py pins BLAS/OpenMP threads to 1 in the environment, so
``workers = 2`` in a config means two threads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

from workloads import WORKLOADS, Outcome, Point, Workload, check_call


# the probe's time in the fast phase of the 2-core host the bounds were set on
HOST_PROBE_REF_S = 0.026


def host_probe() -> float:
    """Seconds for a fixed mix of small-array numpy calls and a Python loop,
    the kinds of work a sampler step does.

    That host alternates between two CPU speeds about 1.6x apart, in phases
    of seconds to minutes.  Dividing a timing by probe / HOST_PROBE_REF_S
    expresses it at the fast-phase speed.  The probe is single-threaded, and
    it tracks single-threaded work only.  Over back-to-back optimize calls it
    tracked call time with correlation 0.81, and dividing by it cut the
    call-to-call spread from 14 % to 9 %.  On two-thread n6-pairs calls the
    correlation was 0.32, and dividing raised the spread from 9 % to 14 %.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 384).reshape(128, 1, 3)
    t0 = time.perf_counter()
    for _ in range(1500):
        b = a.copy()
        b[:, 0] += 0.1 * a[:, 0]
        np.exp(-np.sum(b * b, axis=-1)).sum()
    x = 0
    for i in range(200_000):
        x += i
    return time.perf_counter() - t0


def cmd_setup(args) -> None:
    wl = WORKLOADS[args.workload]
    point = wl.pass_points(random.Random(args.seed))[0]
    path = os.path.join(args.dir, "setup.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(wl.config_text(point))

    t0 = time.perf_counter()
    from corrsearch import cli, config, optimizer

    parsed = cli.build_parser().parse_args([point.command, "--config", path])
    cfg = config.load_config(parsed.config, {"prefactor": parsed.prefactor})
    space = config.build_space(cfg)
    density = config.build_density(cfg)
    config.build_potential(cfg)
    config.build_sampler_settings(cfg)
    if point.command == "optimize":
        config.build_optimize_spec(cfg)
    else:
        optimizer.build_ansatz(
            cfg.ansatz.family, density, space, cfg.ansatz.gamma, cfg.ansatz.beta
        )
    raw = time.perf_counter() - t0
    host_probe()  # warm-up
    probe = host_probe()
    print(json.dumps({"raw_s": raw, "setup_s": raw * HOST_PROBE_REF_S / probe}))


class Runner:
    """Runs CLI calls in-process and checks each output.

    With a tracer, calls made with traced=True go through a "cli.main"
    root span whose index is appended to `roots`.
    """

    def __init__(self, wl: Workload, base_dir: str, tracer=None):
        from corrsearch import cli

        self.wl = wl
        self.base_dir = base_dir
        self.main = cli.main
        self.tracer = tracer
        self.traced_main = tracer.wrap("cli.main", cli.main) if tracer is not None else None
        self.roots: list[int] = []
        self.count = 0

    def call(self, point: Point, workers: int | None = None, traced: bool = False):
        """(seconds, outcome); seconds cover the whole cli.main call."""
        self.count += 1
        out_dir = os.path.join(self.base_dir, f"call-{self.count}")
        os.makedirs(out_dir)
        cfg_path = os.path.join(out_dir, "run.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(self.wl.config_text(point, workers))
        argv = [point.command, "--config", cfg_path, "--out", out_dir]
        main = self.main
        if traced:
            self.roots.append(len(self.tracer))
            main = self.traced_main
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except Exception as exc:  # a crash is a failed op, not a benchmark crash
            seconds = time.perf_counter() - t0
            outcome = Outcome(f"raised {type(exc).__name__}: {exc}", {})
        else:
            seconds = time.perf_counter() - t0
            outcome = check_call(self.wl, point, code, out_dir)
            if not outcome.ok and sink.getvalue().strip():
                outcome.error += " | " + sink.getvalue().strip().splitlines()[-1]
        shutil.rmtree(out_dir, ignore_errors=True)
        return seconds, outcome


def timed_loop(runner: Runner, rng: random.Random, first_pass, seconds: float):
    """Whole passes until the next one would end after `seconds`; at least one.

    Returns the calls, each call's host speed factor, the loop's wall time
    and the number of passes.  With workers = 1 a host probe runs before the
    first call and after each call, and a call's factor is the mean of the
    probes on either side over HOST_PROBE_REF_S; with more threads the probe
    does not track the call time (see host_probe) and every factor is 1.
    """
    calls, factors, pass_times = [], [], []
    traced = runner.tracer is not None
    single_thread = runner.wl.sampler["workers"] == 1
    start = time.perf_counter()
    probe = host_probe() if single_thread else HOST_PROBE_REF_S
    schedule = first_pass
    while True:
        t0 = time.perf_counter()
        for point in schedule:
            calls.append((point, *runner.call(point, traced=traced)))
            after = host_probe() if single_thread else HOST_PROBE_REF_S
            factors.append((probe + after) / (2.0 * HOST_PROBE_REF_S))
            probe = after
        pass_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(pass_times) > seconds:
            return calls, factors, elapsed, len(pass_times)
        schedule = runner.wl.pass_points(rng)


def call_stats(wl: Workload, calls, factors, runner: Runner):
    """Per successful call: (seconds, host speed factor, chain-steps,
    estimator calls), where each estimator call is (seconds, stderr).

    An energy call is one estimator call whose chain-steps the settings fix.
    An optimize call makes many; the spans under the call's root give each
    one's seconds, error bar and chain-steps.
    """
    good = [(i, s, f, o) for i, ((_, s, o), f) in enumerate(zip(calls, factors)) if o.ok]
    if not wl.optimize:
        return [(s, f, wl.chain_steps, [(s, o.total_stderr)]) for _, s, f, o in good]
    from tracing import SpanTree

    tree = SpanTree(runner.tracer.spans())
    stats = []
    for i, s, f, _ in good:
        spans = [tree.spans[j] for j in tree.under(runner.roots[i:i + 1])]
        estimates = [e for e in spans if e.name == "functionals.gamma_correlation"]
        steps = sum(e.info["chain_steps"] for e in estimates)
        stats.append((s, f, steps, [(e.duration, e.info["stderr"]) for e in estimates]))
    return stats


def time_to_1mha(stats) -> float | None:
    """Mean over estimator calls of seconds x (stderr / 1 mHa)^2.

    A mean, not a median: per-call values carry the heavy-tailed noise of
    each error bar, and with a few calls per run the median jumps between
    grid cells whose values differ several-fold.
    """
    values = [s * (se / 1e-3) ** 2 for *_, estimates in stats for s, se in estimates]
    return statistics.mean(values) if values else None


def end_to_end(stats) -> dict:
    """Medians over calls of the call time and chain-step rate, each call's
    time divided by its host speed factor (see host_probe)."""
    if not stats:
        return {"call_s": None, "chain_steps_per_s": None}
    return {
        "call_s": statistics.median(s / f for s, f, _, _ in stats),
        "chain_steps_per_s": statistics.median(n * f / s for s, f, n, _ in stats),
    }


def traced_run(runner: Runner, rng: random.Random, first_pass, seconds: float):
    """Timed loop with tracing on, then the first point again untraced and
    traced, back to back after warm-up: their difference is the tracing
    overhead, and the traced rerun must repeat the first call's counts."""
    from tracing import SpanTree, counts, install_all, layer_metrics

    tracer = runner.tracer
    install_all(tracer)
    calls, factors, loop_s, passes = timed_loop(runner, rng, first_pass, seconds)
    loop_roots = list(runner.roots)
    tracer.uninstall()
    plain_s, plain = runner.call(first_pass[0])
    install_all(tracer)
    traced_s, traced = runner.call(first_pass[0], traced=True)
    tracer.uninstall()

    failures = []
    tree = SpanTree(tracer.spans())
    first_counts = counts(tree, tree.under(loop_roots[:1]))
    again_counts = counts(tree, tree.under(runner.roots[-1:]))
    if first_counts != again_counts:
        failures.append(f"counts differ on rerun: {first_counts} vs {again_counts}")
    for key in ("kernel_chain_calls", "pair_evals"):
        if first_counts.get(key) != first_counts.get(key + "_observed"):
            failures.append(f"computed {key} disagrees with the spans")
    if not (plain.ok and traced.ok and plain.results == traced.results == calls[0][2].results):
        failures.append("traced and untraced reruns of one point differ")
    layer = layer_metrics(tree, tree.under(loop_roots))
    layer["trace.overhead_s"] = traced_s - plain_s
    layer["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return calls, factors, loop_s, passes, layer, failures


def cmd_run(args) -> None:
    from tracing import Tracer, install_estimator_log

    wl = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    first_pass = wl.pass_points(rng)
    # the optimize workload logs its estimator calls even untraced: one
    # wrapper opened about a dozen times a second costs nothing measurable
    runner = Runner(wl, args.dir, Tracer() if args.trace or wl.optimize else None)
    if args.trace:
        calls, factors, loop_s, passes, layer, failures = traced_run(
            runner, rng, first_pass, args.seconds
        )
        extra_calls = 2
    else:
        if runner.tracer is not None:
            install_estimator_log(runner.tracer)
        calls, factors, loop_s, passes = timed_loop(runner, rng, first_pass, args.seconds)
        if runner.tracer is not None:
            runner.tracer.uninstall()
        layer, failures, extra_calls = {}, [], 0
    stats = call_stats(wl, calls, factors, runner)

    repro = None
    if wl.name == "he-sweep":
        # worker-count promise: the same point at workers = 1 is bit-identical
        _, single = runner.call(first_pass[0], workers=1)
        extra_calls += 1
        repro = single.ok and single.results == calls[0][2].results
        if not repro:
            failures.append("workers = 1 rerun differs from workers = 2")

    failed_ops = [o.error for _, _, o in calls if not o.ok]
    energies = [o for _, _, o in calls if o.ok]
    import numpy  # not at the top: the set-up probe times numpy's import

    result = {
        "workload": wl.name,
        "attempted": len(calls) + extra_calls,
        "failed": len(failed_ops) + len(failures),
        "errors": failed_ops + failures,
        "calls": len(calls),
        "passes": passes,
        "loop_s": loop_s,
        "call_seconds": [s for _, s, _ in calls],
        "host_factors": factors,
        "repro_identical": repro,
        "ops_failed_frac": len(failed_ops) / len(calls),
        "bound_violation_frac": (
            sum(o.violation for o in energies) / len(energies) if energies else 0.0
        ),
        "violations": [
            [p.zeta, p.gamma, p.beta, o.total, o.total_stderr]
            for p, _, o in calls if o.ok and o.violation
        ],
        "end_to_end": {} if args.trace else end_to_end(stats),
        "time_to_1mha_s": time_to_1mha(stats),
        "per_layer": layer,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result")
    args = parser.parse_args()
    if args.mode == "setup":
        cmd_setup(args)
    else:
        cmd_run(args)


if __name__ == "__main__":
    main()
