"""corrsearch benchmark: one workload per call, each run in fresh processes.

    python3 bench/run.py --workload he-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  With --trace 0 the final line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run.  Earlier lines
give the same numbers for people, plus the output-check counts and the
machine.  Workloads, metrics and design notes: bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 8  # fresh-process set-ups per run, after one warm-up
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up probes (untraced runs only) and one worker run; raw results."""
    work_dir = ROOT / ".bench_out" / f"{name}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = []
        if not trace:
            base = ["--workload", name, "--seed", str(seed), "--dir", str(work_dir)]
            for i in range(SETUP_REPEATS + 1):
                out = run_worker(["setup", *base], deadline - time.monotonic())
                if i:  # the first one warms the bytecode and file caches
                    setups.append(json.loads(out.strip().splitlines()[-1]))
        result_path = work_dir / "result.json"
        run_worker(
            [
                "run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--dir", str(work_dir), "--result", str(result_path),
            ],
            deadline - time.monotonic(),
        )
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if setups:
        result["setup_probes"] = setups
        result["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    return result


def metrics_of(result: dict, trace: int) -> dict:
    """The BENCHMARK.json metric set of this mode, with units from that file."""
    if trace:
        values = dict(
            result["per_layer"],
            **{
                "checks.ops_failed_frac": result["ops_failed_frac"],
                "checks.bound_violation_frac": result["bound_violation_frac"],
                "functionals.time_to_1mha_s": result["time_to_1mha_s"],
            },
        )
    else:
        values = dict(
            result["end_to_end"], setup_s=result["setup_s"], peak_rss_mb=result["peak_rss_mb"]
        )
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def report(name: str, args, result: dict, metrics: dict, host: dict) -> None:
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(
        f"machine nproc={host['nproc']} affinity={host['affinity']} cpu={host['cpu']!r} "
        f"python={result['python']} numpy={result['numpy']}"
    )
    print(
        f"calls {result['calls']} in {result['passes']} pass(es), {result['loop_s']:.1f} s; "
        f"attempted {result['attempted']}, failed {result['failed']}"
    )
    print("call seconds: " + " ".join(f"{x:.3f}" for x in result["call_seconds"]))
    print("host speed factors: " + " ".join(f"{x:.3f}" for x in result["host_factors"]))
    for probe in result.get("setup_probes", ()):
        print(f"set-up probe: {probe['raw_s']:.4f} s raw, {probe['setup_s']:.4f} s normalized")
    if result["repro_identical"] is not None:
        print(f"workers=1 rerun bit-identical to workers=2: {result['repro_identical']}")
    for error in result["errors"][:10]:
        print(f"FAILED: {error}")
    for key, metric in metrics.items():
        print(f"  {key:<42} {metric['value']!r:>24} {metric['unit']}")
    print(f"  {'ops_failed_frac':<42} {result['ops_failed_frac']!r:>24} ratio")
    print(f"  {'bound_violation_frac':<42} {result['bound_violation_frac']!r:>24} ratio")
    print(f"  {'time_to_1mha_s':<42} {result['time_to_1mha_s']!r:>24} s")
    for zeta, gamma, beta, total, stderr in result["violations"]:
        print(
            f"  below reference: zeta={zeta} gamma={gamma} beta={beta} "
            f"total={total:+.4f} se={stderr:.4f}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "corrsearch" / "cli.py").is_file():
        print(f"error: no corrsearch source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    host = machine()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            metrics = metrics_of(result, args.trace)
            report(name, args, result, metrics, host)
            summary["correct"] = summary["correct"] and result["failed"] == 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
