"""The finhyp benchmark.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`).  Workloads, metrics and the predictions they support are described
in perfbench/README.md and next to each workload in perfbench/workloads.py.

A run starts a few set-up probes, then starts fresh-worker passes over the
workload's op list until --seconds have gone by (finishing the last one),
then, with --trace 1, one traced pass.  A last worker checks every
output exactly (perfbench/gate.py).  Workers run one at a time, each with
one thread.  Every metric is printed by name with its unit; the last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170
# The end-to-end metrics BENCHMARK.json gates with a bound.  op_ms_p50 and
# op_ms_tail are printed, and recorded with the per-layer metrics, but not
# gated: on the reference host their run-to-run spread (0.14-0.39 of the
# median on verify) exceeds any bound the format allows.  failed_frac is 0
# when all is well, which the format does not admit; `failed` and
# `attempted` carry it.
GATED_E2E = ("wall_s", "peak_rss_mb", "setup_s")


def _worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(job):
    """Start a fresh worker, time its set-up, hand it one job, wait for it.

    Returns (setup seconds, result dict).  Raises RuntimeError if the worker
    fails; the worker is always waited for.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_worker_env(), cwd=str(ROOT), text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if ready.strip() != "ready":
            proc.kill()
            _, err = proc.communicate()
            raise RuntimeError(f"worker did not start: {err.strip()[-2000:]}")
        out, err = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return setup, json.loads(out.strip().splitlines()[-1])


def hd_quantile(values, p, steps=40):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution over the n equal cells of [0, 1].
    Op times cluster by op kind, so a single order statistic jumps between
    clusters when noise reorders two neighbouring ops; this estimator moves
    smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # midpoint-rule integral of the Beta density over each cell, normalised
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def tail_quantile(n):
    """The highest percentile that still has >= 10 of n samples beyond it."""
    return max(0.5, (n - 10) / n)


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "seed": seed}


def measure(workload, seed, seconds, trace):
    ops = workloads.build(workload, seed)
    setups = []
    for _ in range(SETUP_PROBES):
        s, _ = run_worker({"mode": "probe"})
        setups.append(s)

    # Start passes until --seconds have gone by, and finish the last one.
    # Deciding from elapsed time alone, not from how fast the passes ran,
    # keeps the pass count from favouring runs that happened to be fast.
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        s, res = run_worker({"mode": "pass", "workload": workload, "ops": ops,
                             "trace": False})
        setups.append(s)
        passes.append(res)
    wall = statistics.median(p["wall_s"] for p in passes)

    traced = None
    if trace:
        s, traced = run_worker({"mode": "pass", "workload": workload, "ops": ops,
                                "trace": True, "untraced_wall_s": wall})
        setups.append(s)

    checked = passes + ([traced] if traced else [])
    s, verdict = run_worker({"mode": "gate", "workload": workload, "seed": seed,
                             "ops": ops, "passes": [p["outputs"] for p in checked]})
    setups.append(s)
    flags = [ok for per_pass in verdict["ok"] for ok in per_pass]
    attempted = len(flags)
    failed = attempted - sum(flags)

    n_ops = len(passes[0]["op_s"])
    tail_q = tail_quantile(n_ops)
    p50 = statistics.median(hd_quantile(p["op_s"], 0.5) for p in passes)
    tail = statistics.median(hd_quantile(p["op_s"], tail_q) for p in passes)
    e2e = {
        "wall_s": (wall, "s"),
        "op_ms_p50": (1000.0 * p50, "ms"),
        "op_ms_tail": (1000.0 * tail, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "failed_frac": (failed / attempted if attempted else 1.0, "ratio"),
    }
    info = {
        "workload": workload,
        "passes": len(passes),
        "ops_per_pass": n_ops,
        "op_ms_tail_percentile": 100.0 * tail_q,
        "op_ms_tail_samples": n_ops,
        "setup_samples": len(setups),
        "warm_op_share_static": _static_warm_share(workload, ops),
    }
    layers, missing = None, []
    if traced:
        layers = {k: tuple(v) for k, v in traced["layers"].items()}
        layers["hypergeometric.warm_op_share"] = (info["warm_op_share_static"], "ratio")
        # recorded with the layers, where no bound applies (see GATED_E2E)
        layers["op_ms_p50"] = e2e["op_ms_p50"]
        layers["op_ms_tail"] = e2e["op_ms_tail"]
        missing = traced["missing"]
    return e2e, layers, missing, info, attempted, failed


def _static_warm_share(workload, ops):
    """complex_sums: share of ops whose (route, params, q) ran earlier in
    the pass.  The other workloads have no such ops and report 0."""
    if workload != "complex_sums":
        return 0.0
    flags = workloads.warm_flags(ops)
    return sum(flags) / len(flags)


def _fmt(name, value, unit):
    return f"{name} = {value:.6g} {unit}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "finhyp" / "__init__.py").is_file():
        print(f"perfbench: no finhyp sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    e2e, layers, missing, info, attempted, failed = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))

    print(json.dumps({"environment": environment(args.seed), "run": info}))
    for name, (value, unit) in e2e.items():
        extra = ""
        if name == "op_ms_tail":
            extra = (f"  (p{info['op_ms_tail_percentile']:.1f} of "
                     f"{info['op_ms_tail_samples']} ops per pass)")
        print(_fmt(name, value, unit) + extra)
    if layers is not None:
        for name, (value, unit) in sorted(layers.items()):
            print(_fmt(name, value, unit))
        if missing:
            print(f"missing (a traced name no longer exists): {', '.join(missing)}")

    chosen = layers if args.trace else {k: e2e[k] for k in GATED_E2E}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
