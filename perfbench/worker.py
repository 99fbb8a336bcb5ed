"""One benchmark worker: a fresh single-threaded process per job.

The parent starts `python3 perfbench/worker.py` with `src` on PYTHONPATH.
The worker imports `finhyp.cli` (which imports every layer) and prints
"ready"; the parent times set-up from process start to that line.  Then it
reads one JSON job from stdin and writes one JSON result line to stdout:

* {"mode": "pass", ...}: run the op list once, timing each op, optionally
  under the tracer; outputs are serialised after the last op.
* {"mode": "gate", ...}: check the outputs of earlier passes.
* {"mode": "probe"}: nothing; the parent only wanted the set-up time.
"""

import sys

import finhyp.cli  # noqa: E402  (the set-up the parent measures)

print("ready", flush=True)

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

from finhyp import checks, hypergeometric, padic  # noqa: E402
from finhyp.params import HGParams  # noqa: E402

import gate  # noqa: E402
import tracer as tracing  # noqa: E402


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _prepare(op, instances):
    """A zero-argument call for one op.  Inputs are built here, outside the
    timed window; package functions are looked up when the op runs, so a
    traced pass calls the wrapped ones."""
    fn = op["fn"]
    params = HGParams.parse(*op["params"]) if "params" in op else None
    if fn in ("padic_sum_direct", "padic_sum_via_orbits"):
        return lambda: getattr(padic, fn)(params, op["p"], op["t"], op["prec"],
                                          op["max_pn"])
    if fn == "gamma_p":
        x = Fraction(op["x"])
        return lambda: padic.gamma_p(x, op["p"], op["prec"], op["max_pn"])
    if fn == "gauss_sum_padic":
        return lambda: padic.gauss_sum_padic(op["p"], op["f"], op["m"], op["prec"],
                                             op["max_pn"])
    if fn in ("classic_sum", "katz_unnormalized"):
        return lambda: getattr(hypergeometric, fn)(params, op["q"], op["t"])
    if fn == "greene_factor":
        return lambda: hypergeometric.greene_factor(params, op["q"])
    if fn in ("algebra_sum_fourier", "algebra_sum_direct"):
        key = (tuple(op["params"]), op["q"])

        def call():
            # one split instance per (params, q), built by the first op
            # that needs it, as a library user would
            inst = instances.get(key)
            if inst is None:
                inst = instances[key] = hypergeometric.split_instance(params, op["q"])
            return getattr(hypergeometric, fn)(inst, op["t"])

        return call
    raise ValueError(f"unknown op {fn!r}")


def _run_library_ops(ops, tracer):
    instances = {}
    calls = [_prepare(op, instances) for op in ops]
    if tracer is not None:
        tracer.install()
    starts, times, values = [], [], []
    t0 = perf_counter()
    for call in calls:
        s = perf_counter()
        try:
            values.append(call())
        except Exception as e:  # every exception is a failed op
            values.append(e)
        e_ = perf_counter()
        starts.append(s)
        times.append(e_ - s)
    wall = perf_counter() - t0
    rss = _peak_rss_mb()
    outputs = [
        {"kind": "error", "error": f"{type(v).__name__}: {v}"}
        if isinstance(v, Exception) else gate.serialize(v)
        for v in values
    ]
    return wall, starts, times, rss, outputs


def _run_verify(ops, tracer):
    """One in-process CLI call; the ops are the check_* calls it makes."""
    (op,) = ops
    starts, times, reports = [], [], []

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                reports.append(e)
                raise
            finally:
                starts.append(s)
                times.append(perf_counter() - s)
            reports.append(out)
            return out

        return wrapper

    for name, fn in list(vars(checks).items()):
        if name.startswith("check_") and callable(fn):
            setattr(checks, name, timed(fn))
    if tracer is not None:
        tracer.install()
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = finhyp.cli.main(op["argv"])
    except Exception as e:  # an escaped exception fails the run
        status = f"{type(e).__name__}: {e}"
    wall = perf_counter() - t0
    rss = _peak_rss_mb()
    lines = [json.loads(x) for x in buf.getvalue().splitlines() if x.strip()]
    out = []
    for r in reports:
        if isinstance(r, Exception):
            out.append({"kind": "error", "error": f"{type(r).__name__}: {r}"})
        else:
            out.append(gate.serialize(r))
    # the printed lines must be the reports, in order
    if [x.get("verdict") for x in lines] != [x.get("verdict") for x in out]:
        status = status or "printed lines do not match the check reports"
    return wall, starts, times, rss, {"reports": out, "status": status}


def run_pass(job):
    tracer = tracing.Tracer() if job["trace"] else None
    runner = _run_verify if job["workload"] == "verify" else _run_library_ops
    wall, starts, times, rss, outputs = runner(job["ops"], tracer)
    result = {"wall_s": wall, "op_s": times, "rss_mb": rss, "outputs": outputs}
    if tracer is not None:
        metrics, missing = tracing.layer_metrics(
            tracer, wall, job["untraced_wall_s"], starts)
        result["layers"] = {k: list(v) for k, v in metrics.items()}
        result["missing"] = missing
    return result


def run_gate(job):
    g = gate.Gate(job["workload"], job["seed"], job["ops"],
                  job.get("use_stored", True))
    return {"ok": [g.check_pass(outputs) for outputs in job["passes"]]}


def main():
    job = json.loads(sys.stdin.read())
    modes = {"probe": lambda job: {}, "pass": run_pass, "gate": run_gate}
    result = modes[job["mode"]](job)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
