"""Find `finhyp verify` seeds whose check mix costs about the same.

    python3 perfbench/vet_verify_seeds.py 1 2 3

`verify --seed S` draws random algebra instances and parameters, so the
time, the median check time and the memory of a run depend on S (17-22 s,
6-16 ms and 160-187 MB for S = 1..5 on the reference machine).  The
benchmark keeps the paper's workload but maps its own seed onto CLI seeds
whose mix is typical, listed in workloads.VERIFY_CLI_SEEDS.

For each CLI seed given this runs every check except main_theorem (whose
two instances do not depend on the seed) in a fresh process and prints one
JSON line: summed check seconds, peak RSS, and the benchmark's op_ms_p50 and
op_ms_tail estimates with two slow placeholders standing in for the
main_theorem checks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

PROBE = r"""
import json, resource, sys, time
from finhyp import checks
from run import hd_quantile, tail_quantile
times = []
for name, fn in list(vars(checks).items()):
    if name.startswith("check_"):
        def timed(*a, _fn=fn, **k):
            s = time.perf_counter()
            try:
                return _fn(*a, **k)
            finally:
                times.append(time.perf_counter() - s)
        setattr(checks, name, timed)
names = [n for n in checks.CHECK_NAMES if n != "main_theorem"]
reports = checks.run_full_suite(seed=int(sys.argv[1]), checks=names)
assert all(r.passed for r in reports)
full = times + [5.0, 5.0]
print(json.dumps({
    "seed": int(sys.argv[1]),
    "check_s": round(sum(times), 4),
    "rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "p50_ms": round(1000 * hd_quantile(full, 0.5), 3),
    "tail_ms": round(1000 * hd_quantile(full, tail_quantile(len(full))), 3),
}))
"""


def main(argv=None):
    seeds = [int(x) for x in (argv or sys.argv[1:])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    for seed in seeds:
        out = subprocess.run([sys.executable, "-c", PROBE, str(seed)], env=env,
                             capture_output=True, text=True, check=True)
        print(out.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
