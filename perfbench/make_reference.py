"""Store the reference outputs of one workload and seed.

    python3 perfbench/make_reference.py --workload padic_family --seed 1

Runs one pass in a fresh worker, checks every output along its independent
route (never against a stored reference), and only if all of them pass
writes perfbench/reference/<workload>-seed<seed>.json.  For `verify` the
file holds the sequence of checks and verdicts; for the other workloads it
holds every op's output.  The gate then compares later runs on that seed
with the stored values.
"""

import argparse
import json
import sys

import gate
import run
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    _, res = run.run_worker({"mode": "pass", "workload": args.workload, "ops": ops,
                             "trace": False})
    _, verdict = run.run_worker({"mode": "gate", "workload": args.workload,
                                 "seed": args.seed, "ops": ops, "use_stored": False,
                                 "passes": [res["outputs"]]})
    (ok,) = verdict["ok"]
    if not all(ok):
        print(f"{ok.count(False)} of {len(ok)} outputs failed the gate; "
              "nothing written", file=sys.stderr)
        return 1
    if args.workload == "verify":
        body = {"checks": [[r["check"], r["verdict"]]
                           for r in res["outputs"]["reports"]]}
    else:
        body = {"outputs": res["outputs"]}
    path = gate.reference_path(args.workload, args.seed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **body},
                               indent=1) + "\n")
    print(f"wrote {path.name}: {len(ok)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
