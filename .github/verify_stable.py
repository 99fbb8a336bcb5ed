"""Check that `finhyp verify` output is stable from a base checkout to a head one.

Usage: python3 .github/verify_stable.py BASE_DIR HEAD_DIR

Runs `finhyp verify --check all --json` at seeds 1, 2, 9001 and every seed
of perfbench.workloads.VERIFY_CLI_SEEDS (read from HEAD_DIR) in each
checkout, with `millis` stripped from every report.  It fails unless, per
seed, the base's lines appear in order and unchanged among the head's: a new
check may add lines, but no existing verdict, instance or witness may change.

verify prints no p-adic digit and no orbit table, so it also runs each
command of DIGIT_COMMANDS in each checkout and fails unless the outputs are
byte-identical: `gp` on both routes, `gauss` with its Gross-Koblitz side,
`hq --algebra orbits` at q with orbits of length > 1, and `delta --p` with
its orbit table.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

MAIN = "import sys; from finhyp.cli import main; sys.exit(main(sys.argv[1:]))"

DIGIT_COMMANDS = [
    ["gp", "--alpha", alpha, "--beta", beta, "--p", p, "--prec", prec,
     "--all-t", "--route", "both", "--json"]
    for alpha, beta, p, prec in (("1/5,2/5,3/5,4/5", "0,0,0,0", "11", "9"),
                                 ("1/2,1/2", "0,0", "13", "8"),
                                 ("1/3,2/3", "0,0", "7", "12"))
] + [
    ["gauss", "--p", p, "--f", f, "--m", m, "--prec", prec, "--json"]
    # at p = 2 the orbit {1/5, 2/5, 4/5, 3/5} holds reflection pairs, which
    # Gamma_p must not read off each other
    for p, f, m, prec in (("11", "1", "3", "9"), ("3", "4", "10", "6"), ("13", "2", "7", "5"),
                          ("2", "4", "3", "6"))
] + [
    ["hq", "--alpha", alpha, "--beta", beta, "--q", q, "--algebra", "orbits", "--all-t", "--json"]
    for alpha, beta, q in (("1/5,2/5,3/5,4/5", "0,0,0,0", "4"), ("1/3,2/3", "0,0", "5"),
                           ("1/4,3/4", "0,1/2", "27"))
] + [
    ["delta", "--alpha", alpha, "--beta", beta, "--p", p, "--json"]
    # at p = 3 the alpha orbit {1/8, 3/8} comes twice
    for alpha, beta, p in (("1/5,2/5,3/5,4/5", "0,0,0,0", "7"),
                           ("1/8,3/8,1/8,3/8", "0,0,1/2,1/2", "3"))
]


def cli_seeds(root):
    """VERIFY_CLI_SEEDS from perfbench/workloads.py, read without importing it."""
    tree = ast.parse((Path(root) / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "VERIFY_CLI_SEEDS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("VERIFY_CLI_SEEDS not found")


def run_cli(root, argv):
    """The stdout of one finhyp CLI call in the checkout at root."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-c", MAIN, *argv],
                         capture_output=True, text=True, env=env, timeout=300)
    if run.returncode not in (0, 1):  # verify exits 1 on a failing or inconclusive check
        raise SystemExit(f"{root} {' '.join(argv)}: exit {run.returncode}\n{run.stderr}")
    return run.stdout


def verify_lines(root, seed):
    """The reports of one verify run, millis stripped, as canonical JSON lines."""
    lines = []
    out = run_cli(root, ["verify", "--check", "all", "--json", "--seed", str(seed)])
    for line in out.splitlines():
        report = json.loads(line)
        report.pop("millis", None)
        lines.append(json.dumps(report, sort_keys=True, separators=(",", ":")))
    return lines


def first_missing(base, head):
    """The first base line not found, in order, among the head lines, or None."""
    rest = iter(head)
    for line in base:
        if not any(h == line for h in rest):
            return line
    return None


def main(base_root, head_root):
    failed = 0
    for seed in dict.fromkeys((1, 2, 9001, *cli_seeds(head_root))):
        base, head = verify_lines(base_root, seed), verify_lines(head_root, seed)
        missing = first_missing(base, head)
        status = "ok" if missing is None else "CHANGED"
        print(f"seed {seed}: {len(base)} base lines, {len(head)} head lines: {status}")
        if missing is not None:
            print(f"  not in head, in order: {missing}")
            failed += 1
    for argv in DIGIT_COMMANDS:
        same = run_cli(base_root, argv) == run_cli(head_root, argv)
        print(f"{' '.join(argv)}: {'ok' if same else 'CHANGED'}")
        failed += not same
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
