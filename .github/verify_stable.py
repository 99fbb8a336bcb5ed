"""Check that `finhyp verify` output is stable from a base checkout to a head one.

Usage: python3 .github/verify_stable.py BASE_DIR HEAD_DIR

Runs `finhyp verify --check all --json` at seeds 1, 2, 9001 and every seed
of perfbench.workloads.VERIFY_CLI_SEEDS (read from HEAD_DIR) in each
checkout, with `millis` stripped from every report.  It fails unless, per
seed, the base's lines appear in order and unchanged among the head's: a new
check may add lines, but no existing verdict, instance or witness may change.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

MAIN = "import sys; from finhyp.cli import main; sys.exit(main(sys.argv[1:]))"


def cli_seeds(root):
    """VERIFY_CLI_SEEDS from perfbench/workloads.py, read without importing it."""
    tree = ast.parse((Path(root) / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "VERIFY_CLI_SEEDS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("VERIFY_CLI_SEEDS not found")


def verify_lines(root, seed):
    """The reports of one verify run, millis stripped, as canonical JSON lines."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-c", MAIN, "verify", "--check", "all", "--json", "--seed", str(seed)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    if run.returncode not in (0, 1):  # 0 all pass, 1 a failing or inconclusive check
        raise SystemExit(f"{root} seed {seed}: exit {run.returncode}\n{run.stderr}")
    lines = []
    for line in run.stdout.splitlines():
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
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
