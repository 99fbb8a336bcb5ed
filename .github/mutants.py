"""Check that recorded mutations of finhyp are caught.

Usage: python3 .github/mutants.py [ROOT]

Each row of MUTANTS is (name, file, old, new, gate).  The old text must
occur exactly once in the file, so a stale row fails loudly instead of
passing as a no-op.  Each row is applied to its own temporary copy of
src/ and tests/, and its gate must fail there: "verify" means `finhyp
verify --check all --seed 1` must exit 1 and print as many reports as it
does on the unmutated tree, at least one of them a failure; a tuple names
Tier-1 tests of which at least one must fail.
"""

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

MUTANTS = [
    ("lifted rows traced over G at big", "src/finhyp/hypergeometric.py",
     "        group = tuple(k + n * ((1 - k) * inv % p) for k in group)\n",
     "        group = tuple(group)\n", "verify"),
    ("Delta - 1", "src/finhyp/params.py",
     "                   for k in self._units())\n",
     "                   for k in self._units()) - 1\n", "verify"),
    ("orbit exponent v (q - 1) / D", "src/finhyp/params.py",
     "v * (q**len(orbit) - 1) // dd", "v * (q - 1) // dd", "verify"),
    ("odd-p reflection at p = 2", "src/finhyp/padic.py",
     "if p == 2 or s == r or s not in cache:", "if s == r or s not in cache:",
     ("tests/test_padic.py",)),
    ("twist sign in gauss_product", "src/finhyp/charsums.py",
     "value * root_of_unity(pair.x1.n, -shift)", "value * root_of_unity(pair.x1.n, shift)",
     ("tests/test_charsums.py::test_gauss_twist_identity",)),
    ("lane stride off by one", "src/finhyp/cyclo.py",
     "            lo = width * (i * stride + first)\n",
     "            lo = width * (i * (stride - 1) + first)\n", "verify"),
]


SUMMARY = re.compile(r"(\d+) checks, (\d+) failures, \d+ inconclusive")
REPORT = re.compile(r"(PASS|FAIL|INCONCLUSIVE) \w+: ")


def _env(root):
    return {"PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1", "PATH": ""}


def verify(root):
    """The exit code of `finhyp verify --check all --seed 1` in the checkout
    at root, with the check and failure counts of its summary line (None,
    None without one) and the number of report lines it printed."""
    run = subprocess.run([sys.executable, "-m", "finhyp.cli", "verify", "--check", "all",
                          "--seed", "1"], cwd=root, env=_env(root), capture_output=True,
                         text=True)
    lines = run.stdout.splitlines()
    summary = SUMMARY.fullmatch(lines[-1]) if lines else None
    checks, failures = map(int, summary.groups()) if summary else (None, None)
    return run.returncode, checks, failures, sum(1 for line in lines if REPORT.match(line))


def caught(root, gate, checks):
    """Whether the gate fails in the checkout at root, where the unmutated
    tree runs `checks` checks."""
    env = _env(root)
    if gate == "verify":
        code, count, failures, printed = verify(root)
        return code == 1 and count == printed == checks and bool(failures)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *gate],
                         cwd=root, env=env, capture_output=True, text=True)
    return run.returncode == 1  # tests ran and some failed


def main(root):
    code, checks, failures, printed = verify(root)
    if code != 0 or failures != 0 or printed != checks:
        raise SystemExit(f"the unmutated tree fails its verify gate: exit {code}, "
                         f"{printed} reports, summary {checks} checks, {failures} failures")
    missed = 0
    for name, file, old, new, gate in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp)
            for part in ("src", "tests"):
                shutil.copytree(root / part, copy / part)
            text = (copy / file).read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {file}")
            (copy / file).write_text(text.replace(old, new))
            ok = caught(copy, gate, checks)
        print(f"{name}: {'caught' if ok else 'MISSED'} by {gate if gate == 'verify' else ' '.join(gate)}")
        missed += not ok
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()))
