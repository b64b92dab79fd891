"""Mutation check: every listed one-line edit of src/ must fail its named test.

Usage: python3 tests/mutants.py [TREE]

TREE (default: the tree holding this file) holds src/quadfactor and
tests/.  For each mutant the script copies src/, tests/ and
pyproject.toml to a temporary directory, replaces the exact old text by
the new one and runs only the named test there.  The mutant is killed
when that test fails.  The script prints one line per mutant and exits 1
if any mutant survives, if its old text does not occur exactly once, or
if a named test fails on the unmutated copy.  Stdlib and pytest only;
pytest does not collect it.

When the code a mutant targets moves, the exact-text match fails loudly:
update the mutant with the code.

Equivalent mutants, left out because they change no output:
- `c >= bound` -> `c > bound` in chebyshev_report: 2x is never prime for
  x >= 2, so no cofactor equals 2x.
- `p >= bound` -> `p > bound` in chebyshev_report, for the same reason.
- `isqrt(x * x + abs(spec.b)) + 1` -> `isqrt(x * x + abs(spec.b))` in
  chebyshev_report: two primes above isqrt(x^2 + |b|) already multiply
  past x^2 + |b|, so a cofactor is still one prime.  Only the limit
  pinned by test_chebyshev_sieve_limit sees it.
- `s + pk < length` -> `<=` in sieve._scheduler's divide: at equality
  the slice holds one element, and both branches divide it once.
- `isqrt((X - 1) // 4)` -> `isqrt(X // 4)` in stats._chowla_todd_counts:
  at X = 4s^2 the extra term is pi(4s) - pi(4s) = 0.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SIEVE = "src/quadfactor/sieve.py"
STATS = "src/quadfactor/stats.py"
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_fast_definitional_equivalence"
CRITERION_10 = "tests/test_acceptance.py::test_criterion_10_property_suites"
NAIVE = "tests/test_stats.py::test_chebyshev_and_nx_match_naive_factorization"

MUTANTS = [  # (file, exact old text, new text, the test that must fail)
    # p | b treated as a lifted prime: its roots mod p^k multiply
    (SIEVE, "if p == 2 or b % p == 0:", "if p == 2:", CRITERION_10),
    (SIEVE, "r = (r - (r * r + b) * u) % pk", "r = (r + (r * r + b) * u) % pk", CRITERION_1),
    (SIEVE, "(lo - 1 - r) // pk", "(lo - r) // pk", NAIVE),
    (SIEVE, "add(p, levels, lo)", "add(p, levels, lo + 1)", CRITERION_10),
    # the table primes >= 2x stay in S (b = 504, x = 2: 5 | 505)
    (STATS, "big = {p: exps.pop(p) for p in [p for p in exps if p >= bound]}", "big = {}",
     NAIVE),
    # the cofactor primes in (L, 2x) join S' (b = 1, x = 10: 13 | 26)
    (STATS, "if c >= bound:", "if c > 1:", "tests/test_stats.py::test_chebyshev_small_oracle"),
    # a table prime of S' counted once (b = 24, x = 2: 25 = 5^2)
    (STATS, "map(mul, big.values(), map(math.log, big))", "map(math.log, big)", NAIVE),
    # the t/u split at Kx (b = 504, x = 2, K = 2.5: 5 = Kx is in u)
    (STATS, "t = sum(p < kx for", "t = sum(p <= kx for", NAIVE),
    # a sieve limit that ignores b leaves composite cofactors
    (STATS, "limit = arith.isqrt(x * x + abs(spec.b)) + 1", "limit = x + 1",
     "tests/test_stats.py::test_chebyshev_sieve_limit"),
]


def run_test(root: Path, test: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "-o", "addopts=", test],
                          cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def copy_tree(tree: Path, dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(tree / name, dest / name, ignore=skip)
    shutil.copy(tree / "pyproject.toml", dest)


def main(tree: Path) -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(tree, clean)
        for test in sorted({m[3] for m in MUTANTS}):
            if run_test(clean, test) != 0:
                print(f"ERROR   {test} fails on the unmutated tree")
                bad += 1
    for i, (path, old, new, test) in enumerate(MUTANTS, 1):
        source = (tree / path).read_text()
        if source.count(old) != 1:
            print(f"ERROR   {i} {path}: {old!r} occurs {source.count(old)} times")
            bad += 1
            continue
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            copy_tree(tree, root)
            (root / path).write_text(source.replace(old, new))
            code = run_test(root, test)
        verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR {code}"
        bad += verdict != "killed"
        print(f"{verdict:8}{i} {path}: {old!r} -> {new!r} by {test}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: mutants.py [TREE]")
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) == 2 else Path(__file__).parent.parent)))
