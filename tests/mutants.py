"""Mutation check: every listed one-line edit of src/ must fail its named test.

Usage: python3 tests/mutants.py [TREE]

TREE (default: the tree holding this file) holds src/quadfactor and
tests/.  For each mutant the script copies src/, tests/ and
pyproject.toml to a temporary directory, replaces the exact old text by
the new one and runs only the named test there.  The mutant is killed
when that test fails; it is TIMEOUT, and counted as killed, when the test
runs longer than SLOWDOWN times its time on the unmutated copy (a mutant
can make a kernel loop forever).  The script prints one line per mutant
and exits 1 if any mutant survives, if its old text does not occur exactly once, or
if a named test fails on the unmutated copy.  Stdlib and pytest only;
pytest does not collect it.

When the code a mutant targets moves, the exact-text match fails loudly:
update the mutant with the code.

Equivalent mutants, left out because they change no output:
- `v >= bound` -> `v > bound` in chebyshev_report: 2x is never prime for
  x >= 2, so no leftover equals 2x.
- `p >= bound` -> `p > bound` in chebyshev_report, for the same reason.
- `isqrt(z * z + abs(b)) + 1` -> `isqrt(z * z + abs(b))` in
  sieve._first_hit_setup: two primes above isqrt(z^2 + |b|) already
  multiply past z^2 + |b|, so a leftover is still one prime.  Only the
  table limit pinned by FIRST_HIT_T sees it.
- `s + pk < length` -> `<=` in sieve._scheduler's divide: at equality
  the slice holds one element, and both branches divide it once.
- `isqrt((X - 1) // 4)` -> `isqrt(X // 4)` in stats._chowla_todd_counts:
  at X = 4s^2 the extra term is pi(4s) - pi(4s) = 0.
- `return 0` -> `return x` for a non-residue in arith._tonelli: then
  x^2 = a t with t != 1, so _roots_mod_p's r^2 == a check rejects it.
- `z = 53` -> any start from 48 in arith._non_residue: past the table
  every odd prime up to 47 is a residue, so 48 to 52 are too.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ARITH = "src/quadfactor/arith.py"
CLI = "src/quadfactor/cli.py"
PRIMITIVE = "src/quadfactor/primitive.py"
SIEVE = "src/quadfactor/sieve.py"
STATS = "src/quadfactor/stats.py"
STORMER = "src/quadfactor/stormer.py"
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_fast_definitional_equivalence"
CRITERION_10 = "tests/test_acceptance.py::test_criterion_10_property_suites"
FAIL_FAST = "tests/test_primitive.py::test_kernel_validates_before_any_segment"
FIRST_HIT_T = "tests/test_primitive.py::test_kernel_needs_no_root_table"
NAIVE = "tests/test_stats.py::test_chebyshev_and_nx_match_naive_factorization"
SWEEP = "tests/test_primitive.py::test_kernel_matches_oracle_sweep"
T_BOUNDARY = "tests/test_stats.py::test_chebyshev_t_at_an_exact_boundary_and_a_huge_K"
VX_EDGES = "tests/test_stats.py::test_vx_window_edges"
SLOWDOWN = 10  # a mutant's test past this many times its clean time is TIMEOUT

MUTANTS = [  # (file, exact old text, new text, the test that must fail)
    # residuosity by s - 2 squarings rejects residues whose a^q has order 2^(s-1)
    (ARITH, "for _ in range(s - 1):", "for _ in range(s - 2):",
     "tests/test_arith.py::test_roots_mod_p_1_mod_8_matches_brute_force"),
    # the reciprocity lookup inverted returns a residue as the non-residue
    (ARITH, "if p % z not in squares:", "if p % z in squares:",
     "tests/test_arith.py::test_reciprocity_table_matches_euler_criterion"),
    # past the table the least non-residue of 9257329 is 53
    (ARITH, "z = 53", "z = 54",
     "tests/test_arith.py::test_roots_mod_p_past_the_reciprocity_table"),
    # a short zone n <= z, so a short root table, leaves a leftover that is
    # not one prime to the one-prime path (b = 1281: 20^2 + b = 41^2, T = 42)
    (SIEVE, "z = min(arith.isqrt(abs(b) // 3), x)", "z = min(arith.isqrt(abs(b) // 4), x)",
     NAIVE),
    # a table limit T that ignores z^2
    (SIEVE, "arith.isqrt(z * z + abs(b)) + 1", "arith.isqrt(abs(b)) + 1", FIRST_HIT_T),
    # a new prime q recurs at q - n, in range exactly when q <= n + x
    (PRIMITIVE, "if 1 < v <= n + x:", "if 1 < v < n + x:", CRITERION_1),
    (PRIMITIVE, "if 1 < v <= n + x:", "if 1 < v <= x:", CRITERION_1),
    (STATS, "if v - n <= x:", "if v - n < x:", NAIVE),
    # what the table primes of b leave of |b| is one prime q with its root
    # 0, in range from x = q on (b = -75001 = -179 * 419, T = 317)
    (SIEVE, "if 1 < m <= x:", "if 1 < m < x:", SWEEP),
    (SIEVE, "fallback[m] = 0", "pass", SWEEP),
    # p^2 | P_n left undivided past n = z
    (SIEVE, "levels = _hensel_levels(p, r, b, top)",
     "levels = _hensel_levels(p, r, b, top)[:2]", CRITERION_1),
    # a table prime registered from n = 2 is left undivided at n = 1; the
    # leftover re-registers it, and a later value can be divided to 0, on
    # which the fallback loop spins
    (SIEVE, "table.append((p, add(p, roots[0], 1)))",
     "table.append((p, add(p, roots[0], 2)))", SWEEP),
    # 2 and the primes of b are new at their least root; criterion 1
    # skips n <= |b|, where those roots lie, so only the sweep sees it
    (PRIMITIVE, "rem[n - lo] *= p", "pass", SWEEP),
    # p | b treated as a lifted prime: its roots mod p^k multiply
    (SIEVE, "if p == 2 or b % p == 0:\n            fallback[p] = roots[0]\n        else",
     "if p == 2:\n            fallback[p] = roots[0]\n        else", CRITERION_10),
    (SIEVE, "if p == 2 or b % p == 0:\n            fallback[p] = roots[0]\n            while",
     "if p == 2:\n            fallback[p] = roots[0]\n            while", SWEEP),
    (SIEVE, "r = (r - (r * r + b) * u) % pk", "r = (r + (r * r + b) * u) % pk", CRITERION_1),
    # a leftover prime's hits in [n, x] miss its least root n
    (STATS, "e += (x - r) // pk + 1", "e += (x - r) // pk", NAIVE),
    # nx's primes registered from the second n of its range
    (SIEVE, "add(p, roots[0], lo)", "add(p, roots[0], lo + 1)", CRITERION_10),
    # nx's table primes >= 2x listed at their roots past the range too
    # (|b| near 2^31: roots on both sides of 2x)
    (SIEVE, "lo <= r < hi", "lo <= r", NAIVE),
    # a kernel without its cap call builds a prime table for a range past
    # HI_CAP; the fail-fast test bans it
    (SIEVE, "_check_cap(x + 1)", "pass", FAIL_FAST),
    (SIEVE, "_check_cap(hi)\n    b = spec.b\n    pairs", "b = spec.b\n    pairs", FAIL_FAST),
    (SIEVE, "_check_cap(hi)\n    b = spec.b\n    add", "b = spec.b\n    add", FAIL_FAST),
    # the dump's sign: n^2 + b < 0 up to and including isqrt(-b - 1) (b = -2, n = 1)
    (SIEVE, "n <= neg", "n < neg", "tests/test_sieve.py::test_sieve_range_hand_examples"),
    # the table primes >= 2x stay in S (b = 504, x = 2: 5 | 505)
    (STATS, "(big if p >= bound else exps)[p] = e", "exps[p] = e", NAIVE),
    # a table prime that divides no term counted in s or s'
    (STATS, "if e:\n            (big", "if True:\n            (big", NAIVE),
    # a leftover prime below 2x that does not recur belongs in S (b = 1,
    # x = 10: 17 at n = 4, whose other root 13 is past x)
    (STATS, "elif v >= bound:", "elif v > 1:", "tests/test_stats.py::test_chebyshev_small_oracle"),
    # a table prime of S' counted once (b = 24, x = 2: 25 = 5^2)
    (STATS, "map(mul, big.values(), map(math.log, big))", "map(math.log, big)", NAIVE),
    # the t/u split at an exact Kx (b = 1, x = 128, K = 401/128: 401 is in
    # u; NAIVE's b = 504, x = 2, K = 2.5 with 5 = Kx kills it too)
    (STATS, "if p < kx]", "if p <= kx]", T_BOUNDARY),
    # Kx = inf at K = 1e308 makes math.ceil raise OverflowError
    (STATS, "math.ceil(min(K * x, 2.0 ** 63))", "math.ceil(K * x)", T_BOUNDARY),
    # the nx hits left in sieve order: the CSV rows and the bisections
    # need them ascending
    (STATS, "hits = sorted(array(", "hits = list(array(",
     "tests/test_stats.py::test_nx_against_direct_scan"),
    # the window (v, e*v] closed below, or open above (v = 20, e*v = 10^6)
    (STATS, "bisect_right(hist.hits, v)", "bisect_left(hist.hits, v)", VX_EDGES),
    (STATS, "bisect_right(hist.hits, math.e * v)", "bisect_left(hist.hits, math.e * v)",
     VX_EDGES),
    # a leftover 1 listed as a hit
    (SIEVE, "if v > 1]", "if v > 0]", "tests/test_stats.py::test_nx_hand_example"),
    # marks truncated, not rounded: the grid leaves the even spacing
    (CLI, "round(i * x / n)", "int(i * x / n)",
     "tests/test_cli.py::test_checkpoint_grid_rises_strictly_to_x"),
    # the empty product 1 is no D
    (STORMER, "sorted(ds[1:])", "sorted(ds)", "tests/test_stormer.py::test_enumerate_D_examples"),
]


def run_test(root: Path, test: str, timeout: float = None):
    """pytest's exit code for test in root, or None once it runs past timeout seconds."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", "-o", "addopts=", test],
                              cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:  # the child is killed before this is raised
        return None


def copy_tree(tree: Path, dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(tree / name, dest / name, ignore=skip)
    shutil.copy(tree / "pyproject.toml", dest)


def main(tree: Path) -> int:
    bad = 0
    clean_s = {}  # test -> its time on the unmutated copy
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(tree, clean)
        for test in sorted({m[3] for m in MUTANTS}):
            start = time.monotonic()
            if run_test(clean, test) != 0:
                print(f"ERROR   {test} fails on the unmutated tree")
                bad += 1
            clean_s[test] = time.monotonic() - start
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
            code = run_test(root, test, SLOWDOWN * clean_s[test])
        verdict = ("TIMEOUT" if code is None else "killed" if code == 1
                   else "SURVIVED" if code == 0 else f"ERROR {code}")
        bad += verdict not in ("killed", "TIMEOUT")
        print(f"{verdict:8}{i} {path}: {old!r} -> {new!r} by {test}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: mutants.py [TREE]")
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) == 2 else Path(__file__).parent.parent)))
