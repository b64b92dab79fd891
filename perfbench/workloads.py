"""The three benchmark workloads: CLI arguments from a seed, and output checks.

Each workload maps (seed, tiny) to a Case: the `quadfactor` CLI arguments,
the input size that `work_per_s` divides by, and a check that returns the
list of problems found in the command's stdout (empty when correct).
Only `census-mixed` depends on the seed; the other two have fixed inputs
whose results are pinned in pins.json.  `tiny` selects the small sizes
of the benchmark's own smoke tests.

Sizes are about a tenth of the paper's cases (the Chebyshev split at
10^6, Stormer at B = 101), so that one run holds many samples; see
README.md.

The checks import quadfactor, so the caller puts the source tree on
sys.path first.  They run outside the timed region.
"""

import json
import math
import random
from math import isqrt
from pathlib import Path
from typing import Callable, List, NamedTuple

PINS = json.loads((Path(__file__).parent / "pins.json").read_text(encoding="utf-8"))

# (full, tiny) sizes
CHEBYSHEV_X = (100000, 100000)
CENSUS_X = (150000, 3000)
STORMER_BOUND = (74, 14)

CENSUS_PREFIX = 2000   # n <= this are reclassified by the definitional scan
CENSUS_SAMPLE = 64     # n > |b| whose P+ the factorization oracle recomputes


class Case(NamedTuple):
    argv: List[str]
    size: int
    check: Callable[[str], List[str]]


def census_b(seed: int, x: int) -> int:
    """Negative admissible b with |b| in [29x/60, 31x/60], drawn from the seed.

    About half of n <= x then take the definitional path.  The range is
    narrow because the run time grows with |b| (about 20% from |b| = 5x/12
    to 7x/12).  -b must not be a perfect square.
    """
    rng = random.Random(seed)
    while True:
        a = rng.randint(29 * x // 60, 31 * x // 60)
        if isqrt(a) ** 2 != a:
            return -a


def _rows(text: str, header: List[str]) -> List[List[str]]:
    lines = text.split("\n")
    if lines[0] != ",".join(header) or lines[-1] != "":
        raise ValueError(f"expected CSV with header {','.join(header)}")
    rows = [ln.split(",") for ln in lines[1:-1]]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError("empty or ragged CSV")
    return rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _guard(check):
    """Turn a parse error in the output into a reported problem."""
    def guarded(text):
        try:
            return check(text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc}"]
    return guarded


def chebyshev_t2(seed: int, tiny: bool = False) -> Case:
    x = CHEBYSHEV_X[tiny]
    pin = PINS["chebyshev-t2"]["x"][str(x)]
    tol = PINS["chebyshev-t2"]["rel_tol"]

    def check(text):
        row = _rows(text, ["x", "K", "log_Qx", "sum_S", "sum_Sprime", "s", "sprime", "t", "u"])
        if len(row) != 1:
            return [f"{len(row)} rows, want 1"]
        log_q, sum_s, sum_sp = (float(v) for v in row[0][2:5])
        s, sp = int(row[0][5]), int(row[0][6])
        problems = []
        if int(row[0][0]) != x:
            problems.append(f"x = {row[0][0]}, want {x}")
        if (s, sp) != (pin["s"], pin["sprime"]):
            problems.append(f"(s, s') = {(s, sp)}, want {(pin['s'], pin['sprime'])}")
        if not _close(log_q / (2 * x * math.log(x)), pin["log_Qx_over_2x_log_x"], tol):
            problems.append(f"log_Qx = {log_q} off the pinned ratio")
        if not _close(sum_sp / (x * math.log(x)), pin["sum_Sprime_over_x_log_x"], tol):
            problems.append(f"sum_Sprime = {sum_sp} off the pinned ratio")
        if not _close(sum_s + sum_sp, log_q, tol):
            problems.append(f"sum_S + sum_Sprime = {sum_s + sum_sp} != log_Qx = {log_q}")
        return problems

    return Case(["chebyshev", "--b", "1", "--x", str(x), "--K", "4", "--threads", "2"],
                x, _guard(check))


def census_mixed(seed: int, tiny: bool = False) -> Case:
    from quadfactor import arith, primitive
    x = CENSUS_X[tiny]
    b = census_b(seed, x)
    spec = arith.validate_b(b)

    def check(text):
        listed = [int(r[0]) for r in _rows(text, ["n"])]
        got = set(listed)
        problems = []
        if listed != sorted(got) or not 1 <= listed[0] <= listed[-1] <= x:
            problems.append("indices not strictly ascending within [1, x]")
        prefix = min(x, CENSUS_PREFIX)
        want = {st.n for st in primitive.classify_definitional(spec, prefix) if not st.has_primitive}
        have = {n for n in got if n <= prefix}
        if have != want:
            problems.append(f"prefix n <= {prefix}: {len(have ^ want)} indices disagree "
                            "with the definitional scan")
        rng = random.Random(seed)
        for n in rng.sample(range(-b + 1, x + 1), min(CENSUS_SAMPLE, x + b)):
            no_primitive = arith.p_plus(n * n + b) <= 2 * n
            if (n in got) != no_primitive:
                problems.append(f"n = {n}: listed {n in got}, P+ criterion says {no_primitive}")
        return problems

    return Case(["census", "--b", str(b), "--x", str(x)], x, _guard(check))


def stormer(seed: int, tiny: bool = False) -> Case:
    from quadfactor import arith
    bound = STORMER_BOUND[tiny]
    pin = PINS["stormer"]
    small = arith.primes_upto(bound - 1)

    def smooth(m):
        for p in small:
            while m % p == 0:
                m //= p
        return m == 1

    # A B-smooth n^2 + 1 is also 101-smooth, so the complete B = 101 list
    # contains every solution for a smaller bound.
    want = [n for n in pin["solutions"] if smooth(n * n + 1)]

    def check(text):
        res = json.loads(text)
        problems = []
        if res["B"] != bound or res["solutions"] != want or res["max_n"] != want[-1]:
            problems.append(f"B = {res['B']}, {len(res['solutions'])} solutions, max_n = "
                            f"{res['max_n']}; want {bound}, {len(want)}, {want[-1]}")
        if not isinstance(res["truncated_Ds"], list):
            problems.append("truncated_Ds is not a list")
        return problems

    # Input size: candidate D, the nonempty products of distinct primes
    # p < B with p = 2 or p = 1 (mod 4).
    allowed = sum(1 for p in small if p == 2 or p % 4 == 1)
    return Case(["stormer", "--bound", str(bound)], (1 << allowed) - 1, _guard(check))


WORKLOADS = {
    "census-mixed": census_mixed,
    "chebyshev-t2": chebyshev_t2,
    "stormer": stormer,
}
