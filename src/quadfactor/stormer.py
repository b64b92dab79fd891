"""Enumerate every n whose n^2 + 1 has all prime factors below a bound B.

The reduction: only p = 2 and p == 1 (mod 4) can divide n^2 + 1, so a
smooth n^2 + 1 factors as D * y^2 with D the squarefree part, a product
of allowed primes.  Each candidate D turns the problem into the
negative Pell equation n^2 - D y^2 = -1, whose solutions (if any) form
the odd-index chain generated by the fundamental one.  Scanning every
squarefree D built from the allowed primes and every odd index up to a
cutoff therefore recovers all solutions.

The index cutoff K_max = max(13, next odd >= (B+1)/2) is a heuristic
reconstruction: for real Lucas sequences every term beyond index 12
picks up a new prime factor, and y_k growing its prime support forces
n^2 + 1 = D y_k^2 out of smoothness for the k in reach here.  It is
exposed as an override.

Fundamental solutions come from the continued fraction of sqrt(D): a
negative-Pell solution exists exactly when the period is odd, and is
then the convergent just before the period closes.  All arithmetic is
exact over unbounded integers; a digit cap keeps pathologically large
chains (composite D near the full prime product) from running away,
and any D so truncated is reported.
"""

from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from typing import List, Optional, Set, Tuple

from . import arith
from .errors import CapExceededError, PreconditionViolatedError

DEFAULT_DIGIT_CAP = 10 ** 4
_BITS_PER_DIGIT = 3.3219280948873626  # log2(10)


@dataclass(frozen=True)
class PellSolution:
    D: int
    k: int  # odd solution index, 1 = fundamental
    x: int
    y: int


@dataclass(frozen=True)
class SmoothResult:
    B: int
    solutions: List[int]
    max_n: int
    truncated_Ds: List[int]


def allowed_primes(B: int) -> List[int]:
    """Primes p < B that can divide some n^2 + 1: p = 2 or p == 1 (mod 4)."""
    if B < 3:
        raise PreconditionViolatedError("B must be >= 3")
    return [p for p in arith.primes_upto(B - 1) if p == 2 or p % 4 == 1]


def enumerate_D(B: int) -> List[int]:
    """All nonempty squarefree products of the allowed primes, ascending.

    D = 1 is excluded: x^2 - y^2 = -1 has no positive solution.
    """
    ps = allowed_primes(B)
    if 1 << len(ps) > 1 << 20:
        raise CapExceededError(f"{len(ps)} allowed primes give 2^{len(ps)} subsets")
    out = []
    for k in range(1, len(ps) + 1):
        for sub in combinations(ps, k):
            d = 1
            for q in sub:
                d *= q
            out.append(d)
    return sorted(out)


def _cf_fundamental(D: int, cap_bits: Optional[int]):
    """((x1, y1) or None, truncated) from the continued fraction of sqrt(D).

    Standard (m, d, a) recurrence; d == 1 closes the period, and an odd
    period length makes the preceding convergent solve x^2 - D y^2 = -1.
    """
    a0 = isqrt(D)
    if a0 * a0 == D:
        return None, False
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    period = 0
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        period += 1
        if d == 1:
            return ((h, k) if period % 2 == 1 else None), False
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        if cap_bits is not None and h.bit_length() > cap_bits:
            return None, True


def negative_pell_fundamental(D: int, digit_cap: Optional[int] = None):
    """Least positive solution of x^2 - D y^2 = -1, or None if unsolvable."""
    if D < 2:
        raise PreconditionViolatedError("D must be >= 2")
    cap_bits = None if digit_cap is None else int(digit_cap * _BITS_PER_DIGIT) + 16
    sol, _ = _cf_fundamental(D, cap_bits)
    return sol


def pell_solutions_odd(D: int, fundamental: Tuple[int, int], k_max: int,
                       digit_cap: int = DEFAULT_DIGIT_CAP) -> List[PellSolution]:
    """Odd-index chain (x_k, y_k) for k = 1, 3, ..., k_max.

    Each step multiplies by the square of the fundamental unit:
    (x, y) -> (x s + y t D, x t + y s) with s = 2 x1^2 + 1, t = 2 x1 y1.
    The chain stops early once x_k outgrows the digit cap.
    """
    if k_max % 2 == 0:
        raise PreconditionViolatedError("k_max must be odd")
    x1, y1 = fundamental
    cap_bits = int(digit_cap * _BITS_PER_DIGIT) + 16
    s = 2 * x1 * x1 + 1
    t = 2 * x1 * y1
    out = []
    x, y = x1, y1
    for k in range(1, k_max + 1, 2):
        if x.bit_length() > cap_bits:
            break
        out.append(PellSolution(D, k, x, y))
        x, y = x * s + y * t * D, x * t + y * s
    return out


def _reduce_by(m: int, primes) -> int:
    for p in primes:
        while m % p == 0:
            m //= p
        if m == 1:
            break
    return m


def default_k_max(B: int) -> int:
    k = (B + 2) // 2  # ceil((B+1)/2)
    if k % 2 == 0:
        k += 1
    return max(13, k)


def stormer_search(B: int, k_max_override: Optional[int] = None,
                   digit_cap: int = DEFAULT_DIGIT_CAP) -> SmoothResult:
    """All n with every prime factor of n^2 + 1 below B.

    Walks the negative-Pell chains of every admissible D, keeps the x_k
    whose n^2 + 1 is verified smooth by exact factorization over the
    primes below B, and returns the sorted, deduplicated union.
    """
    k_max = k_max_override if k_max_override is not None else default_k_max(B)
    if k_max % 2 == 0:
        k_max += 1
    allowed = allowed_primes(B)
    small = arith.primes_upto(B - 1)
    cap_bits = int(digit_cap * _BITS_PER_DIGIT) + 16
    expect = (k_max + 1) // 2

    found: Set[int] = set()
    truncated: List[int] = []
    for D in enumerate_D(B):
        fund, trunc = _cf_fundamental(D, cap_bits)
        if trunc:
            truncated.append(D)
            continue
        if fund is None:
            continue
        chain = pell_solutions_odd(D, fund, k_max, digit_cap)
        if len(chain) < expect:
            truncated.append(D)
        for sol in chain:
            # y_k smooth is necessary (n^2 + 1 = D y_k^2 with D smooth)
            # and cheap to refute; the full check then confirms.
            if _reduce_by(sol.y, allowed) != 1:
                continue
            n = sol.x
            if _reduce_by(n * n + 1, small) == 1:
                found.add(n)
    sols = sorted(found)
    return SmoothResult(B, sols, max(sols) if sols else 0, truncated)
