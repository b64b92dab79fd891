"""Enumerate every n whose n^2 + 1 has all prime factors below a bound B.

The reduction: only p = 2 and p == 1 (mod 4) can divide n^2 + 1, so a
smooth n^2 + 1 is D y^2 with D a squarefree product of these allowed
primes.  The solutions of n^2 - D y^2 = -1 form the odd-index chain of
the fundamental one; every such D and odd index up to a cutoff give all n.

The index cutoff K_max = max(13, next odd >= (B+1)/2) is a heuristic
reconstruction: for real Lucas sequences every term beyond index 12
picks up a new prime factor, and y_k growing its prime support forces
n^2 + 1 = D y_k^2 out of smoothness for the k in reach here.  It is
exposed as an override.

The fundamental solution needs half the continued-fraction period of
sqrt(D), which is palindromic (Jacobson-Williams, Solving the Pell
Equation, 2009).  With complete quotients (P_i + sqrt(D)) / Q_i and
convergents p_i / q_i, P_{i+1} = P_i means an even period and no
solution, and Q_{i+1} = Q_i the odd period 2i + 1 with x_1 = p_i q_i +
p_{i-1} q_{i-1}, y_1 = q_i^2 + q_{i-1}^2 (D = a^2 + 1 gives (a, 1)).

The prune: (x_1 + y_1 sqrt(D))^k = x_k + y_k sqrt(D) makes y_k the sum
over odd j of C(k, j) x_1^(k-j) y_1^j D^((j-1)/2), so y_1 | y_k, and a
y_1 with a prime factor >= B rules out the whole chain.  Arithmetic is
exact; a digit cap bounds x_1 and the chain elements, and truncated_Ds
lists the D whose search is incomplete: the convergents prove x_1 past
the cap, or y_1 is B-smooth and the chain reaches the cap before K_max.
"""

from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from typing import List, Optional, Set, Tuple

from . import arith
from .errors import CapExceededError, PreconditionViolatedError

DEFAULT_DIGIT_CAP = 10 ** 4


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


def _cap_bits(digit_cap: int) -> int:
    return int(digit_cap * 3.3219280948873626) + 16  # log2(10) bits per digit


def _cf_fundamental(D: int, cap_bits: Optional[int]):
    """(x1, y1) or None; CapExceededError once p_i q_i <= x1 exceeds cap_bits."""
    a0 = isqrt(D)
    if a0 * a0 == D:
        return None
    P, Q, a = 0, 1, a0
    p0, p1, q0, q1 = 1, a0, 0, 1  # p_{i-1}, p_i, q_{i-1}, q_i
    while True:
        P_next = a * Q - P
        if P_next == P:
            return None
        Q_next = (D - P_next * P_next) // Q
        if Q_next == Q:
            return p1 * q1 + p0 * q0, q1 * q1 + q0 * q0
        P, Q, a = P_next, Q_next, (a0 + P_next) // Q_next
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        if cap_bits is not None and p1.bit_length() + q1.bit_length() - 1 > cap_bits:
            raise CapExceededError(f"continued fraction of sqrt({D}) passed the digit cap")


def negative_pell_fundamental(D: int, digit_cap: Optional[int] = None):
    """Least (x, y) > 0 with x^2 - D y^2 = -1, or None; CapExceededError past digit_cap."""
    if D < 2:
        raise PreconditionViolatedError("D must be >= 2")
    return _cf_fundamental(D, None if digit_cap is None else _cap_bits(digit_cap))


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
    cap_bits = _cap_bits(digit_cap)
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

    Walks the negative-Pell chain of every admissible D whose y_1 is
    B-smooth, keeps the x_k whose n^2 + 1 is verified smooth over the
    primes below B, and returns the sorted, deduplicated union.
    """
    if k_max_override is not None and k_max_override < 1:
        raise PreconditionViolatedError("k_max_override must be >= 1")
    if digit_cap < 1:
        raise PreconditionViolatedError("digit_cap must be >= 1")
    k_max = k_max_override if k_max_override is not None else default_k_max(B)
    if k_max % 2 == 0:
        k_max += 1
    allowed = allowed_primes(B)
    small = arith.primes_upto(B - 1)
    cap_bits = _cap_bits(digit_cap)

    found: Set[int] = set()
    truncated: List[int] = []
    for D in enumerate_D(B):
        try:
            fund = _cf_fundamental(D, cap_bits)
        except CapExceededError:
            truncated.append(D)
            continue
        if fund is None or _reduce_by(fund[1], allowed) != 1:
            continue
        chain = pell_solutions_odd(D, fund, k_max, digit_cap)
        if len(chain) < (k_max + 1) // 2:
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
