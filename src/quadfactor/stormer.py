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
convergents p_i / q_i, P_{i+1} = P_i at i = m means the even period 2m
and no solution, and Q_{i+1} = Q_i at i = m the odd period 2m + 1 with
y_1 = q_m^2 + q_{m-1}^2 (D = a^2 + 1 gives (a, 1)).  The expansion runs
in two passes.  Pass 1 runs the (P, Q, a) recurrence on small integers
(0 < P < sqrt(D), 0 < Q < 2 sqrt(D)) and records the partial quotients
a_1, ..., a_m; an even period ends it with no big integer made.  Pass 2,
for odd periods only, builds q_m and q_{m-1} from them, one big
multiply per quotient.  x_1 = isqrt(D y_1^2 - 1) is recovered, and
checked, only for a y_1 that survives the prune below.

The digit cap bounds two things.  Pass 1 gives up at a step bound M
fixed by the cap alone: p_i >= q_i >= F_{i+1} >= phi^(i-1) (Fibonacci,
golden ratio), so once i reaches M, p_i q_i has passed the cap, and for
an odd period so has x_1 > p_m q_m.  The chain walk stops once x_k
passes the cap, from x_1 on.  A period settled below M is always turned
into its y_1, however long: the prune below needs no digit bound.

The prune: (x_1 + y_1 sqrt(D))^k = x_k + y_k sqrt(D) makes y_k the sum
over odd j of C(k, j) x_1^(k-j) y_1^j D^((j-1)/2), so y_1 | y_k, and a
y_1 with a prime factor >= B rules out the whole chain.  Arithmetic is
exact.  truncated_Ds lists the D whose search is incomplete: the period
was not settled within M quotients, or y_1 is B-smooth and the chain
passes the cap before K_max.  Every other D is settled.
"""

from math import isqrt
from typing import List, NamedTuple, Optional, Set, Tuple

from . import arith
from .errors import CapExceededError, PreconditionViolatedError

DEFAULT_DIGIT_CAP = 10 ** 4
_LOG2_PHI = 0.6942419136306174  # log2 of the golden ratio


class PellSolution(NamedTuple):
    D: int
    k: int  # odd solution index, 1 = fundamental
    x: int
    y: int


class SmoothResult(NamedTuple):
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
    ds = [1]
    for p in ps:
        ds += [d * p for d in ds]
    return sorted(ds[1:])


def _cap_bits(digit_cap: int) -> int:
    return int(digit_cap * 3.3219280948873626) + 16  # log2(10) bits per digit


def _max_quotients(cap_bits: int) -> int:
    """A quotient count m by which p_m q_m has surely passed cap_bits.

    p_m >= q_m >= F_{m+1} >= phi^(m-1), so
    p_m.bit_length() + q_m.bit_length() - 1 > cap_bits holds once
    (m - 1) log2(phi) >= (cap_bits + 1) / 2.
    """
    return int((cap_bits + 1) / (2 * _LOG2_PHI)) + 2


def _half_period(D: int, max_quotients: int):
    """Pass 1, on small integers: [a_1, ..., a_m] for the odd period
    2m + 1 of sqrt(D), or None for an even period or a square D.

    Q_{i+1} = Q_{i-1} + a_i (P_i - P_{i+1}) with Q_{-1} = D saves the
    division in Q_{i+1} = (D - P_{i+1}^2) / Q_i.  CapExceededError once m
    reaches max_quotients.
    """
    a0 = isqrt(D)
    if a0 * a0 == D:
        return None
    P, Q, Q_prev, a = 0, 1, D, a0
    quotients = []
    append = quotients.append
    for _ in range(max_quotients):
        P_next = a * Q - P
        if P_next == P:
            return None
        Q_next = Q_prev + a * (P - P_next)
        if Q_next == Q:
            return quotients
        Q_prev = Q
        a = (a0 + P_next) // Q_next
        P, Q = P_next, Q_next
        append(a)
    raise CapExceededError(f"continued fraction of sqrt({D}) passed the digit cap")


def _fundamental_y(D: int, max_quotients: int) -> Optional[int]:
    """y_1 of the fundamental solution, or None; CapExceededError once the
    half period reaches max_quotients."""
    quotients = _half_period(D, max_quotients)
    if quotients is None:
        return None
    q0, q1 = 0, 1  # q_{i-1}, q_i
    for a in quotients:
        q0, q1 = q1, a * q1 + q0
    return q1 * q1 + q0 * q0


def _x_from_y(D: int, y: int) -> int:
    """x with x^2 = D y^2 - 1; ArithmeticError if D y^2 - 1 is no square."""
    xx = D * y * y - 1
    x = isqrt(xx)
    if x * x != xx:
        raise ArithmeticError(f"{D} * {y}^2 - 1 is not a square")
    return x


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
    max_quotients = _max_quotients(_cap_bits(digit_cap))

    found: Set[int] = set()
    truncated: List[int] = []
    for D in enumerate_D(B):
        try:
            y1 = _fundamental_y(D, max_quotients)
        except CapExceededError:
            truncated.append(D)
            continue
        if y1 is None or _reduce_by(y1, allowed) != 1:
            continue
        chain = pell_solutions_odd(D, (_x_from_y(D, y1), y1), k_max, digit_cap)
        if len(chain) < (k_max + 1) // 2:
            truncated.append(D)
        for sol in chain:
            # y_k smooth is necessary (n^2 + 1 = D y_k^2 with D smooth)
            # and cheap to refute; the full check then confirms.
            if _reduce_by(sol.y, allowed) != 1:
                continue
            n = sol.x
            if _reduce_by(n * n + 1, allowed) == 1:
                found.add(n)
    sols = sorted(found)
    return SmoothResult(B, sols, max(sols) if sols else 0, truncated)
