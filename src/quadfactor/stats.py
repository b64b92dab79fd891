"""Diagnostic sums over the factored sequence and two classical densities.

chebyshev_report() aggregates, from a full factor sieve of n <= x, the
log of the term product Q_x = prod |n^2 + b|, its exponent-weighted
split across primes below and above 2x (the sets S and S'), and the
finer partition of S' at Kx.  The split is an exact identity:
sum_S + sum_S' equals log Q_x up to float rounding.

nx_histogram() counts, for n in [x, 2x), how many terms each prime
p >= 2x divides; vx(hist, v) sums the counts of such a histogram over
a window (v, e*v], with x read from hist.

Both run on sieve.slice_range, which yields per segment the values
|n^2 + b|, their cofactors above the sieve limit L and the exponent
total of every prime up to L, without a per-term factor list.  The
totals and the cofactors come from the same exact divisions
(Hensel-lifted slices, with a per-hit loop for p = 2 and the primes
dividing b), so every prime of Q_x is counted with its full exponent.
chebyshev_report sieves to L = isqrt(x^2 + |b|) + 1, so every
|n^2 + b| is under L^2 and a cofactor is one prime: the cofactor
primes in (L, 2x) join S by value, and when L > 2x the table primes
at or above 2x join S'.  It never factors.  nx_histogram sieves to
L = 2x and splits a cofactor into primes by arith only when it
exceeds L^2.

Every float sum is one math.fsum, which is correctly rounded whatever
the order of its terms (Shewchuk, Discrete Comput. Geom. 18, 1997).
A report is thus the exactly rounded sum of its terms, log |n^2 + b|,
e_p log p, N_x(p) log p or 1/p, and cannot depend on the segment
length or on the order in which primes are met.

chowla_todd_density() counts m <= x whose greatest prime factor exceeds
2*sqrt(m) (density log 2) from prime counts, and mertens_sum() adds 1/p
over the primes below x; both read one segmented prime sieve (arith).
"""

import math
from array import array
from itertools import accumulate, chain, compress
from operator import mul
from typing import Dict, List, NamedTuple, Tuple

from . import arith, sieve
from .arith import SequenceSpec
from .errors import OutOfDomainError, PreconditionViolatedError, WindowOutOfRangeError
from .sieve import SieveConfig


_WHEEL_30 = (1, 7, 11, 13, 17, 19, 23, 29)  # residues prime to 30


class ChebyshevReport(NamedTuple):
    x: int
    K: float
    log_Qx: float
    sum_S: float       # sum of e_p log p over primes p < 2x dividing Q_x
    sum_Sprime: float  # same over p >= 2x; each divides one term (e_p may be > 1)
    s: int
    s_prime: int
    t: int             # primes in (2x, Kx)
    u: int             # primes in [Kx, inf)


class NxHistogram(NamedTuple):
    x: int
    counts: Dict[int, int]  # p -> number of n in [x, 2x) with p | n^2 + b
    total: int
    weighted: float         # sum of N_x(p) log p


def chebyshev_report(spec: SequenceSpec, x: int, K: float = 4.0) -> ChebyshevReport:
    """Aggregate the exact prime decomposition of Q_x = prod_{n<=x} |n^2 + b|."""
    if x < 2:
        raise PreconditionViolatedError("x must be >= 2")
    if not K > 2:  # also rejects NaN
        raise PreconditionViolatedError("K must be > 2")
    if K == math.inf:
        raise PreconditionViolatedError("K must be finite")
    bound = 2 * x
    # Every |n^2 + b| with n <= x is below L^2 for L = isqrt(x^2 + |b|) + 1,
    # so with the primes up to L divided out a cofactor above 1 is one
    # prime.  Cofactor primes in (L, 2x) can repeat, so they join exps.
    limit = arith.isqrt(x * x + abs(spec.b)) + 1
    cfg = SieveConfig(1, x + 1, prime_limit=limit)
    exps: Dict[int, int] = {}
    # A prime p >= 2x divides at most one term with n <= x, since two such
    # terms would need n1 + n2 = p.  So the S' primes need no merging: a
    # cofactor joins the array sprime with exponent 1 (about 630k at
    # x = 10^6, 8 bytes each), and when L > 2x the table primes >= 2x
    # leave exps for big with their exponents.
    sprime = array("q")  # each is at most x^2 + |b| < HI_CAP^2 + 2^31 < 2^63

    def logs():
        """Per segment, collect the primes of S and S', then yield the terms' logs."""
        for vals, rem, seg_exps in sieve.slice_range(spec, cfg):
            for p, e in seg_exps.items():
                exps[p] = exps.get(p, 0) + e
            for c in rem:
                if c >= bound:
                    sprime.append(c)
                elif c > 1:
                    exps[c] = exps.get(c, 0) + 1
            yield map(math.log, vals)

    # One fsum over all terms rounds once, so no segment length can show.
    log_q = math.fsum(chain.from_iterable(logs()))
    big = {p: exps.pop(p) for p in [p for p in exps if p >= bound]}
    sum_sp = math.fsum(chain(map(math.log, sprime),
                             map(mul, big.values(), map(math.log, big))))
    s_prime = len(sprime) + len(big)
    kx = K * x
    t = sum(p < kx for p in chain(sprime, big))
    return ChebyshevReport(x, K, log_q,
                           math.fsum(map(mul, exps.values(), map(math.log, exps))),
                           sum_sp, len(exps), s_prime, t, s_prime - t)


def nx_histogram(spec: SequenceSpec, x: int) -> NxHistogram:
    """Count n in [x, 2x) divisible by each prime p >= 2x.

    Sieving with prime_limit 2x leaves exactly those primes in the
    cofactors; each term contributes at most one (two primes above 2x
    would multiply past n^2 + b for any n < 2x once b < 4x - 1).
    """
    if x < 2:
        raise PreconditionViolatedError("x must be >= 2")
    limit = 2 * x
    single = limit * limit  # a cofactor up to this is one prime
    cfg = SieveConfig(x, 2 * x, prime_limit=limit)
    counts: Dict[int, int] = {}
    for _, rem, _ in sieve.slice_range(spec, cfg):
        for c in rem:
            if c > single:
                for p, _ in arith.factorize(c):
                    counts[p] = counts.get(p, 0) + 1
            elif c > 1:
                counts[c] = counts.get(c, 0) + 1
    return NxHistogram(x, counts, sum(counts.values()),
                       math.fsum(map(mul, counts.values(), map(math.log, counts))))


def vx(hist: NxHistogram, v: float) -> int:
    """Sum of hist's N_x(p) over primes p in the window (v, e*v]; needs v >= 2x."""
    if v < 2 * hist.x:
        raise WindowOutOfRangeError(f"window start {v} below 2x = {2 * hist.x}")
    hi = math.e * v
    return sum(c for p, c in hist.counts.items() if v < p <= hi)


def chowla_todd_density(x: int) -> Tuple[int, float]:
    """Count 2 <= m <= x with P+(m)^2 > 4m, and the ratio count/x."""
    if x < 2:
        raise PreconditionViolatedError("x must be >= 2")
    count = _chowla_todd_counts([x])[0]
    return count, count / x


def _chowla_todd_counts(marks: List[int]) -> List[int]:
    """Running counts of 2 <= m <= mark with P+(m)^2 > 4m at each ascending mark.

    Such m are exactly p*s with p prime and p > 4s, so the count to X is
    the sum over 4s^2 < X of pi(X//s) - pi(4s).  One segmented prime sieve
    to the last mark gives pi: a prefix-count table of its first segment
    answers the query points below that segment's end, nearly all of them,
    and a running count over the later segments takes the rest in
    ascending order.
    """
    s_max = [arith.isqrt((X - 1) // 4) for X in marks]  # largest s with 4s^2 < X
    segments = arith._prime_segments(marks[-1])
    _, flags = next(segments)
    head = array("i", accumulate(flags))  # head[q] = pi(q) for q < n
    n = len(head)
    far = sorted({X // s for X, m in zip(marks, s_max) for s in range(1, min(m, X // n) + 1)}
                 | set(range(-(-n // 4) * 4, 4 * s_max[-1] + 1, 4)), reverse=True)
    pi_far: Dict[int, int] = {}
    primes = head[-1]
    for lo, flags in segments:
        pos = 0
        while far and far[-1] - lo < len(flags):
            q = far.pop()
            primes += flags.count(1, pos, q - lo + 1)
            pi_far[q] = primes
            pos = q - lo + 1
        primes += flags.count(1, pos)

    def pi(q: int) -> int:
        return head[q] if q < n else pi_far[q]

    return [sum(pi(X // s) - pi(4 * s) for s in range(1, m + 1))
            for X, m in zip(marks, s_max)]


def mertens_sum(x: int) -> float:
    """Sum of 1/p over primes p < x, correctly rounded (math.fsum).

    Beyond 2, 3 and 5 each segment is read only in the 8 residue classes
    prime to 30, so no int is made for the other 22 of every 30 integers.
    """
    if x < 3:
        raise OutOfDomainError("x must be >= 3")
    return math.fsum(chain(
        (1.0 / p for p in (2, 3, 5) if p < x),
        chain.from_iterable(
            map((1.0).__truediv__, compress(range(lo + s, lo + len(flags), 30), flags[s::30]))
            for lo, flags in arith._prime_segments(x - 1)
            for s in [(r - lo) % 30 for r in _WHEEL_30])))
