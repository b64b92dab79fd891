"""Diagnostic sums over the factored sequence and two classical densities.

chebyshev_report() aggregates, from the exact factorization of every
term with n <= x, the log of the term product Q_x = prod |n^2 + b|, its
exponent-weighted split across primes below and above 2x (the sets S
and S'), and the finer partition of S' at Kx.  The split is an exact
identity: sum_S + sum_S' equals log Q_x up to float rounding.

nx_histogram() lists each prime p >= 2x once per n in [x, 2x) with
p | n^2 + b, in one ascending array, so N_x(p) is the length of p's run;
vx(hist, v) counts its hits in a window (v, e*v] by bisection.

chebyshev_report is a first-hit scan on sieve._first_hit_setup, as
primitive's kernel is: what is left of a term is 1 or the one prime q
whose least root it is.  One loop over the leftovers files each q: a q
whose other root q - n is at most x is registered from n + 1 and joins
S with its exponent, the hits of its Hensel levels in [n, x]; any other
q divides no other term and joins S' (q >= 2x) or S with exponent 1.
A table prime joins S or S' with the hits of its levels as exponent.

nx_histogram concatenates what sieve.slice_range yields over [x, 2x),
sieved to L = isqrt((2x - 1)^2 + |b|) + 1 (2x once |b| < 4x - 1): the
primes >= 2x of each term.  Neither report factors anything.

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
from bisect import bisect_right
from itertools import accumulate, chain, compress
from operator import mul
from typing import Dict, List, NamedTuple, Tuple

from . import arith, sieve
from .arith import SequenceSpec
from .errors import OutOfDomainError, PreconditionViolatedError, WindowOutOfRangeError


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
    hits: array      # ascending; p once per n in [x, 2x) with p | n^2 + b
    weighted: float  # sum of N_x(p) log p


def chebyshev_report(spec: SequenceSpec, x: int, K: float = 4.0) -> ChebyshevReport:
    """Aggregate the exact prime decomposition of Q_x = prod_{n<=x} |n^2 + b|."""
    if x < 2:
        raise PreconditionViolatedError("x must be >= 2")
    if not K > 2:  # also rejects NaN
        raise PreconditionViolatedError("K must be > 2")
    if K == math.inf:
        raise PreconditionViolatedError("K must be finite")
    b, size, bound = spec.b, sieve.SEGMENT, 2 * x
    table, add, divide = sieve._first_hit_setup(spec, x)

    # A prime p >= 2x divides at most one term with n <= x, since two such
    # terms would need n1 + n2 = p.  So the S' primes need no merging: a
    # leftover prime joins the array sprime with exponent 1 (about 630k at
    # x = 10^6, 8 bytes each), and a table prime >= 2x joins big with its
    # exponent.
    sprime = array("q")  # each is at most x^2 + |b| < HI_CAP^2 + 2^31 < 2^63
    exps: Dict[int, int] = {}
    big: Dict[int, int] = {}
    # The exponent of a prime in prod |P_n| over [n0, x] is the number of
    # hits of its classes (m, r) there, n0 <= r <= m: (x - r) // m + 1.
    for p, levels in table:
        e = sum((x - r) // m + 1 for m, r in levels)
        if e:
            (big if p >= bound else exps)[p] = e

    def logs():
        """Per segment, collect the primes of S and S', then yield the terms' logs."""
        for lo in range(1, x + 1, size):
            vals = sieve._values(b, lo, min(lo + size, x + 1))
            rem = vals[:]
            divide(rem, lo)
            for n, v in enumerate(rem, lo):
                if v > 1:  # the one prime new at n outside the table
                    if v - n <= x:  # it recurs at v - n, and v < 2x
                        e = 0  # its hits in [n, x]; each class's root is >= n
                        for m, r in add(v, n, n + 1):
                            e += (x - r) // m + 1
                        exps[v] = e
                    elif v >= bound:
                        sprime.append(v)
                    else:
                        exps[v] = 1
            yield map(math.log, vals)

    # One fsum over all terms rounds once, so no segment length can show.
    log_q = math.fsum(chain.from_iterable(logs()))
    sum_sp = math.fsum(chain(map(math.log, sprime),
                             map(mul, big.values(), map(math.log, big))))
    s_prime = len(sprime) + len(big)
    # For an integer p, p < Kx exactly when p < ceil(Kx).  Every S' prime
    # is below 2^63, so capping Kx there keeps an overflow to inf out of ceil.
    kx = math.ceil(min(K * x, 2.0 ** 63))
    t = len([p for p in chain(sprime, big) if p < kx])
    return ChebyshevReport(x, K, log_q,
                           math.fsum(map(mul, exps.values(), map(math.log, exps))),
                           sum_sp, len(exps), s_prime, t, s_prime - t)


def nx_histogram(spec: SequenceSpec, x: int) -> NxHistogram:
    """Each prime p >= 2x once per n in [x, 2x) with p | n^2 + b, in ascending order.

    sieve.slice_range yields exactly these, one entry per prime and term.
    A prime p >= 2x is listed at most twice, at its roots n and p - n:
    [x, 2x) is shorter than p.
    """
    if x < 2:
        raise PreconditionViolatedError("x must be >= 2")
    # sorted once the sieve's buckets are freed, stored once the unsorted array is
    hits = sorted(array("q", chain.from_iterable(sieve.slice_range(spec, x, 2 * x))))
    hits = array("q", hits)  # each is below (2x)^2 + 2^31 < 2^63
    return NxHistogram(x, hits, math.fsum(map(math.log, hits)))


def vx(hist: NxHistogram, v: float) -> int:
    """Number of hits in the window (v, e*v], the sum of N_x(p) there; needs v >= 2x."""
    if v < 2 * hist.x:
        raise WindowOutOfRangeError(f"window start {v} below 2x = {2 * hist.x}")
    return bisect_right(hist.hits, math.e * v) - bisect_right(hist.hits, v)


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
