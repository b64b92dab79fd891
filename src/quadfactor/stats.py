"""Diagnostic sums over the factored sequence and two classical densities.

chebyshev_report() aggregates, from a full factor sieve of n <= x, the
log of the term product Q_x = prod |n^2 + b|, its exponent-weighted
split across primes below and above 2x (the sets S and S'), and the
finer partition of S' at Kx.  The split is an exact identity:
sum_S + sum_S' equals log Q_x up to float rounding.

nx_histogram() counts, for n in [x, 2x), how many terms each prime
p >= 2x divides; vx() sums those counts over a window (v, e*v].

Both run on sieve.slice_range, which yields per segment the values
|n^2 + b|, their cofactors above the sieve limit L and the exponent
total of every prime up to L, without a per-term factor list.  The
totals and the cofactors come from the same exact divisions
(Hensel-lifted slices, with a per-hit loop for p = 2 and the primes
dividing b), so every prime of Q_x is counted with its full exponent;
a cofactor is split into primes by arith only when it exceeds L^2.
nx_histogram sieves to L = 2x.  chebyshev_report sieves to
L = min(2x, isqrt(x^2 + |b|) + 1): below the cap every |n^2 + b| is
under L^2, so a cofactor is one prime, and the cofactor primes in
(L, 2x) join S by value.

chowla_todd_density() counts m <= x whose greatest prime factor exceeds
2*sqrt(m) (density log 2) from prime counts, and mertens_sum() adds 1/p
over the primes below x; both read one segmented prime sieve (arith).
"""

import math
from dataclasses import dataclass
from itertools import chain, compress, groupby
from typing import Dict, List, Optional, Tuple

from . import arith, sieve
from .arith import SequenceSpec
from .errors import OutOfDomainError, PreconditionViolatedError, WindowOutOfRangeError
from .sieve import SieveConfig


class _Kahan:
    """Compensated accumulator; deterministic for a fixed add order."""

    __slots__ = ("total", "_c")

    def __init__(self):
        self.total = 0.0
        self._c = 0.0

    def add(self, v: float) -> None:
        y = v - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t

    def extend(self, vs) -> None:
        """add() each value in order, with the running state in locals."""
        total, c = self.total, self._c
        for v in vs:
            y = v - c
            t = total + y
            c = (t - total) - y
            total = t
        self.total, self._c = total, c


@dataclass(frozen=True)
class ChebyshevReport:
    x: int
    K: float
    log_Qx: float
    sum_S: float       # sum of e_p log p over primes p < 2x dividing Q_x
    sum_Sprime: float  # same over p >= 2x (where every exponent is 1)
    s: int
    s_prime: int
    t: int             # primes in (2x, Kx)
    u: int             # primes in [Kx, inf)


@dataclass(frozen=True)
class NxHistogram:
    x: int
    counts: Dict[int, int]  # p -> number of n in [x, 2x) with p | n^2 + b
    total: int
    weighted: float         # sum of N_x(p) log p


def _split_cofactor(c: int, limit: int):
    """Primes of a sieve cofactor; a single prime unless c > limit^2."""
    if c <= limit * limit or arith.is_prime(c):
        yield c, 1
    else:
        yield from arith.factorize(c)


def chebyshev_report(spec: SequenceSpec, x: int, K: float = 4.0) -> ChebyshevReport:
    """Aggregate the exact prime decomposition of Q_x = prod_{n<=x} |n^2 + b|."""
    if x < 2:
        raise PreconditionViolatedError("x must be >= 2")
    if not K > 2:  # also rejects NaN
        raise PreconditionViolatedError("K must be > 2")
    bound = 2 * x
    # Every |n^2 + b| with n <= x is below L^2 for L = isqrt(x^2 + |b|) + 1,
    # so with the primes up to L divided out a cofactor above 1 is one
    # prime.  The cap 2x bounds the table once |b| reaches about 3x^2;
    # cofactors above (2x)^2 are then split by _split_cofactor.
    limit = min(bound, arith.isqrt(x * x + abs(spec.b)) + 1)
    cfg = SieveConfig(1, x + 1, prime_limit=limit)
    exps: Dict[int, int] = {}
    # Cofactor primes exceed the sieve limit L, so they sort after every
    # key of exps; about 630k of them at x = 10^6, mostly with exponent 1,
    # which a list of ints holds in far less memory than dict entries.
    # Those below 2x still belong to S, by value, in the loop below.
    above: List[int] = []
    single = limit * limit  # a cofactor up to this is one prime
    log_q = _Kahan()
    for vals, rem, seg_exps in sieve.slice_range(spec, cfg):
        log_q.extend([math.log(av) for av in vals if av > 1])
        for p, e in seg_exps.items():
            exps[p] = exps.get(p, 0) + e
        for c in rem:
            if c > single:
                for p, e in _split_cofactor(c, limit):
                    above.extend([p] * e)
            elif c > 1:
                above.append(c)
    above.sort()
    ascending = chain(sorted(exps.items()),
                      ((p, len(list(run))) for p, run in groupby(above)))

    kx = K * x
    sum_s = _Kahan()
    sum_sp = _Kahan()
    s = s_prime = t = u = 0
    for p, e in ascending:
        w = e * math.log(p)
        if p < bound:
            sum_s.add(w)
            s += 1
        else:
            sum_sp.add(w)
            s_prime += 1
            if p < kx:
                t += 1
            else:
                u += 1
    return ChebyshevReport(x, K, log_q.total, sum_s.total, sum_sp.total,
                           s, s_prime, t, u)


def nx_histogram(spec: SequenceSpec, x: int) -> NxHistogram:
    """Count n in [x, 2x) divisible by each prime p >= 2x.

    Sieving with prime_limit 2x leaves exactly those primes in the
    cofactors; each term contributes at most one (two primes above 2x
    would multiply past n^2 + b for any n < 2x once b < 4x - 1).
    """
    if x < 2:
        raise PreconditionViolatedError("x must be >= 2")
    limit = 2 * x
    cfg = SieveConfig(x, 2 * x, prime_limit=limit)
    counts: Dict[int, int] = {}
    for _, rem, _ in sieve.slice_range(spec, cfg):
        for c in rem:
            if c > 1:
                for p, _ in _split_cofactor(c, limit):
                    counts[p] = counts.get(p, 0) + 1
    weighted = _Kahan()
    for p in sorted(counts):
        weighted.add(counts[p] * math.log(p))
    return NxHistogram(x, counts, sum(counts.values()), weighted.total)


def vx(spec: SequenceSpec, x: int, v: float, *,
       hist: Optional[NxHistogram] = None) -> int:
    """Sum of N_x(p) over primes p in the window (v, e*v]; needs v >= 2x."""
    if v < 2 * x:
        raise WindowOutOfRangeError(f"window start {v} below 2x = {2 * x}")
    if hist is None:
        hist = nx_histogram(spec, x)
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
    to the last mark takes pi at all query points, in ascending order.
    """
    s_max = [arith.isqrt((X - 1) // 4) for X in marks]  # largest s with 4s^2 < X
    points = sorted({X // s for X, m in zip(marks, s_max) for s in range(1, m + 1)}
                    | set(range(4, 4 * s_max[-1] + 1, 4)), reverse=True)
    pi: Dict[int, int] = {}
    primes = 0
    for lo, flags in arith._prime_segments(marks[-1]):
        pos = 0
        while points and points[-1] - lo < len(flags):
            q = points.pop()
            primes += flags.count(1, pos, q - lo + 1)
            pi[q] = primes
            pos = q - lo + 1
        primes += flags.count(1, pos)
    return [sum(pi[X // s] - pi[4 * s] for s in range(1, m + 1))
            for X, m in zip(marks, s_max)]


def mertens_sum(x: int) -> float:
    """Sum of 1/p over primes p < x, accumulated in ascending order."""
    if x < 3:
        raise OutOfDomainError("x must be >= 3")
    acc = _Kahan()
    for lo, flags in arith._prime_segments(x - 1):
        acc.extend([1.0 / p for p in compress(range(lo, lo + len(flags)), flags)])
    return acc.total
