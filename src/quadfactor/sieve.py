"""Segmented factor sieve over the values n^2 + b.

Fully factors every |n^2 + b| for n in [lo, hi) using only the primes up
to a limit that the caller passes.  For each sieve prime p the hit
indices are the n == r (mod p) for the roots r of n^2 + b mod p; at each
hit p is divided out repeatedly, so exponents are exact even at ramified
primes.  Whatever survives the divisions is the cofactor, a product of
primes above the limit.

The `sieve` dump (cli) scans n = 1..x with the limit 2(x + 1), so past
the oracle zone, 3n^2 > |b|, a cofactor is 1 or a single prime greater
than 2n: two factors above the limit would multiply past n^2 + b.  In
the zone arith.factorize splits the cofactors of the handful of smaller
n, so every term of the dump is fully factored.

The kernels here and in primitive take [lo, hi) from the caller, which
checks 1 <= lo < hi, and refuse one past HI_CAP (_check_cap) before any
prime table or factorization.  They scan it in ascending segments of the
one fixed length SEGMENT (read at run time, so a test can patch it in);
the output does not depend on the length.

sieve_range streams one TermFactorization per n, dividing each hit of
each root mod p in a loop; it serves only the raw `sieve` dump.

The two Hensel kernels, slice_range here (the aggregate statistics, no
per-term record) and primitive's first-hit kernel (the primitive-divisor
count), divide prime powers instead.  A root mod an odd p not dividing
b lifts by Hensel's lemma (_hensel_levels) to one root mod p^k for every
p^k up to the largest |n^2 + b|; p^k divides n^2 + b exactly when n is
congruent to one of these roots, so one division by p per hit of every
(p^k, root) removes exactly the exponent of p.  One scheduler
(_scheduler) places these divisions for both kernels: a modulus below
SEGMENT becomes one strided slice division per segment, and a larger
one, which hits a segment at most once, waits in the bucket of the
segment where it next hits (Oliveira e Silva, Herzog and Pardi,
Math. Comp. 83, 2014).  For p = 2 and p | b the roots mod p^k can
multiply, so those primes fall back to dividing each hit mod p in a
loop.  slice_range lifts each prime as it walks the sieve_primes list
and registers its levels with the scheduler at once; it counts the
prime's exponent from the hits of those levels in range, the same hits
the scheduler divides, so |n^2 + b| = prod p^e * cofactor holds by
construction.
"""

from typing import Iterator, NamedTuple

from . import arith
from .arith import RootSet, SequenceSpec
from .errors import CapExceededError, OutOfDomainError

HI_CAP = 10 ** 9
SEGMENT = 1 << 16


class TermFactorization(NamedTuple):
    """Exact decomposition sign * prod(p^e) * cofactor == n^2 + b."""

    n: int
    sign: int
    factors: tuple  # ((p, e), ...) sorted by p
    cofactor: int


def _check_cap(hi: int) -> None:
    """Refuse a range [lo, hi) that reaches past n = HI_CAP - 1."""
    if hi > HI_CAP:
        raise CapExceededError(f"n = {hi - 1} exceeds the cap {HI_CAP - 1}")


def sieve_primes(spec: SequenceSpec, limit: int) -> list:
    """Root sets for every prime p <= limit that can divide some n^2 + b.

    These are p = 2, the odd primes dividing b (root 0), and the odd
    primes modulo which -b is a nonzero square (a symmetric root pair).
    Primes with empty root sets are omitted.
    """
    if limit < 2:
        raise OutOfDomainError("limit must be >= 2")
    a = -spec.b
    out = []
    for p in arith.primes_upto(limit):
        roots = arith._roots_mod_p(a, p)
        if roots:
            out.append(RootSet(p, roots))
    return out


def _sieve_segment(b: int, lo: int, hi: int, pairs: list, oracle_cut: int) -> list:
    """Factor all terms for n in [lo, hi); pure function of its arguments.

    oracle_cut is the largest n for which 3n^2 <= |b|; at or below it a
    prime cofactor is not forced, so the cofactors of those terms are
    factored by arith.factorize.
    """
    length = hi - lo
    vals = _values(b, lo, hi)
    neg = arith.isqrt(-b - 1) if b < 0 else 0  # the last n that _values negates
    facs = [[] for _ in range(length)]

    for p, r in pairs:
        i = (r - lo) % p
        while i < length:
            v = vals[i] // p  # a hit: p divides the value
            e = 1
            while v % p == 0:
                v //= p
                e += 1
            vals[i] = v
            facs[i].append((p, e))
            i += p

    for i in range(min(length, oracle_cut + 1 - lo)):
        facs[i] += arith.factorize(vals[i])  # primes above every sieve prime
        vals[i] = 1
    return [TermFactorization(n, -1 if n <= neg else 1, tuple(fs), c)
            for n, fs, c in zip(range(lo, hi), facs, vals)]


def sieve_range(spec: SequenceSpec, lo: int, hi: int, limit: int) -> Iterator[TermFactorization]:
    """Stream one TermFactorization per n in [lo, hi), ascending, segment by segment."""
    _check_cap(hi)
    b = spec.b
    pairs = [(rs.p, r) for rs in sieve_primes(spec, limit) for r in rs.roots]
    oracle_cut = arith.isqrt(abs(b) // 3)
    for slo in range(lo, hi, SEGMENT):
        yield from _sieve_segment(b, slo, min(slo + SEGMENT, hi), pairs, oracle_cut)


def _hensel_levels(p: int, r: int, b: int, top: int) -> list:
    """((p^k, r_k), (p^k, p^k - r_k)) for every p^k <= top, ascending in p^k.

    p is an odd prime not dividing b, p <= top, and r a root of n^2 + b
    mod p; r_k is the root mod p^k that reduces to r mod p.  The
    derivative 2r is a unit mod p, so by Hensel's lemma each root mod p^k
    lifts to exactly one root mod p^(k+1), r_k - (r_k^2 + b) / (2r) with
    the inverse taken mod p, and the roots mod p^k are r_k, p^k - r_k.
    p = 2 and the p dividing b are not lifted: their roots mod p^k can
    multiply (b = 2^30 has 2^15 roots mod 2^30).
    """
    levels = [(p, r), (p, p - r)]
    pk = p * p
    if pk <= top:
        u = pow(2 * r, -1, p)  # the roots mod p^k all reduce to r mod p
        while pk <= top:
            r = (r - (r * r + b) * u) % pk
            levels += ((pk, r), (pk, pk - r))
            pk *= p
    return levels


def _values(b: int, lo: int, hi: int) -> list:
    """|n^2 + b| for n in [lo, hi)."""
    vals = [n * n + b for n in range(lo, hi)]
    if lo * lo + b < 0:  # n^2 + b < 0 exactly for n <= isqrt(-b - 1)
        k = min(hi, arith.isqrt(-b - 1) + 1) - lo
        vals[:k] = [-v for v in vals[:k]]
    return vals


def _scheduler(start: int, end: int) -> tuple:
    """The division scheduler of the Hensel kernels over [start, end): (add, divide).

    A division (p^k, r, p) takes one factor p from the value at every n
    in range with n == r (mod p^k); the range is scanned in segments of
    SEGMENT from start, in ascending order.  add(p, levels, n) registers
    each (p^k, r) of levels from its first hit m >= n, dividing the hits
    in the current segment at once; divide(rem, lo) applies every
    registered division to the values rem of the segment at lo, which
    becomes the current one (before the first call it is empty).
    """
    size = SEGMENT
    strided = []  # (p^k, r, p) with p^k below the segment length
    buckets = {}  # segment start -> [(next hit, p^k, p), ...]
    cur, cur_lo, cur_hi = [], start, start

    def add(p, levels, n):
        for pk, r in levels:
            m = n + (r - n) % pk
            if m >= end:
                continue
            if pk < size:
                if m < cur_hi:
                    cur[m - cur_lo::pk] = [v // p for v in cur[m - cur_lo::pk]]
                strided.append((pk, r, p))
                continue
            if m < cur_hi:  # pk >= size: at most one hit per segment
                cur[m - cur_lo] //= p
                m += pk
                if m >= end:
                    continue
            buckets.setdefault(m - (m - start) % size, []).append((m, pk, p))

    def divide(rem, lo):
        nonlocal cur, cur_lo, cur_hi
        length = len(rem)
        cur, cur_lo, cur_hi = rem, lo, lo + length
        for pk, r, p in strided:
            s = (r - lo) % pk
            if s + pk < length:
                rem[s::pk] = [v // p for v in rem[s::pk]]
            elif s < length:  # a slice of one
                rem[s] //= p
        for m, pk, p in buckets.pop(lo, ()):
            rem[m - lo] //= p
            m += pk
            if m < end:
                buckets.setdefault(m - (m - start) % size, []).append((m, pk, p))

    return add, divide


def _divide_fallback(rem: list, lo: int, fallback: dict, exps: dict) -> None:
    """Divide each fallback prime out of its hits in rem, the segment at lo.

    fallback maps p to its one root r mod p.  p divides every value at
    n == r, so each hit is divided by p once and then in a loop until p
    no longer divides it; exps[p] is set to the number of divisions when
    there are any.
    """
    length = len(rem)
    for p, r in fallback.items():
        hits = range((r - lo) % p, length, p)
        e = len(hits)
        for i in hits:
            v = rem[i] // p  # >= 1, since -b is not a square
            while v % p == 0:
                v //= p
                e += 1
            rem[i] = v
        if e:
            exps[p] = e


def slice_range(spec: SequenceSpec, lo: int, hi: int, limit: int) -> Iterator[tuple]:
    """Stream (vals, rem, exps) per segment of [lo, hi), ascending.

    The exact counterpart of sieve_range for callers that need only
    exponent totals and cofactors: no per-term factor list is built.
    vals are the segment's values |n^2 + b| and rem what is left of them
    once every prime <= limit is divided out, so a cofactor is a
    product of primes above the limit.  exps maps primes to exponents,
    with only primes that divide some value in range, and the exps of
    all segments add up to the exponent totals over [lo, hi): a lifted
    prime is counted once, in the first segment, as the number of hits
    of its levels in range, and a fallback prime per segment, division
    by division.  So |n^2 + b| = prod p^e * cofactor over the range.
    Registration is streamed: each prime of sieve_primes is lifted,
    registered with the scheduler and counted before the next one, and
    only the schedule is kept for the segments.
    """
    _check_cap(hi)
    b = spec.b
    top = (hi - 1) ** 2 + abs(b)  # no value in range exceeds this
    add, divide = _scheduler(lo, hi)
    fallback, exps = {}, {}
    for p, roots in sieve_primes(spec, limit):
        if p == 2 or b % p == 0:
            fallback[p] = roots[0]
        elif p <= top:  # p > top divides no value in range
            levels = _hensel_levels(p, roots[0], b, top)
            add(p, levels, lo)
            e = 0
            for pk, r in levels:  # the n == r (mod p^k) in [lo, hi)
                e += (hi - 1 - r) // pk - (lo - 1 - r) // pk
            if e:
                exps[p] = e
    for slo in range(lo, hi, SEGMENT):
        vals = _values(b, slo, min(slo + SEGMENT, hi))
        rem = vals[:]
        divide(rem, slo)
        _divide_fallback(rem, slo, fallback, exps)
        yield vals, rem, exps
        exps = {}
