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

The kernels here take [lo, hi) from the caller, which checks
1 <= lo < hi, and the first-hit scans n = 1..x; each refuses an n past
HI_CAP (_check_cap) before any prime table or factorization.  They scan
in ascending segments of the one fixed length SEGMENT (read at run time,
so a test can patch it in); the output does not depend on the length.

sieve_range streams one TermFactorization per n, dividing each hit of
each root mod p in a loop; it serves only the raw `sieve` dump.

The Hensel kernels, slice_range here (the primes >= 2x of the nx
histogram) and the first-hit scans of primitive and
stats.chebyshev_report, divide prime powers instead and factor nothing.
A root mod an odd p not dividing b lifts by Hensel's lemma
(_hensel_levels) to one root mod p^k for every p^k up to the largest
|n^2 + b|; p^k divides n^2 + b exactly when n is congruent to one of
these roots, so one division by p per hit of every (p^k, root) removes
exactly the exponent of p.  One scheduler (_scheduler) lifts each root
and places these divisions: a modulus below SEGMENT becomes one strided
slice division per segment, and a larger one, which hits a segment at
most once, waits in the bucket of the segment where it next hits
(Oliveira e Silva, Herzog and Pardi, Math. Comp. 83, 2014).  For p = 2
and p | b the roots mod p^k can multiply, so those primes fall back to
dividing each hit mod p in a loop (_divide_fallback, or _strip_fallback
where no exponent is counted).  Each kernel sieves to the limit past
which what is left of a term is 1 or one prime: slice_range to
L = isqrt((hi - 1)^2 + |b|) + 1, a first-hit scan (_first_hit_setup) to
T = isqrt(z^2 + |b|) + 1, z = min(isqrt(|b| // 3), x), meeting every
larger prime as the leftover of its least root.
"""

from itertools import accumulate
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
    # (n + 1)^2 + b = (n^2 + b) + 2n + 1: one exact addition per term
    vals = list(accumulate(range(2 * lo + 1, 2 * hi - 1, 2), initial=lo * lo + b))
    if lo * lo + b < 0:  # n^2 + b < 0 exactly for n <= isqrt(-b - 1)
        k = min(hi, arith.isqrt(-b - 1) + 1) - lo
        vals[:k] = [-v for v in vals[:k]]
    return vals


def _scheduler(b: int, start: int, end: int) -> tuple:
    """The division scheduler of the Hensel kernels over [start, end): (add, divide).

    A division (p^k, r, p) takes one factor p from the value at every n
    in range with n == r (mod p^k); the range is scanned in segments of
    SEGMENT from start, in ascending order.  add(p, r, n) lifts a root r
    mod p (_hensel_levels, to the largest |n^2 + b| in range), registers
    each level from its first hit m >= n, dividing the hits in the
    current segment at once, and returns the levels; divide(rem, lo)
    applies every registered division to the values rem of the segment
    at lo, which becomes the current one (before the first call it is
    empty).
    """
    size = SEGMENT
    top = (end - 1) ** 2 + abs(b)
    strided = []  # (p^k, r, p) with p^k below the segment length
    buckets = {}  # segment start -> [(next hit, p^k, p), ...]
    cur, cur_lo, cur_hi = [], start, start

    def add(p, r, n):
        levels = _hensel_levels(p, r, b, top)
        for pk, rk in levels:
            m = n + (rk - n) % pk
            if m >= end:
                continue
            if pk < size:
                if m < cur_hi:
                    cur[m - cur_lo::pk] = [v // p for v in cur[m - cur_lo::pk]]
                strided.append((pk, rk, p))
                continue
            if m < cur_hi:  # pk >= size: at most one hit per segment
                cur[m - cur_lo] //= p
                m += pk
                if m >= end:
                    continue
            buckets.setdefault(m - (m - start) % size, []).append((m, pk, p))
        return levels

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
    no longer divides it; the number of divisions, when there are any,
    is added to exps[p].
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
            exps[p] = exps.get(p, 0) + e


def _strip_fallback(rem: list, lo: int, fallback: dict) -> None:
    """_divide_fallback without its exponent count, for the scans that need none.

    The count costs one addition per extra division, per hit and not
    once per prime per segment; at b = -73600 it made a 2^16 segment
    10-30% slower.
    """
    length = len(rem)
    for p, r in fallback.items():
        for i in range((r - lo) % p, length, p):
            v = rem[i] // p  # p divides every value at its root
            while v % p == 0:
                v //= p
            rem[i] = v


def slice_range(spec: SequenceSpec, lo: int, hi: int) -> Iterator[list]:
    """Stream the primes >= hi of each |n^2 + b|, n in [lo, hi), in lists, ascending.

    Every prime up to L = isqrt((hi - 1)^2 + |b|) + 1 is divided out, so
    what is left of a term is 1 or one prime above L >= hi: these come one
    list per segment, after a first list of each lifted prime p >= hi at
    its roots r in [lo, hi), the one n there with p | n^2 + b for each r.
    """
    _check_cap(hi)
    b = spec.b
    add, divide = _scheduler(b, lo, hi)
    fallback, first = {}, []
    for p, roots in sieve_primes(spec, arith.isqrt((hi - 1) ** 2 + abs(b)) + 1):
        if p == 2 or b % p == 0:
            fallback[p] = roots[0]
        else:
            add(p, roots[0], lo)
            if p >= hi:
                first += [p for r in roots if lo <= r < hi]
    yield first
    for slo in range(lo, hi, SEGMENT):
        rem = _values(b, slo, min(slo + SEGMENT, hi))
        divide(rem, slo)
        _strip_fallback(rem, slo, fallback)
        yield [v for v in rem if v > 1]


def _first_hit_setup(spec: SequenceSpec, x: int) -> tuple:
    """What a first-hit scan of n = 1..x starts from: (fallback, table, add, divide).

    x >= HI_CAP is refused first.  One sieve_primes list runs to
    T = isqrt(z^2 + |b|) + 1, z = min(isqrt(|b| // 3), x).  fallback maps
    its 2 and primes of b to their root mod p, for the per-hit loop
    (_divide_fallback or _strip_fallback), and so does the one prime
    q <= x they may leave of |b| (T^2 > |b|), with the root 0.  table lists
    (p, levels) for every other p: its Hensel levels, least root first,
    registered from n = 1 with the scheduler (add, divide) of [1, x].

    Once the scheduler and the fallback loop have divided, the leftover
    of |n^2 + b| at every n <= x is 1 or one prime q, whose least root is
    n: for n <= z because q > T and T^2 > |n^2 + b|, and for n > z because
    q > 2n and |n^2 + b| < 4n^2.  The scan registers q from n + 1 when its
    other root q - n is at most x; otherwise q divides no later term.  So
    no scan factors anything.
    """
    _check_cap(x + 1)
    b = spec.b
    z = min(arith.isqrt(abs(b) // 3), x)
    add, divide = _scheduler(b, 1, x + 1)
    fallback, table, m = {}, [], abs(b)
    for p, roots in sieve_primes(spec, arith.isqrt(z * z + abs(b)) + 1):
        if p == 2 or b % p == 0:
            fallback[p] = roots[0]
            while m % p == 0:
                m //= p
        else:
            table.append((p, add(p, roots[0], 1)))
    if 1 < m <= x:
        fallback[m] = 0
    return fallback, table, add, divide
