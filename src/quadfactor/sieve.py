"""Segmented factor sieve over the values n^2 + b.

sieve_range, the raw `sieve` dump (cli), fully factors every |n^2 + b|
for n in [lo, hi).  Each sieve prime p hits the n == r (mod p) for the
roots r of n^2 + b mod p and is divided out in a loop at each hit, so
exponents are exact even at ramified primes.  It sieves the primes up to
2hi, so past the oracle zone, 3n^2 > |b|, the cofactor left is 1 or one
prime greater than 2n: two factors above 2hi would multiply past
n^2 + b.  In the zone, n <= z = min(isqrt(|b| // 3), hi - 1), it also
sieves each prime in (2hi, T], T = isqrt(z^2 + |b|) + 1, at its roots
r <= z, the one n each can hit.  A zone term is then left with 1 or one
prime above T (T^2 > |n^2 + b|), which joins its factors.

The kernels here take [lo, hi) from the caller, which checks
1 <= lo < hi, and the first-hit scans n = 1..x; each refuses an n past
HI_CAP (_check_cap) before any prime table is built.  They scan in
ascending segments of the one fixed length SEGMENT (read at run time, so
a test can patch it in); the output does not depend on the length.

The Hensel kernels, slice_range here (the primes >= 2x of the nx
histogram) and the first-hit scans of primitive and
stats.chebyshev_report, divide prime powers instead.  For every prime p
and every p^k up to the largest |n^2 + b|, the n with p^k | n^2 + b
form one or two residue classes n == c (mod m), m | p^k
(_hensel_levels: Hensel's lemma for an odd p not dividing b, a scaling
by p for p | b, 2-adic lifting for p = 2), so one division by p per hit
of every class removes exactly the exponent of p.  One scheduler
(_scheduler) lifts each prime and places these divisions: a modulus
below SEGMENT becomes one strided slice division per segment, and a
larger one, which hits a segment at most once, waits in the bucket of
the segment where it next hits (Oliveira e Silva, Herzog and Pardi,
Math. Comp. 83, 2014).  Each kernel sieves to the limit past which what
is left of a term is 1 or one prime: slice_range to
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


def _sieve_segment(b: int, lo: int, hi: int, pairs: list, z: int) -> list:
    """Factor all terms for n in [lo, hi); pure function of its arguments.

    pairs lists (p, r) for the roots r mod p sieved here.  At n <= z they
    leave 1 or one prime above every sieve prime, which moves from the
    cofactor into the factors as (q, 1).
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

    for i in range(min(length, z + 1 - lo)):
        if vals[i] > 1:
            facs[i].append((vals[i], 1))
            vals[i] = 1
    return [TermFactorization(n, -1 if n <= neg else 1, tuple(fs), c)
            for n, fs, c in zip(range(lo, hi), facs, vals)]


def sieve_range(spec: SequenceSpec, lo: int, hi: int) -> Iterator[TermFactorization]:
    """Stream one TermFactorization per n in [lo, hi), ascending, segment by segment."""
    _check_cap(hi)
    b = spec.b
    limit = 2 * hi
    z = min(arith.isqrt(abs(b) // 3), hi - 1)
    pairs = [(p, r) for p, roots in sieve_primes(spec, max(limit, arith.isqrt(z * z + abs(b)) + 1))
             for r in roots if r <= z or p <= limit]
    for slo in range(lo, hi, SEGMENT):
        yield from _sieve_segment(b, slo, min(slo + SEGMENT, hi), pairs, z)


def _hensel_levels(p: int, r: int, b: int, top: int) -> list:
    """The classes (m, c), 1 <= c <= m, of the n with p^k | n^2 + b, least first.

    p is a prime and r the smaller root of n^2 + b mod p (p = 2 and p | b
    ignore it).  For each p^k <= top, one or two classes n == c (mod m),
    m | p^k, hold exactly the n with p^k | n^2 + b (exact classes of a
    level past top may follow), so the classes holding an n with
    |n^2 + b| <= top number the exponent of p there.  levels[0][1] is the
    least positive root.

    * An odd p not dividing b, by Hensel's lemma: 2r is a unit mod p, so
      each root r_k mod p^k lifts to the one root r_k - (r_k^2 + b)/(2r)
      mod p^(k+1), the inverse taken mod p; the classes are (p^k, r_k)
      and (p^k, p^k - r_k).
    * p | b: p | n^2 + b exactly when p | n, (p, p), and p^2 | n^2 + b
      then only if p^2 | b.  Then n^2 + b = p^2 ((n/p)^2 + b/p^2): (p, p)
      again, and (p m, p c) for each class (m, c) of b/p^2 at top // p^2,
      none when -b/p^2 is not a square mod p.
    * p = 2, b odd: odd n, (2, 1), and n^2 == 1 (mod 8), so (2, 1) again
      when b == 3 (mod 4).  When b == 7 (mod 8), the n with 2^k | n^2 + b,
      k >= 3, are +-s mod 2^(k-1) for a root s of -b mod 2^k, which lifts
      to s + 2^(k-1) mod 2^(k+1) when s itself does not.  The roots mod
      p^k can multiply (b = 2^30 has 2^15 mod 2^30); the classes do not.
    """
    if b % p == 0:
        if b % (p * p):
            return [(p, p)]
        b //= p * p
        levels = [(p, p), (p, p)]
        roots = arith._roots_mod_p(-b, p)
        if roots:
            levels += [(p * m, p * c) for m, c in _hensel_levels(p, roots[0], b, top // (p * p))]
        return levels
    if p == 2:
        levels = [(2, 1)]
        if b % 4 == 3:
            levels.append((2, 1))
        if b % 8 == 7:
            s, h, pk = 1, 4, 8  # s^2 == -b (mod pk), h = pk / 2
            while pk <= top:
                levels += ((h, s), (h, h - s))
                if (s * s + b) % (2 * pk):
                    s += h
                h, pk = pk, 2 * pk
        return levels
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
    first = []
    for p, roots in sieve_primes(spec, arith.isqrt((hi - 1) ** 2 + abs(b)) + 1):
        add(p, roots[0], lo)
        if p >= hi:
            first += [p for r in roots if lo <= r < hi]
    yield first
    for slo in range(lo, hi, SEGMENT):
        rem = _values(b, slo, min(slo + SEGMENT, hi))
        divide(rem, slo)
        yield [v for v in rem if v > 1]


def _first_hit_setup(spec: SequenceSpec, x: int) -> tuple:
    """What a first-hit scan of n = 1..x starts from: (table, add, divide).

    x >= HI_CAP is refused first.  table lists (p, levels) for every
    prime p of one sieve_primes list up to T = isqrt(z^2 + |b|) + 1,
    z = min(isqrt(|b| // 3), x): its Hensel levels, least class first,
    registered from n = 1 with the scheduler (add, divide) of [1, x].

    Once the scheduler has divided, the leftover of |n^2 + b| at every
    n <= x is 1 or one prime q, whose least root is n: for n <= z
    because q > T and T^2 > |n^2 + b|, and for n > z because q > 2n and
    |n^2 + b| < 4n^2.  That holds for the one prime q > T that the table
    may leave of |b| too: its least root is n = q, and |q^2 + b| / q is
    below 2q, so no other prime above 2q is left there.  The scan
    registers q from n + 1 when its other root q - n (0 for the q of |b|)
    is at most x; otherwise q divides no later term.  So no scan factors
    anything.
    """
    _check_cap(x + 1)
    b = spec.b
    z = min(arith.isqrt(abs(b) // 3), x)
    add, divide = _scheduler(b, 1, x + 1)
    table = [(p, add(p, roots[0], 1))
             for p, roots in sieve_primes(spec, arith.isqrt(z * z + abs(b)) + 1)]
    return table, add, divide
