"""Segmented factor sieve over the values n^2 + b.

Fully factors every |n^2 + b| for n in [lo, hi) using only primes up to
a configurable limit.  For each sieve prime p the hit indices are the
n == r (mod p) for the roots r of n^2 + b mod p; at each hit p is
divided out repeatedly, so exponents are exact even at ramified primes.
Whatever survives the divisions is the cofactor.

With the default prime_limit = 2*hi the cofactor is 1 or a single prime
greater than 2n for every term (two factors above 2*hi would multiply
past n^2 + b once 3n^2 > |b|; the handful of smaller n are fully
factored by the oracle instead).  Smaller limits are allowed, e.g. for
smoothness scans, in which case the cofactor is merely a product of
primes above the limit.

The kernels here and in primitive scan [lo, hi) in segments of the one
fixed length SEGMENT (read at run time, so a test can patch it in).
Segments are stateless: per-segment hit offsets are recomputed by
modular arithmetic, so the output does not depend on the length, and
the memory of a segment is a constant.

Two kernels share the root sets of sieve_primes:

* sieve_range streams one TermFactorization per n, dividing each hit
  in a loop; it now serves only the raw `sieve` dump (the
  primitive-divisor count finds its primes itself, in primitive).
* slice_range, for the aggregate statistics, builds no per-term
  record.  Each root mod p of an odd p not dividing b is lifted by
  Hensel's lemma (_hensel_levels, shared with primitive) to the root
  mod p^k for every p^k up to the largest |n^2 + b|; p^k divides
  n^2 + b exactly when n is congruent to one of these roots, so one
  strided slice division per (p^k, root) removes exactly the exponent
  of p.  For p = 2 and p | b the roots mod p^k can multiply, so those
  primes fall back to dividing each hit mod p in a loop.  The exponent
  totals count the same divisions that produce the cofactors, so
  |n^2 + b| = prod p^e * cofactor holds by construction.
"""

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from . import arith
from .arith import RootSet, SequenceSpec
from .errors import CapExceededError, OutOfDomainError

HI_CAP = 10 ** 9
SEGMENT = 1 << 16


@dataclass(frozen=True, slots=True)
class TermFactorization:
    """Exact decomposition sign * prod(p^e) * cofactor == n^2 + b."""

    n: int
    sign: int
    factors: tuple  # ((p, e), ...) sorted by p
    cofactor: int

    def value(self) -> int:
        v = self.cofactor
        for p, e in self.factors:
            v *= p ** e
        return self.sign * v


@dataclass(frozen=True)
class SieveConfig:
    """Index range [lo, hi) and sieve prime limit (default 2 * hi)."""

    lo: int
    hi: int
    prime_limit: Optional[int] = None

    def __post_init__(self):
        if not (1 <= self.lo < self.hi):
            raise OutOfDomainError(f"need 1 <= lo < hi, got [{self.lo}, {self.hi})")
        if self.hi > HI_CAP:
            raise CapExceededError(f"hi = {self.hi} exceeds the cap {HI_CAP}")
        if self.prime_limit is None:
            object.__setattr__(self, "prime_limit", 2 * self.hi)
        if self.prime_limit < 2:
            raise OutOfDomainError("prime_limit must be >= 2")


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


def _flatten(rootsets) -> list:
    return [(rs.p, r) for rs in rootsets for r in rs.roots]


def _sieve_segment(b: int, lo: int, hi: int, pairs: list, oracle_cut: int) -> list:
    """Factor all terms for n in [lo, hi); pure function of its arguments.

    oracle_cut is the largest n for which 3n^2 <= |b|; at or below it a
    prime cofactor is not forced, so those terms go to the full
    factorization oracle instead.
    """
    length = hi - lo
    vals = [n * n + b for n in range(lo, hi)]
    signs = None
    if b < 0 and lo * lo + b < 0:
        signs = [-1 if v < 0 else 1 for v in vals]
        vals = [-v if v < 0 else v for v in vals]
    facs = [[] for _ in range(length)]

    for p, r in pairs:
        i = (r - lo) % p
        while i < length:
            v = vals[i]
            if v > 1:  # oracle-zone units and |P_n| = 1 terms have nothing to divide
                v //= p
                e = 1
                while v % p == 0:
                    v //= p
                    e += 1
                vals[i] = v
                facs[i].append((p, e))
            i += p

    out = []
    n = lo
    for i in range(length):
        sign = 1 if signs is None else signs[i]
        if n <= oracle_cut:
            av = abs(n * n + b)
            fs = tuple(arith.factorize(av)) if av > 1 else ()
            out.append(TermFactorization(n, sign, fs, 1))
        else:
            out.append(TermFactorization(n, sign, tuple(facs[i]), vals[i]))
        n += 1
    return out


def sieve_range(spec: SequenceSpec, cfg: SieveConfig) -> Iterator[TermFactorization]:
    """Stream one TermFactorization per n in [lo, hi), ascending, segment by segment."""
    b = spec.b
    pairs = _flatten(sieve_primes(spec, cfg.prime_limit))
    oracle_cut = arith.isqrt(abs(b) // 3)
    for slo in range(cfg.lo, cfg.hi, SEGMENT):
        yield from _sieve_segment(b, slo, min(slo + SEGMENT, cfg.hi), pairs, oracle_cut)


def lifted_roots(spec: SequenceSpec, limit: int, top: int) -> Tuple[list, list]:
    """Roots of n^2 + b modulo prime powers, for the slice kernel.

    Returns (lifted, fallback).  lifted holds (p, ((p^k, r), ...)) for
    every odd sieve prime p <= limit with p not dividing b, listing each
    root r mod p^k for every p^k <= top.  Such a p has the two roots
    r, p - r, and each lifts to exactly one root mod p^(k+1) by Hensel's
    lemma, r - (r^2 + b) / (2r) with the inverse taken mod p, because
    the derivative 2r is a unit mod p; the roots mod p^k are r, p^k - r.
    fallback holds (p, roots mod p) for p = 2 and the primes dividing b,
    where roots mod p^k can multiply (b = 2^30 has 2^15 roots mod 2^30)
    and are not lifted.
    """
    b = spec.b
    lifted, fallback = [], []
    for rs in sieve_primes(spec, limit):
        p = rs.p
        if p == 2 or b % p == 0:
            fallback.append((p, rs.roots))
        elif p <= top:  # p > top divides no value in range
            lifted.append((p, tuple(_hensel_levels(p, rs.roots[0], b, top))))
    return lifted, fallback


def _hensel_levels(p: int, r: int, b: int, top: int) -> list:
    """((p^k, r_k), (p^k, p^k - r_k)) for every p^k <= top, ascending in p^k.

    p is an odd prime not dividing b, p <= top, and r a root of n^2 + b
    mod p; r_k is the root mod p^k that reduces to r mod p.
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


def _slice_segment(b: int, lo: int, hi: int, strided: list, fallback: list,
                   singles: list) -> tuple:
    """Divide every sieve prime out of |n^2 + b| for n in [lo, hi).

    Returns (vals, rem, exps): the values |n^2 + b|, what is left of them
    (the cofactors) and {p: total exponent of p over the segment}, with
    only primes that divide some value.  A strided root r mod p^k removes
    one factor p from every n == r (mod p^k) in one strided slice, so an
    n loses exactly as many factors p as p^k divide its value; a
    fallback prime is divided out of each of its hits mod p in a loop.
    singles holds the (n, p) of lifted roots whose modulus is too large
    to recur within the range: each removes one factor p from n.
    Every division is counted in exps, so vals[i] equals rem[i] times
    the prime powers taken from it.
    """
    length = hi - lo
    vals = [abs(n * n + b) for n in range(lo, hi)]
    rem = vals[:]
    exps = {}
    for p, levels in strided:
        e = 0
        for pk, r in levels:
            s = (r - lo) % pk
            if s < length:
                if s + pk < length:
                    part = rem[s::pk]
                    rem[s::pk] = [v // p for v in part]
                    e += len(part)
                else:
                    rem[s] //= p
                    e += 1
        if e:
            exps[p] = e
    for p, roots in fallback:
        e = 0
        for r in roots:
            for i in range((r - lo) % p, length, p):
                v = rem[i]  # >= 1, since -b is not a square
                while v % p == 0:
                    v //= p
                    e += 1
                rem[i] = v
        if e:
            exps[p] = e
    for n, p in singles:
        rem[n - lo] //= p
        exps[p] = exps.get(p, 0) + 1
    return vals, rem, exps


def _split_by_span(lifted: list, lo: int, hi: int) -> Tuple[list, list]:
    """Separate the lifted roots that recur within [lo, hi) from those that cannot.

    A modulus p^k >= hi - lo meets [lo, hi) at most once, so its root
    becomes one (n, p) single, sorted by n; the rest stay strided.
    """
    span = hi - lo
    strided, singles = [], []
    for p, levels in lifted:
        near = tuple(lv for lv in levels if lv[0] < span)
        if near:
            strided.append((p, near))
        for pk, r in levels[len(near):]:  # levels ascend in p^k
            n = lo + (r - lo) % pk
            if n < hi:
                singles.append((n, p))
    singles.sort()
    return strided, singles


def slice_range(spec: SequenceSpec, cfg: SieveConfig) -> Iterator[tuple]:
    """Stream (vals, rem, exps) of _slice_segment per segment of [lo, hi), ascending.

    The exact counterpart of sieve_range for callers that need only
    exponent totals and cofactors: no per-term factor list is built.
    Every prime <= prime_limit is divided out completely, so a cofactor
    is a product of primes above the limit.
    """
    b, lo, hi = spec.b, cfg.lo, cfg.hi
    lifted, fallback = lifted_roots(spec, cfg.prime_limit, (hi - 1) ** 2 + abs(b))
    strided, singles = _split_by_span(lifted, lo, hi)
    del lifted  # the segments need only the split copies
    j = 0
    for slo in range(lo, hi, SEGMENT):
        shi = min(slo + SEGMENT, hi)
        k = bisect_left(singles, (shi,), j)
        yield _slice_segment(b, slo, shi, strided, fallback, singles[j:k])
        j = k


def write_csv(stream: Iterable[TermFactorization], fh) -> None:
    """Raw dump: one row per term, factors as space-separated p^e."""
    fh.write("n,sign,factors,cofactor\n")
    for tf in stream:
        fs = " ".join(f"{p}^{e}" for p, e in tf.factors)
        fh.write(f"{tf.n},{tf.sign},{fs},{tf.cofactor}\n")
