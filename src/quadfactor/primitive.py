"""Primitive-divisor classification and the density count rho_b(x).

A term P_n = n^2 + b has a primitive divisor when some d > 1 divides it
while being coprime to every earlier nonzero term; equivalently, when
P_n carries a prime that no earlier term does.

By the first-hit lemma a prime p is new at n exactly when n is the least
positive root of m^2 + b == 0 (mod p).  For p = 2 that root is 1 or 2,
for a prime p dividing b it is p, and any other p has the two roots
n < p - n, so a new p exceeds 2n.  One self-sieving kernel, valid for
every n (including n <= |b|), scans n = 1..x in ascending segments and
divides out of |P_n| every prime whose least root lies below n: what is
left at n is exactly the product of the primes new at n.  The primes are
found as the scan reaches them, so no prime table and no modular square
root is computed:

* 2 and the primes of b (one factorization of |b|) are known from the
  start and divided out of each of their hits in a loop; they are new
  only at their least root.
* Any other prime q left over at n registers its roots n and q - n,
  lifted by Hensel's lemma to every q^k <= x^2 + |b|, with the division
  scheduler of sieve, from their first hits after n.  A prime with
  q - n > x never recurs in range and is not registered.
* Once 3n^2 > |b|, |P_n| < 4n^2, so the leftover is 1 or a single prime
  above 2n.  Below that (the oracle zone) it is factored by arith.

rho() counts the n whose product of new primes exceeds 1, and
non_primitive_census() lists the others.  classify_definitional() is
the definitional scan perfbench's census check reads: it factors every
term with arith and keeps the set of primes seen so far.  The tests
check the kernel against a trial-division scan of their own.
"""

from itertools import islice
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import arith, sieve
from .arith import SequenceSpec
from .errors import PreconditionViolatedError
from .sieve import _hensel_levels


class PrimitiveStatus(NamedTuple):
    n: int
    has_primitive: bool


class DensityReport(NamedTuple):
    spec: SequenceSpec
    checkpoints: List[Tuple[int, int, float]]  # (x, rho, rho/x)


class CensusReport(NamedTuple):
    spec: SequenceSpec
    x: int
    non_primitive: List[int]
    count: int


def classify_definitional(spec: SequenceSpec, x: int) -> Iterator[PrimitiveStatus]:
    """Definitional scan of n = 1..x: P_n has a primitive divisor when one
    of its primes divides no earlier term."""
    seen = set()
    for n in range(1, x + 1):
        primes = {p for p, _ in arith.factorize(abs(n * n + spec.b))}
        yield PrimitiveStatus(n, not primes <= seen)
        seen |= primes


def _first_hits(spec: SequenceSpec, x: int) -> Iterator[tuple]:
    """Stream (lo, new) per segment [lo, hi) of n = 1..x, ascending.

    The caller checks x >= 1; an x at or past sieve.HI_CAP is refused
    before |b| is factored.  The segments have the fixed length
    sieve.SEGMENT (the last one may be shorter); the output does not
    depend on that length.

    new[i] is the product of the primes new at n = lo + i, so 1 exactly
    when P_n has no primitive divisor.  Past |b| it is 1 or the one new
    prime; in the oracle zone a new prime may appear with its exponent.
    """
    sieve._check_cap(x + 1)
    b, size = spec.b, sieve.SEGMENT
    top = x * x + abs(b)  # no |P_n| with n <= x exceeds this
    cut = arith.isqrt(abs(b) // 3)  # the oracle zone is n <= cut
    roots = {2: b % 2}  # fallback prime -> its root mod p
    roots.update((p, 0) for p, _ in arith.factorize(abs(b)) if p <= x)
    first = {r or p: p for p, r in roots.items() if (r or p) <= x}  # least root -> p
    add, divide = sieve._scheduler(1, x + 1)

    for lo in range(1, x + 1, size):
        hi = min(lo + size, x + 1)
        rem = sieve._values(b, lo, hi)
        divide(rem, lo)
        # sieve._divide_fallback without its exponent count, which costs
        # one addition per extra division (per hit, not once per prime per
        # segment) and made a 2^16 segment at b = -73600 20-30% slower
        for p, r in roots.items():
            for i in range((r - lo) % p, hi - lo, p):
                v = rem[i] // p  # p divides every term at its root
                while v % p == 0:
                    v //= p
                rem[i] = v

        for n in range(lo, min(hi, cut + 1)):
            v = rem[n - lo]
            if v > 1:
                for q, _ in arith.factorize(v):
                    if q - n <= x:
                        add(q, _hensel_levels(q, n, b, top), n + 1)
        start = max(lo, cut + 1)
        for n, v in enumerate(islice(rem, start - lo, None), start):
            if 1 < v <= n + x:  # a new prime q with q - n <= x recurs in range
                add(v, _hensel_levels(v, n, b, top), n + 1)

        for n, p in first.items():
            if lo <= n < hi:
                rem[n - lo] *= p
        yield lo, rem


def rho(spec: SequenceSpec, x: int,
        checkpoints: Optional[Sequence[int]] = None) -> DensityReport:
    """Count terms with a primitive divisor up to x, with running ratios.

    checkpoints is an ascending sequence of positions <= x at which
    (x_i, rho(x_i), rho(x_i)/x_i) rows are recorded; default just x.
    """
    if x < 1:
        raise PreconditionViolatedError("x must be >= 1")
    marks = sorted({m for m in checkpoints if 1 <= m <= x}) if checkpoints else [x]
    if not marks or marks[-1] != x:
        marks.append(x)
    rows = []
    count = 0
    mi = 0
    for lo, new in _first_hits(spec, x):
        done = 0  # new[:done] is already counted
        while mi < len(marks) and marks[mi] < lo + len(new):
            k = marks[mi] - lo + 1
            count += k - done - new[done:k].count(1)
            done = k
            rows.append((marks[mi], count, count / marks[mi]))
            mi += 1
        count += len(new) - done - new[done:].count(1)
    return DensityReport(spec, rows)


def non_primitive_census(spec: SequenceSpec, x: int) -> CensusReport:
    """Indices n <= x whose term has no primitive divisor, with their count."""
    if x < 1:
        raise PreconditionViolatedError("x must be >= 1")
    idx = [n for lo, new in _first_hits(spec, x)
           for n, v in enumerate(new, lo) if v == 1]
    return CensusReport(spec, x, idx, len(idx))
