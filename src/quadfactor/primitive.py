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
left at n is exactly the product of the primes new at n.  It starts
from sieve._first_hit_setup, one prime list up to T = isqrt(z^2 + |b|) + 1,
z = min(isqrt(|b| // 3), x), each prime split into the residue classes
of its powers and divided by the scheduler of sieve from n = 1.  Every
larger prime q is then the whole leftover at its least root n and
registers its classes the same way from their first hits after n; a
prime with q - n > x never recurs in range and is not registered.  The
primes known before the scan are multiplied back at their least root,
and nothing is factored.

rho() counts the n whose product of new primes exceeds 1, and
non_primitive_census() lists the others.  classify_definitional() is
the definitional scan perfbench's census check reads: it factors every
term with arith and keeps the set of primes seen so far.  The tests
check the kernel against a trial-division scan of their own.
"""

from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import arith, sieve
from .arith import SequenceSpec
from .errors import PreconditionViolatedError


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
    before any prime table.  The segments have the fixed length
    sieve.SEGMENT (the last one may be shorter); the output does not
    depend on that length.

    new[i] is the product of the primes new at n = lo + i, each taken
    once, so 1 exactly when P_n has no primitive divisor.
    """
    b, size = spec.b, sieve.SEGMENT
    table, add, divide = sieve._first_hit_setup(spec, x)
    # (least root, p) for the primes known before the scan, last root first
    first = sorted([(levels[0][1], p) for p, levels in table], reverse=True)

    for lo in range(1, x + 1, size):
        hi = min(lo + size, x + 1)
        rem = sieve._values(b, lo, hi)
        divide(rem, lo)
        for n, v in enumerate(rem, lo):
            if 1 < v <= n + x:  # a new prime q with q - n <= x recurs in range
                add(v, n, n + 1)

        while first and first[-1][0] < hi:
            n, p = first.pop()
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
