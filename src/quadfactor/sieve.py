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

Segments are stateless: per-segment hit offsets are recomputed by
modular arithmetic, so output is identical for any segment size.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import arith
from .arith import RootSet, SequenceSpec
from .errors import CapExceededError, OutOfDomainError

HI_CAP = 10 ** 9
DEFAULT_SEGMENT = 1 << 16


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
    """Index range [lo, hi), sieve prime limit and segment length."""

    lo: int
    hi: int
    prime_limit: Optional[int] = None
    segment_size: int = DEFAULT_SEGMENT

    def __post_init__(self):
        if not (1 <= self.lo < self.hi):
            raise OutOfDomainError(f"need 1 <= lo < hi, got [{self.lo}, {self.hi})")
        if self.hi > HI_CAP:
            raise CapExceededError(f"hi = {self.hi} exceeds the cap {HI_CAP}")
        if self.segment_size < 1:
            raise OutOfDomainError("segment_size must be >= 1")
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
    for slo in range(cfg.lo, cfg.hi, cfg.segment_size):
        yield from _sieve_segment(b, slo, min(slo + cfg.segment_size, cfg.hi), pairs, oracle_cut)


def p_plus_of(tf: TermFactorization) -> int:
    """Greatest prime factor of |n^2 + b| read off a factorization."""
    if tf.cofactor > 1:
        return tf.cofactor
    if tf.factors:
        return tf.factors[-1][0]
    raise OutOfDomainError(f"|P_{tf.n}| = 1 has no prime factor")


def write_csv(stream: Iterable[TermFactorization], fh) -> None:
    """Raw dump: one row per term, factors as space-separated p^e."""
    fh.write("n,sign,factors,cofactor\n")
    for tf in stream:
        fs = " ".join(f"{p}^{e}" for p, e in tf.factors)
        fh.write(f"{tf.n},{tf.sign},{fs},{tf.cofactor}\n")
