"""Primitive-divisor classification and the density count rho_b(x).

A term P_n = n^2 + b has a primitive divisor when some d > 1 divides it
while being coprime to every earlier nonzero term; equivalently, when
P_n carries a prime that no earlier term does.  Two classifiers are
provided:

* the definitional one, which scans all earlier prime factors, and
* the fast one, valid for n > |b|: a primitive divisor exists exactly
  when the greatest prime factor of n^2 + b exceeds 2n, and it is then
  that prime (and unique).

rho() counts classified terms up to x, using the definitional path for
the finitely many n <= |b| and the fast path beyond.
"""

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from . import arith, sieve
from .arith import SequenceSpec
from .errors import PreconditionViolatedError
from .sieve import SieveConfig, TermFactorization


@dataclass(frozen=True, slots=True)
class PrimitiveStatus:
    n: int
    has_primitive: bool
    primitive_prime: Optional[int] = None
    multiple: bool = False  # >1 new prime; only possible for n <= |b|


@dataclass(frozen=True)
class DensityReport:
    spec: SequenceSpec
    checkpoints: List[Tuple[int, int, float]]  # (x, rho, rho/x)


@dataclass(frozen=True)
class CensusReport:
    spec: SequenceSpec
    x: int
    non_primitive: List[int]
    count: int


def _term_primes(tf: TermFactorization) -> list:
    ps = [p for p, _ in tf.factors]
    if tf.cofactor > 1:
        ps.append(tf.cofactor)
    return ps


def _new_prime_status(n: int, primes: list, seen: set) -> PrimitiveStatus:
    """Classify P_n by its primes against those of earlier terms in seen.

    The largest new prime is reported, and `multiple` is set when there
    is more than one.  seen is then extended by P_n's primes.
    """
    new = [p for p in primes if p not in seen]
    seen.update(primes)
    if not new:
        return PrimitiveStatus(n, False)
    return PrimitiveStatus(n, True, max(new), len(new) > 1)


def primitive_status_fast(spec: SequenceSpec, tf: TermFactorization) -> PrimitiveStatus:
    """Classify via the greatest-prime-factor criterion; needs n > |b|."""
    if tf.n <= abs(spec.b):
        raise PreconditionViolatedError(
            f"fast criterion needs n > |b|, got n = {tf.n}, b = {spec.b}")
    pp = sieve.p_plus_of(tf)
    if pp > 2 * tf.n:
        return PrimitiveStatus(tf.n, True, pp)
    return PrimitiveStatus(tf.n, False)


def classify_definitional(spec: SequenceSpec, x: int) -> Iterator[PrimitiveStatus]:
    """Definitional scan of n = 1..x with an incrementally grown prime set."""
    seen = set()
    for n in range(1, x + 1):
        av = abs(arith.term(spec, n))
        primes = [p for p, _ in arith.factorize(av)] if av > 1 else []
        yield _new_prime_status(n, primes, seen)


def classify_range(spec: SequenceSpec, x: int, *,
                   segment_size: int = sieve.DEFAULT_SEGMENT) -> Iterator[PrimitiveStatus]:
    """Classify n = 1..x: definitional while n <= |b|, fast criterion after.

    Single sieve pass with prime_limit 2(x+1); the seen-prime set is
    only maintained over the definitional prefix.
    """
    cut = abs(spec.b)
    cfg = SieveConfig(1, x + 1, segment_size=segment_size)
    seen = set()
    for tf in sieve.sieve_range(spec, cfg):
        if tf.n <= cut:
            yield _new_prime_status(tf.n, _term_primes(tf), seen)
        else:
            yield primitive_status_fast(spec, tf)


def rho(spec: SequenceSpec, x: int, checkpoints: Optional[Sequence[int]] = None, *,
        segment_size: int = sieve.DEFAULT_SEGMENT) -> DensityReport:
    """Count terms with a primitive divisor up to x, with running ratios.

    checkpoints is an ascending sequence of positions <= x at which
    (x_i, rho(x_i), rho(x_i)/x_i) rows are recorded; default just x.
    """
    if x < 1:
        raise PreconditionViolatedError("x must be >= 1")
    marks = sorted({m for m in checkpoints if 1 <= m <= x}) if checkpoints else [x]
    if not marks or marks[-1] != x:
        marks.append(x)
    stream = classify_range(spec, x, segment_size=segment_size)
    rows = []
    count = 0
    mi = 0
    for st in stream:
        if st.has_primitive:
            count += 1
        while mi < len(marks) and st.n == marks[mi]:
            rows.append((st.n, count, count / st.n))
            mi += 1
    return DensityReport(spec, rows)


def non_primitive_census(spec: SequenceSpec, x: int, *,
                         segment_size: int = sieve.DEFAULT_SEGMENT) -> CensusReport:
    """Indices n <= x whose term has no primitive divisor, with their count."""
    idx = [st.n for st in classify_range(spec, x, segment_size=segment_size)
           if not st.has_primitive]
    return CensusReport(spec, x, idx, len(idx))
