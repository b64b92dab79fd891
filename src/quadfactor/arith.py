"""Exact integer arithmetic primitives.

Modular square roots, deterministic 64-bit primality, factorization
(trial division by the Miller-Rabin base primes, then Pollard's rho)
and the largest prime factor.
"""

from itertools import compress, count
from math import gcd, isqrt
from typing import NamedTuple

from .errors import NegativeSquareError, OutOfDomainError

B_CAP = 1 << 31

# Strong-pseudoprime witnesses covering every n < 3.3 * 10^24, in
# particular all 64-bit inputs.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class SequenceSpec(NamedTuple):
    """The fixed offset b of the sequence n^2 + b, with -b not a square."""

    b: int


def validate_b(b: int) -> SequenceSpec:
    """Build a SequenceSpec, rejecting any b whose negation is a square.

    If -b = k^2 the term at n = k would be zero and divisibility
    statements about the sequence degenerate.
    """
    if abs(b) > B_CAP:
        raise OutOfDomainError(f"|b| = {abs(b)} exceeds the supported cap 2^31")
    if b <= 0:
        k = isqrt(-b)
        if k * k == -b:
            raise NegativeSquareError(f"-b = {-b} is the perfect square {k}^2")
    return SequenceSpec(b)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for all m < 2^64."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# The odd primes z up to 47, each with its squares mod z.  For a prime
# p == 1 (mod 4), quadratic reciprocity gives (z/p) = (p/z), so z is a
# non-residue mod p exactly when p mod z is not a square mod z.  0 is
# a square, so z = p (17, 41) is never taken for a non-residue.
_SQUARES = tuple((z, frozenset(r * r % z for r in range(z)))
                 for z in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))


def _non_residue(p: int) -> int:
    """The least quadratic non-residue mod a prime p == 1 (mod 8).

    It is an odd prime, since 2 is a residue.  _SQUARES answers for the
    odd primes up to 47 without an exponentiation; past them Euler's
    criterion decides, first needed at p = 9257329, whose least
    non-residue is 53 (OEIS A000229).
    """
    for z, squares in _SQUARES:
        if p % z not in squares:
            return z
    z = 53
    while pow(z, p >> 1, p) != p - 1:
        z += 1
    return z


def _tonelli(a: int, p: int) -> int:
    """One square root of a mod p (prime p == 1 (mod 8), a nonzero mod p),
    or 0 when a is a non-residue.

    Tonelli-Shanks in two exponentiations.  With p - 1 = q 2^s, q odd,
    one w = a^((q-1)/2) gives x = a w = a^((q+1)/2) and t = x w = a^q,
    and by Euler's criterion a is a residue exactly when s - 1 squarings
    take t to 1.  The other is c = z^q for the non-residue z of
    _non_residue.
    """
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = p >> s
    w = pow(a, q >> 1, p)
    x = a * w % p
    t = x * w % p
    u = t
    for _ in range(s - 1):
        u = u * u % p
    if u != 1:
        return 0
    c = pow(_non_residue(p), q, p)
    m = s
    while t != 1:
        t2i = t
        i = 0
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def _roots_mod_p(a: int, p: int) -> tuple:
    """Square roots of a modulo a prime p, ascending: (), (r,) or (r, p - r).

    p = 2 and a == 0 (mod p) have the single root a mod p.  An odd p
    takes one of three routes (Crandall-Pomerance, Alg. 2.3.8):

    * p == 3 (mod 4): r = a^((p+1)/4);
    * p == 5 (mod 8): Atkin's r = a v (i - 1), v = (2a)^((p-5)/8),
      i = 2a v^2, one exponentiation since 2 is a non-residue mod p;
    * p == 1 (mod 8): Tonelli-Shanks (_tonelli) in two exponentiations,
      its non-residue read off a table of squares by reciprocity and
      found by Euler's criterion only past that table (_non_residue).

    Each gives a root whenever one exists, so r^2 == a (mod p) decides
    residuosity in place of a separate Euler test.  Primality of p is
    the caller's promise.
    """
    a %= p
    if p == 2 or a == 0:
        return (a,)
    if p & 3 == 3:
        r = pow(a, (p + 1) >> 2, p)
    elif p & 7 == 5:
        a2 = 2 * a
        v = pow(a2, (p - 5) >> 3, p)
        r = a * v * (a2 * v * v - 1) % p
    else:
        r = _tonelli(a, p)
    if r * r % p != a:
        return ()
    return (r, p - r) if r < p - r else (p - r, r)


class RootSet(NamedTuple):
    """Residues r mod p with r^2 + b == 0 (mod p), sorted ascending."""

    p: int
    roots: tuple


def primes_upto(n: int) -> list:
    """Primes <= n via a byte sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def _prime_segments(top: int):
    """Yield (lo, flags) over [0, top] in ascending segments: flags[i] == 1
    exactly when lo + i is prime.  Memory is O(sqrt(top)) plus one segment."""
    base = primes_upto(isqrt(top))
    length = 1 << 18
    for lo in range(0, top + 1, length):
        flags = bytearray([1]) * min(length, top + 1 - lo)
        if lo == 0:
            flags[:2] = bytes(len(flags[:2]))
        for p in base:
            start = max(p * p, -(-lo // p) * p) - lo
            flags[start::p] = bytes(len(range(start, len(flags), p)))
        yield lo, flags


def _rho(m: int) -> int:
    """A proper factor of a composite m with no prime factor in _MR_BASES.

    Pollard's rho (BIT 15, 1975) on x -> x^2 + c with Floyd's cycle
    test, moving on to the next c when the cycle closes on m itself.
    """
    for c in count(1):
        x, y, g = 2, 2, 1
        while g == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            g = gcd(x - y, m)
        if g != m:
            return g


def factorize(m: int) -> list:
    """Complete factorization of m >= 1 as sorted (prime, exponent) pairs.

    The primes of _MR_BASES are divided out, and what is left is split
    by _rho on a work list until every piece is prime: a piece below
    41^2 has no prime factor up to 37 left, so it is prime without a
    test, and is_prime decides the rest.  It factors m for p_plus and
    every term of primitive.classify_definitional; no scan factors
    anything.
    """
    if m < 1:
        raise OutOfDomainError(f"cannot factor {m}")
    out = {}
    for p in _MR_BASES:
        while m % p == 0:
            m //= p
            out[p] = out.get(p, 0) + 1
    work = [m] if m > 1 else []
    while work:
        m = work.pop()
        if m < 41 * 41 or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            work += (d, m // d)
    return sorted(out.items())


def p_plus(m: int) -> int:
    """P+(m): the greatest prime factor of m > 1."""
    if m <= 1:
        raise OutOfDomainError(f"P+ undefined for m = {m}")
    return factorize(m)[-1][0]
