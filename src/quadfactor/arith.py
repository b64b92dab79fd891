"""Exact integer arithmetic primitives.

Modular square roots, deterministic 64-bit primality, largest prime
factor, and evaluation of the quadratic terms n^2 + b.  Everything here
is a pure function over immutable inputs and safe to call concurrently.
"""

from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt

from .errors import NegativeSquareError, NotPrimeError, OutOfDomainError

B_CAP = 1 << 31

# Strong-pseudoprime witnesses covering every n < 3.3 * 10^24, in
# particular all 64-bit inputs.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class SequenceSpec:
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


def term(spec: SequenceSpec, n: int) -> int:
    """n-th term n^2 + b, computed exactly."""
    return n * n + spec.b


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for all m < 2^64."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _tonelli(a: int, p: int) -> int:
    """One square root of a mod p (odd prime, a a known nonzero residue).

    Tonelli-Shanks with a deterministic non-residue search starting from
    2 so that results are reproducible run to run.
    """
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
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
    * p == 1 (mod 8): Euler's criterion, then Tonelli-Shanks.

    The first two give a root whenever one exists, so r^2 == a (mod p)
    decides residuosity in place of a separate Euler test.  Primality
    of p is the caller's promise.
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
    elif pow(a, (p - 1) >> 1, p) == 1:
        r = _tonelli(a, p)
    else:
        return ()
    if r * r % p != a:
        return ()
    return (r, p - r) if r < p - r else (p - r, r)


def sqrt_mod(a: int, p: int) -> set:
    """All square roots of a modulo a prime p.

    Returns the empty set when a is a non-residue, {0} when a == 0,
    and {r, p - r} otherwise.
    """
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    return set(_roots_mod_p(a, p))


@dataclass(frozen=True)
class RootSet:
    """Residues r mod p with r^2 + b == 0 (mod p), sorted ascending."""

    p: int
    roots: tuple


def roots_of_term_mod_p(spec: SequenceSpec, p: int) -> RootSet:
    """Solutions of n^2 + b == 0 (mod p); the single root -b mod 2 for p = 2."""
    return RootSet(p, _roots_mod_p(-spec.b, p))


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


def _pollard_brent(m: int) -> int:
    """Nontrivial factor of an odd composite m, Brent's cycle variant."""
    if m % 2 == 0:
        return 2
    x0, c, step = 2, 1, 0
    while True:
        y, r, q, g = x0, 1, 1, 1
        x = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g
        # rare cycle degeneracy: restart with a shifted polynomial
        c += 1
        step += 1
        x0 += step


def factorize(m: int) -> list:
    """Complete factorization of m >= 1 as sorted (prime, exponent) pairs.

    Trial division by a 2/3/5 wheel with a primality early-exit, falling
    back to Pollard-Brent rho for large semiprime leftovers.  Intended
    as a reference oracle for word-sized inputs, not a bulk tool.
    """
    if m < 1:
        raise OutOfDomainError(f"cannot factor {m}")
    out = {}

    def _add(p, e=1):
        out[p] = out.get(p, 0) + e

    for p in (2, 3, 5):
        while m % p == 0:
            _add(p)
            m //= p
    if m > 1 and is_prime(m):
        _add(m)
        m = 1
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    wi = 0
    while m > 1 and d * d <= m:
        if m % d == 0:
            while m % d == 0:
                _add(d)
                m //= d
            if m > 1 and is_prime(m):
                _add(m)
                m = 1
        else:
            d += wheel[wi]
            wi = (wi + 1) % 8
            if d > 1 << 20:
                _split(m, _add)
                m = 1
    if m > 1:
        _add(m)
    return sorted(out.items())


def _split(m, add):
    """Recursively split m (all prime factors > 2^20) into primes."""
    if m == 1:
        return
    if is_prime(m):
        add(m)
        return
    g = _pollard_brent(m)
    _split(g, add)
    _split(m // g, add)


def p_plus(m: int) -> int:
    """P+(m): the greatest prime factor of m > 1."""
    if m <= 1:
        raise OutOfDomainError(f"P+ undefined for m = {m}")
    return factorize(m)[-1][0]
