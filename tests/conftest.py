"""Shared independent oracles: naive routines that use nothing from the
package's fast paths, only schoolbook arithmetic."""

import math

import pytest


def naive_factorize(m):
    """Trial division by every integer; the slowest possible oracle."""
    assert m >= 1
    out = []
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def naive_p_plus(m):
    assert m > 1
    return naive_factorize(m)[-1][0]


def naive_is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def naive_prime_set(m):
    return {p for p, _ in naive_factorize(m)} if m > 1 else set()


def naive_extra_new_primes(b, x):
    """E_b(x): the sum of (number of primes new at n) - 1 over the n <= x
    with more than one new prime, a prime being new at n when it divides
    |n^2 + b| and no earlier term.  Factors every term and keeps the set
    of primes seen so far."""
    seen = set()
    extra = 0
    for n in range(1, x + 1):
        primes = naive_prime_set(abs(n * n + b))
        extra += max(0, len(primes - seen) - 1)
        seen |= primes
    return extra


def naive_non_primitive(b, x):
    """The n <= x whose |n^2 + b| has no primitive divisor, ascending: every
    prime of the term already divides an earlier term.  Factors every term
    and keeps the set of primes seen so far."""
    seen = set()
    out = []
    for n in range(1, x + 1):
        primes = naive_prime_set(abs(n * n + b))
        if primes <= seen:
            out.append(n)
        seen |= primes
    return out


def naive_is_smooth(m, B):
    """True when every prime factor of m >= 1 is below B: trial division by
    every integer below B leaves 1."""
    for d in range(2, B):
        while m % d == 0:
            m //= d
    return m == 1


def naive_negative_pell(D):
    """Least positive (x, y) with x^2 - D y^2 = -1, or None if there is none.

    The plain continued fraction of sqrt(D) over its whole period: the
    convergent just before the period closes solves the equation exactly
    when the period is odd.
    """
    assert D >= 2
    a0 = math.isqrt(D)
    if a0 * a0 == D:
        return None
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    period = 0
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        period += 1
        if d == 1:
            return (h, k) if period % 2 == 1 else None
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k


def reconstruct(tf):
    """sign * prod(p^e) * cofactor of a sieve record: the value it claims for n^2 + b."""
    v = tf.cofactor
    for p, e in tf.factors:
        v *= p ** e
    return tf.sign * v


def naive_prime_flags(n):
    """Sieve of Eratosthenes: flags[k] == 1 exactly when k <= n is prime."""
    assert n >= 1
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def naive_prime_pi(flags, y):
    """pi(y) for 0 <= y < len(flags), by counting the sieve's prime flags."""
    return flags.count(1, 0, y + 1)


def naive_split_prime_count(b, x):
    """s of the Chebyshev split: the primes p < 2x dividing some n^2 + b, n <= x.

    p divides n^2 + b for some n <= x exactly when -b is a square mod p
    with a root in [1, x].  That is p = 2 (n = 1 or 2, x >= 2); an odd
    p | b, whose least root is p itself, when p <= x; and an odd p not
    dividing b with -b a nonzero square mod p (Euler's criterion), whose
    roots r and p - r put one below p / 2 < x.
    """
    assert x >= 2
    flags = naive_prime_flags(2 * x - 1)
    count = 1  # p = 2
    for p in range(3, 2 * x, 2):
        if flags[p]:
            if b % p == 0:
                count += p <= x
            else:
                count += pow(-b % p, (p - 1) // 2, p) == 1
    return count


def naive_chowla_todd_count(x):
    """#{2 <= m <= x : P+(m)^2 > 4m} by the counting identity.

    Such m are exactly m = p*s with p prime and p > 4s (p is then the
    largest prime factor), so the count is the sum over 4s^2 < x of
    pi(x/s) - pi(4s), with pi taken from the schoolbook sieve.
    """
    flags = naive_prime_flags(x)
    count = 0
    s = 1
    while 4 * s * s < x:
        count += naive_prime_pi(flags, x // s) - naive_prime_pi(flags, 4 * s)
        s += 1
    return count


def li(y):
    """Logarithmic integral li(y) = Ei(log y) for y > 1, by Ramanujan's series:

    li(y) = gamma + log log y
            + sqrt(y) * sum_{n>=1} (-1)^(n-1) L^n / (n! 2^(n-1))
                                   * sum_{0<=k<=(n-1)/2} 1/(2k+1),   L = log y.
    """
    assert y > 1
    L = math.log(y)
    total = 0.0
    term = -2.0   # becomes (-1)^(n-1) L^n / (n! 2^(n-1)) at step n
    inner = 0.0   # sum of 1/(2k+1) over 0 <= k <= (n-1)/2
    n = 0
    while True:
        n += 1
        term *= -L / (2 * n)
        if n % 2:
            inner += 1.0 / n
        add = term * inner
        total += add
        if n > L and abs(add) <= 1e-17 * abs(total):
            break
    return 0.5772156649015329 + math.log(L) + math.sqrt(y) * total


@pytest.fixture(scope="session")
def small_primes():
    return [p for p in range(2, 10001) if naive_is_prime(p)]
