import random

import pytest

from quadfactor import arith
from quadfactor.errors import NegativeSquareError, NotPrimeError, OutOfDomainError

from conftest import naive_factorize, naive_is_prime, naive_p_plus


def test_validate_b_accepts_and_rejects():
    assert arith.validate_b(1).b == 1
    assert arith.validate_b(-2).b == -2
    with pytest.raises(NegativeSquareError):
        arith.validate_b(-4)
    with pytest.raises(NegativeSquareError):
        arith.validate_b(0)
    with pytest.raises(NegativeSquareError):
        arith.validate_b(-(46340 ** 2))  # largest square below the b cap
    with pytest.raises(OutOfDomainError):
        arith.validate_b(2 ** 31 + 1)


def test_term_examples():
    assert arith.term(arith.validate_b(1), 4) == 17
    assert arith.term(arith.validate_b(-2), 1) == -1
    assert arith.term(arith.validate_b(3), 10) == 103


def test_sqrt_mod_examples():
    assert arith.sqrt_mod(4, 5) == {2, 3}
    assert arith.sqrt_mod(12, 13) == {5, 8}
    assert arith.sqrt_mod(2, 3) == set()
    assert arith.sqrt_mod(0, 7) == {0}
    assert arith.sqrt_mod(0, 5) == {0}


def test_sqrt_mod_rejects_composite_modulus():
    with pytest.raises(NotPrimeError):
        arith.sqrt_mod(4, 15)


def test_sqrt_mod_euler_criterion_exhaustive_small(small_primes):
    # every residue for every prime below 1000, which covers each of the
    # three routes of _roots_mod_p (p = 3 mod 4, 5 mod 8, 1 mod 8), against
    # the roots found by squaring every r
    for p in small_primes:
        if p >= 1000:
            break
        brute = {}
        for r in range(p):
            brute.setdefault(r * r % p, []).append(r)
        for a in range(p):
            want = tuple(brute.get(a, ()))
            assert arith._roots_mod_p(a, p) == want, (a, p)
            assert arith._roots_mod_p(a - p, p) == want, (a - p, p)
            assert arith.sqrt_mod(a, p) == set(want)
            if p > 2 and a:
                assert len(want) == (2 if pow(a, (p - 1) // 2, p) == 1 else 0)


def test_sqrt_mod_euler_criterion_sampled(small_primes):
    rng = random.Random(1201)
    for p in small_primes:
        if p == 2:
            continue
        for a in {0, p - 1, *(rng.randrange(p) for _ in range(12))}:
            roots = arith.sqrt_mod(a, p)
            assert all(r * r % p == a for r in roots)
            expected = 1 if a == 0 else (2 if pow(a, (p - 1) // 2, p) == 1 else 0)
            assert len(roots) == expected


def test_roots_of_term_examples():
    b1 = arith.validate_b(1)
    assert arith.roots_of_term_mod_p(b1, 2).roots == (1,)
    assert arith.roots_of_term_mod_p(b1, 5).roots == (2, 3)
    assert arith.roots_of_term_mod_p(b1, 3).roots == ()


def test_roots_b1_nonempty_iff_1_mod_4(small_primes):
    b1 = arith.validate_b(1)
    for p in small_primes:
        rs = arith.roots_of_term_mod_p(b1, p)
        expect = (p == 2) or (p % 4 == 1)
        assert bool(rs.roots) == expect, p
        for r in rs.roots:
            assert (r * r + 1) % p == 0


def test_roots_cardinality_contract():
    # odd p | b gives the single root 0; odd p not dividing 2b gives 0 or 2
    b = arith.validate_b(15)
    assert arith.roots_of_term_mod_p(b, 3).roots == (0,)
    assert arith.roots_of_term_mod_p(b, 5).roots == (0,)
    assert len(arith.roots_of_term_mod_p(b, 7).roots) in (0, 2)


def test_is_prime_examples_and_oracle():
    assert arith.is_prime(101)
    assert not arith.is_prime(1)
    assert not arith.is_prime(91)
    for m in range(10 ** 4):
        assert arith.is_prime(m) == naive_is_prime(m), m
    # strong-pseudoprime classics
    assert not arith.is_prime(3215031751)
    assert not arith.is_prime(3825123056546413051)
    assert arith.is_prime(2 ** 61 - 1)


def test_p_plus_examples():
    assert arith.p_plus(50) == 5
    assert arith.p_plus(17) == 17
    with pytest.raises(OutOfDomainError):
        arith.p_plus(1)


def test_p_plus_matches_naive_factorization():
    for m in range(2, 10 ** 5 + 1):
        assert arith.p_plus(m) == naive_p_plus(m)


def test_factorize_reconstructs_random_values():
    rng = random.Random(77)
    for _ in range(300):
        m = rng.randrange(2, 10 ** 12)
        fac = arith.factorize(m)
        v = 1
        for p, e in fac:
            assert arith.is_prime(p)
            v *= p ** e
        assert v == m
        assert fac == sorted(fac)
    # a semiprime past the trial-division horizon
    m = 1000003 * 1000033
    assert arith.factorize(m) == [(1000003, 1), (1000033, 1)]


def test_factorize_small_matches_naive():
    for m in range(1, 2000):
        assert arith.factorize(m) == naive_factorize(m)
