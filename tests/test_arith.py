import random

import pytest

from quadfactor import arith, sieve
from quadfactor.errors import NegativeSquareError, OutOfDomainError

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


def test_roots_mod_p_examples():
    assert arith._roots_mod_p(4, 5) == (2, 3)
    assert arith._roots_mod_p(12, 13) == (5, 8)
    assert arith._roots_mod_p(2, 3) == ()
    assert arith._roots_mod_p(0, 7) == (0,)
    assert arith._roots_mod_p(0, 5) == (0,)


def test_sieve_primes_hands_roots_mod_p_only_primes():
    # _roots_mod_p takes the primality of its modulus on trust; its one
    # caller, sieve_primes, hands it only primes
    for b in (1, -2, 15, -73600, 999999):
        moduli = [rs.p for rs in sieve.sieve_primes(arith.validate_b(b), 2000)]
        assert moduli and all(naive_is_prime(p) for p in moduli), b


def test_roots_mod_p_exhaustive_below_1000(small_primes):
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
            if p > 2 and a:
                assert len(want) == (2 if pow(a, (p - 1) // 2, p) == 1 else 0)


def test_roots_mod_p_euler_criterion_sampled(small_primes):
    rng = random.Random(1201)
    for p in small_primes:
        if p == 2:
            continue
        for a in {0, p - 1, *(rng.randrange(p) for _ in range(12))}:
            roots = arith._roots_mod_p(a, p)
            assert all(r * r % p == a for r in roots)
            expected = 1 if a == 0 else (2 if pow(a, (p - 1) // 2, p) == 1 else 0)
            assert len(roots) == expected


def test_roots_of_term_examples():
    # the roots of n^2 + b mod p are the square roots of -b
    assert arith._roots_mod_p(-1, 2) == (1,)
    assert arith._roots_mod_p(-1, 5) == (2, 3)
    assert arith._roots_mod_p(-1, 3) == ()


def test_roots_b1_nonempty_iff_1_mod_4(small_primes):
    for p in small_primes:
        roots = arith._roots_mod_p(-1, p)
        expect = (p == 2) or (p % 4 == 1)
        assert bool(roots) == expect, p
        for r in roots:
            assert (r * r + 1) % p == 0


def test_roots_cardinality_contract():
    # odd p | b gives the single root 0; odd p not dividing 2b gives 0 or 2
    assert arith._roots_mod_p(-15, 3) == (0,)
    assert arith._roots_mod_p(-15, 5) == (0,)
    assert len(arith._roots_mod_p(-15, 7)) in (0, 2)


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


def test_factorize_reconstructs_random_values(monkeypatch):
    calls = []
    factorize = arith.factorize

    def counted(m):
        calls.append(m)
        return factorize(m)
    monkeypatch.setattr(arith, "factorize", counted)
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
    # prime powers, a Carmichael number, and products of primes above the
    # Miller-Rabin bases up to a balanced 64-bit semiprime, which rho splits
    cases = [
        [(41, 7)],
        [(1000003, 2)],
        [(2 ** 31 - 1, 2)],
        [(5, 1), (7, 1), (17, 1), (19, 1), (73, 1)],  # 825265
        [(37, 3), (1000003, 1)],
        [(1000003, 1), (1000033, 1)],
        [(1048583, 1), (1048589, 1), (1048601, 1)],
        [(4294967279, 1), (4294967291, 1)],
    ]
    for want in cases:
        m = 1
        for p, e in want:
            m *= p ** e
        calls.clear()
        assert arith.factorize(m) == want
        assert calls == [m]  # one entry: no recursion through the module attribute


def test_factorize_takes_pieces_below_41_squared_as_prime(monkeypatch):
    # with the twelve Miller-Rabin base primes divided out, a piece below
    # 41^2 = 1681 has no prime factor up to 37 and must be prime
    tested = []
    is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda m: tested.append(m) or is_prime(m))
    for m in range(1, 5000):
        assert arith.factorize(m) == naive_factorize(m), m
    for m in (41 * 43 * 47, 41 ** 3 * 1009, 2 ** 5 * 37 * 1657 * 1667, 1681 * 1693):
        assert arith.factorize(m) == naive_factorize(m), m
    assert tested and min(tested) >= 41 * 41


def test_roots_mod_p_1_mod_8_matches_brute_force(small_primes):
    # the Tonelli-Shanks route, with its residuosity test by squarings of
    # a^q and its non-residue read off the reciprocity table
    for p in small_primes:
        if p >= 2000:
            break
        if p % 8 != 1:
            continue
        brute = {}
        for r in range(p):
            brute.setdefault(r * r % p, []).append(r)
        for a in range(p):
            assert arith._roots_mod_p(a, p) == tuple(brute.get(a, ())), (a, p)


def test_factorize_small_matches_naive():
    for m in range(1, 2000):
        assert arith.factorize(m) == naive_factorize(m)


def test_reciprocity_table_matches_euler_criterion():
    # for p == 1 (mod 4), z is a non-residue mod p exactly when p mod z is
    # not a square mod z; z = p (p = 17, 41) is no non-residue either way
    primes = [p for p in arith.primes_upto(10 ** 5) if p % 8 == 1]
    for z, squares in arith._SQUARES:
        assert naive_is_prime(z) and z % 2 == 1
        assert squares == {r * r % z for r in range(z)}
        for p in primes:
            assert (p % z not in squares) == (pow(z, (p - 1) // 2, p) == p - 1), (z, p)
    # and _non_residue returns the least non-residue, by Euler's criterion
    for p in primes:
        least = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        assert arith._non_residue(p) == least, p


def test_roots_mod_p_past_the_reciprocity_table():
    # the least p == 1 (mod 8) with every table z a residue (OEIS A000229),
    # so _non_residue must fall back to Euler's criterion
    p = 9257329
    assert naive_is_prime(p) and p % 8 == 1
    assert all(pow(z, (p - 1) // 2, p) == 1 for z, _ in arith._SQUARES)
    assert [z for z in range(2, 54) if pow(z, (p - 1) // 2, p) == p - 1] == [53]
    assert arith._non_residue(p) == 53
    # residues: p - 1 and 2 (p == 1 mod 8), 256 = 2^8 with a^q = 1, where
    # the Tonelli loop does not run, and 2, 3, 1013, whose a^q has order
    # 8 = 2^(s-1) (p - 1 = q 2^4), where it runs in full; non-residues:
    # 53 and 4 * 53; and a few more of each kind
    q = (p - 1) >> 4
    assert q % 2 == 1 and pow(256, q, p) == 1
    assert all(pow(a, 4 * q, p) == p - 1 for a in (2, 3, 1013))
    cases = (p - 1, 2, 3, 256, 1013, 53, 4 * 53, 123456, p - 53, 1234567)
    for a in cases:
        roots = arith._roots_mod_p(a, p)
        residue = pow(a, (p - 1) // 2, p) == 1
        assert len(roots) == (2 if residue else 0), a
        assert all(r * r % p == a for r in roots) and list(roots) == sorted(roots), a
    assert {len(arith._roots_mod_p(a, p)) for a in cases} == {0, 2}
