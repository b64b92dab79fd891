"""Randomized property suites, runnable standalone.

Four suites, each at least 10^4 cases: exact sieve reconstruction,
N_x(p) <= 2, the negative-Pell defining identity, and root-set
correctness.  Each run_* function returns the number of cases it
checked so the acceptance gate can audit the totals.
"""

import random
from collections import Counter
from math import isqrt
from unittest import mock

from quadfactor import arith, sieve, stats, stormer

from conftest import reconstruct
from test_stormer import pell_fundamental

SEED = 20260808


def _random_valid_b(rng):
    while True:
        b = rng.randrange(-10 ** 6, 10 ** 6)
        if b > 0:
            return b
        k = isqrt(-b)
        if b != 0 and k * k != -b:
            return b


def run_sieve_reconstruction(seed=SEED) -> int:
    rng = random.Random(seed)
    cases = 0
    for _ in range(40):
        b = _random_valid_b(rng)
        lo = rng.randrange(1, 10 ** 5)
        hi = lo + 256
        spec = arith.validate_b(b)
        with mock.patch.object(sieve, "SEGMENT", rng.choice((7, 64, 256))):
            terms = list(sieve.sieve_range(spec, lo, hi))
        for tf in terms:
            assert reconstruct(tf) == tf.n * tf.n + b, (b, tf.n)
            assert tf.factors == tuple(sorted(tf.factors))
            for p, e in tf.factors:
                assert e >= 1 and (tf.n * tf.n + b) % p ** e == 0
            cases += 1
    assert cases >= 10 ** 4
    return cases


def run_nx_at_most_two(seed=SEED) -> int:
    rng = random.Random(seed + 1)
    cases = 0
    while cases < 10 ** 4:
        b = rng.choice((1, 2, 5, -2, 7))
        x = rng.randrange(20, 4000)
        hist = stats.nx_histogram(arith.validate_b(b), x)
        for p, c in Counter(hist.hits).items():
            assert 1 <= c <= 2, (b, x, p)
            assert p > 2 * x
            cases += 1
    return cases


def run_pell_identity(seed=SEED) -> int:
    rng = random.Random(seed + 2)
    cases = 0
    D = 1
    while cases < 10 ** 4:
        D += rng.randrange(1, 4)
        # skip non-squarefree D
        sq = False
        for p in (2, 3, 5, 7, 11, 13):
            if D % (p * p) == 0:
                sq = True
                break
        if sq or isqrt(D) ** 2 == D:
            continue
        fund = pell_fundamental(D, digit_cap=400)
        if fund is None:
            continue
        x1, y1 = fund
        assert x1 * x1 - D * y1 * y1 == -1
        for sol in stormer.pell_solutions_odd(D, fund, 21, digit_cap=400):
            assert sol.x * sol.x - sol.D * sol.y * sol.y == -1, (D, sol.k)
            cases += 1
    return cases


def run_rootset_correctness(seed=SEED) -> int:
    rng = random.Random(seed + 3)
    primes = arith.primes_upto(30000)
    cases = 0
    while cases < 10 ** 4:
        b = _random_valid_b(rng)
        p = primes[rng.randrange(len(primes))]
        roots = arith._roots_mod_p(-b, p)
        for r in roots:
            assert 0 <= r < p
            assert (r * r + b) % p == 0, (b, p)
        if p == 2:
            assert len(roots) == 1
        elif (-b) % p == 0:
            assert roots == (0,)
        else:
            want = 2 if pow((-b) % p, (p - 1) // 2, p) == 1 else 0
            assert len(roots) == want, (b, p)
        if p <= 61:  # exhaustive cross-check for tiny moduli
            brute = tuple(n for n in range(p) if (n * n + b) % p == 0)
            assert roots == brute
        cases += 1
    return cases


def test_sieve_reconstruction_property():
    assert run_sieve_reconstruction() >= 10 ** 4


def test_nx_at_most_two_property():
    assert run_nx_at_most_two() >= 10 ** 4


def test_pell_identity_property():
    assert run_pell_identity() >= 10 ** 4


def test_rootset_correctness_property():
    assert run_rootset_correctness() >= 10 ** 4
