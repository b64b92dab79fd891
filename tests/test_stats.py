import inspect
import math

import pytest

from quadfactor import arith, sieve, stats
from quadfactor.errors import (OutOfDomainError, PreconditionViolatedError,
                               WindowOutOfRangeError)
from quadfactor.sieve import SieveConfig

from conftest import (li, naive_chowla_todd_count, naive_factorize, naive_p_plus,
                      naive_prime_flags, naive_prime_pi)

# p = 2 and p | b, p^2 | b, b < 0 with negative terms; -73600 puts every
# n <= 156 in the sieve's oracle zone (3n^2 <= |b|).  chebyshev_report
# sieves to L = min(2x, isqrt(x^2 + |b|) + 1): 504 and 2204 have L < 2x at
# x = 77 and 600, 999999 has L = 2x for x <= 156 and L < 2x at 600.
ORACLE_POOL = (1, -2, 2, 12, -72, 15, -73600, 504, 2204, 999999)


def test_chebyshev_small_oracle():
    spec = arith.validate_b(1)
    rep = stats.chebyshev_report(spec, 10, 4.0)
    terms = [2, 5, 10, 17, 26, 37, 50, 65, 82, 101]
    oracle = sum(math.log(v) for v in terms)
    assert rep.log_Qx == pytest.approx(oracle, rel=1e-12)
    assert rep.log_Qx == pytest.approx(31.4155, abs=5e-4)
    assert rep.sum_S + rep.sum_Sprime == pytest.approx(rep.log_Qx, rel=1e-12)
    # S = {2, 5, 13, 17}, cofactor primes above 2x=20 are 37, 41, 101
    assert rep.s == 4 and rep.s_prime == 3
    assert rep.t == 1 and rep.u == 2  # K=4: only 37 sits in (20, 40)
    assert rep.sum_Sprime == pytest.approx(sum(math.log(p) for p in (37, 41, 101)), rel=1e-12)


def test_chebyshev_identity_and_partition():
    for b in (1, -2):
        spec = arith.validate_b(b)
        for x in (10 ** 3, 10 ** 4):
            rep = stats.chebyshev_report(spec, x, 4.0)
            assert abs(rep.sum_S + rep.sum_Sprime - rep.log_Qx) <= 1e-9 * abs(rep.log_Qx)
            assert rep.t + rep.u == rep.s_prime


def test_chebyshev_sieve_limit(monkeypatch):
    # below the cap a cofactor is below L^2, so it is one prime and nothing
    # is left for is_prime or factorize
    limits = []
    sieve_primes = sieve.sieve_primes
    monkeypatch.setattr(sieve, "sieve_primes",
                        lambda spec, limit: limits.append(limit) or sieve_primes(spec, limit))

    def banned(*args):
        raise AssertionError("cofactor split by arith")

    with monkeypatch.context() as m:
        m.setattr(arith, "is_prime", banned)
        m.setattr(arith, "factorize", banned)
        stats.chebyshev_report(arith.validate_b(1), 3000)
    assert limits == [3001]
    limits.clear()
    stats.chebyshev_report(arith.validate_b(2 ** 31), 100)
    assert limits == [200]  # isqrt(100^2 + 2^31) + 1 = 46342, capped at 2x


def test_chebyshev_preconditions():
    spec = arith.validate_b(1)
    with pytest.raises(PreconditionViolatedError):
        stats.chebyshev_report(spec, 1)
    with pytest.raises(PreconditionViolatedError):
        stats.chebyshev_report(spec, 100, K=2.0)


def test_sprime_primes_are_distinct_per_range():
    # a prime above 2x divides at most one term with n <= x, and only once
    spec = arith.validate_b(1)
    x = 500
    seen = set()
    for tf in sieve.sieve_range(spec, SieveConfig(1, x + 1, prime_limit=2 * x)):
        if tf.cofactor > 1:
            assert tf.cofactor not in seen
            seen.add(tf.cofactor)
            assert (tf.n * tf.n + 1) % (tf.cofactor ** 2) != 0


def test_nx_hand_example():
    spec = arith.validate_b(1)
    hist = stats.nx_histogram(spec, 5)
    assert dict(hist.counts) == {13: 2, 37: 1, 41: 1}
    assert hist.total == 4
    assert 2.5 < hist.total  # lower-bound shape x/2 < total at this size
    assert hist.weighted == pytest.approx(
        2 * math.log(13) + math.log(37) + math.log(41), rel=1e-12)


def test_nx_counts_at_most_two():
    for b, x in ((1, 100), (1, 1000), (2, 500), (-2, 500)):
        spec = arith.validate_b(b)
        hist = stats.nx_histogram(spec, x)
        assert hist.counts, (b, x)
        for p, c in hist.counts.items():
            assert p > 2 * x
            assert 1 <= c <= 2, (b, x, p)


def test_nx_against_direct_scan():
    # recount divisibility by brute force
    spec = arith.validate_b(1)
    x = 300
    hist = stats.nx_histogram(spec, x)
    direct = {}
    for n in range(x, 2 * x):
        for p, _ in arith.factorize(n * n + 1):
            if p >= 2 * x:
                direct[p] = direct.get(p, 0) + 1
    assert dict(hist.counts) == direct


def test_chebyshev_and_nx_match_naive_factorization():
    for b in ORACLE_POOL:
        spec = arith.validate_b(b)
        fac = {n: naive_factorize(abs(n * n + b)) for n in range(1, 1200)}
        for x in (2, 5, 77, 156, 600):
            exps = {}
            for n in range(1, x + 1):
                for p, e in fac[n]:
                    exps[p] = exps.get(p, 0) + e
            log_q = math.fsum(math.log(abs(n * n + b)) for n in range(1, x + 1)
                              if abs(n * n + b) > 1)
            S = [p for p in exps if p < 2 * x]
            Sp = [p for p in exps if p >= 2 * x]
            sum_s = math.fsum(exps[p] * math.log(p) for p in S)
            sum_sp = math.fsum(exps[p] * math.log(p) for p in Sp)
            counts = {}
            for n in range(x, 2 * x):
                for p, _ in fac[n]:
                    if p >= 2 * x:
                        counts[p] = counts.get(p, 0) + 1
            weighted = math.fsum(c * math.log(p) for p, c in counts.items())
            for seg in (97, sieve.DEFAULT_SEGMENT):
                for K in (2.5, 4.0):
                    rep = stats.chebyshev_report(spec, x, K, segment_size=seg)
                    t = sum(1 for p in Sp if p < K * x)
                    assert (rep.s, rep.s_prime, rep.t, rep.u) == (len(S), len(Sp), t,
                                                                  len(Sp) - t), (b, x, K)
                    for got, want in ((rep.log_Qx, log_q), (rep.sum_S, sum_s),
                                      (rep.sum_Sprime, sum_sp)):
                        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (b, x, K)
                hist = stats.nx_histogram(spec, x, segment_size=seg)
                assert hist.counts == counts, (b, x)
                assert hist.total == sum(counts.values())
                assert hist.weighted == pytest.approx(weighted, rel=1e-12, abs=1e-12)


def test_vx_examples():
    spec = arith.validate_b(1)
    assert stats.vx(spec, 5, 10) == 2
    # above 4x^2 + b no prime can divide any term
    assert stats.vx(spec, 5, 4 * 25 + 2) == 0
    with pytest.raises(WindowOutOfRangeError):
        stats.vx(spec, 5, 9)


def test_chowla_todd_hand_and_identity_oracle():
    count10, ratio10 = stats.chowla_todd_density(10)
    assert count10 == 2 and ratio10 == pytest.approx(0.2)
    assert stats.chowla_todd_density(2)[0] == 0

    # brute force at small x
    for x in (50, 500, 2000):
        brute = sum(1 for m in range(2, x + 1)
                    if naive_p_plus(m) ** 2 > 4 * m)
        assert stats.chowla_todd_density(x)[0] == brute, x

    # independent counting identity: pairs m = p*s with prime p > 4s
    x = 10 ** 5
    count, ratio = stats.chowla_todd_density(x)
    assert count == naive_chowla_todd_count(x) == 61466
    assert stats.chowla_todd_density(x, segment_size=97)[0] == 61466
    assert abs(ratio - math.log(2)) < 0.08


def test_li_and_prime_pi_oracles():
    # li(2) and li(10) to 16 digits; li(10^6) - pi(10^6) = 130 in the classical tables
    assert li(2) == pytest.approx(1.0451637801174928, rel=1e-14)
    assert li(10) == pytest.approx(6.1655995047872979, rel=1e-14)
    flags = naive_prime_flags(10 ** 6)
    assert [naive_prime_pi(flags, y) for y in (1, 2, 10, 100)] == [0, 1, 4, 25]
    assert naive_prime_pi(flags, 10 ** 6) == 78498
    assert round(li(10 ** 6) - 78498) == 130


def test_chowla_todd_segmenting_invariance():
    # one default segment length for every sieve: a 2^20-long segment costs
    # memory and cache for no change in the count
    for fn in (stats.chowla_todd_density, stats._chowla_todd_counts):
        assert inspect.signature(fn).parameters["segment_size"].default == sieve.DEFAULT_SEGMENT
    full, _ = stats.chowla_todd_density(30000, segment_size=1 << 20)
    assert stats.chowla_todd_density(30000, segment_size=997)[0] == full
    assert stats.chowla_todd_density(30000, segment_size=1)[0] == full


def test_chowla_ratio_improves_with_x():
    r4 = stats.chowla_todd_density(10 ** 4)[1]
    r5 = stats.chowla_todd_density(10 ** 5)[1]
    assert abs(r5 - math.log(2)) < abs(r4 - math.log(2))


def test_mertens_examples():
    assert stats.mertens_sum(10) == pytest.approx(1.0 / 2 + 1.0 / 3 + 1.0 / 5 + 1.0 / 7, rel=1e-15)
    assert stats.mertens_sum(3) == 0.5
    assert stats.mertens_sum(8) == pytest.approx(1.0 / 2 + 1.0 / 3 + 1.0 / 5 + 1.0 / 7)
    with pytest.raises(OutOfDomainError):
        stats.mertens_sum(2)


def test_mertens_drift_stabilizes():
    s5 = stats.mertens_sum(10 ** 5)
    s7 = stats.mertens_sum(10 ** 7)
    assert s5 == pytest.approx(2.705272179047264, rel=1e-12)
    assert s7 == pytest.approx(3.0414493812797105, rel=1e-12)
    d5 = s5 - math.log(math.log(10 ** 5))
    d7 = s7 - math.log(math.log(10 ** 7))
    assert abs(d5 - d7) < 0.01


def test_stats_thread_determinism():
    spec = arith.validate_b(1)
    a = stats.chebyshev_report(spec, 3000, 4.0, segment_size=256)
    b = stats.chebyshev_report(spec, 3000, 4.0)
    assert a == b
    ha = stats.nx_histogram(spec, 2000, segment_size=128)
    hb = stats.nx_histogram(spec, 2000)
    assert ha == hb
