import math
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from quadfactor import arith, primitive, sieve, stats
from quadfactor.errors import (OutOfDomainError, PreconditionViolatedError,
                               WindowOutOfRangeError)

from conftest import (li, naive_chowla_todd_count, naive_factorize, naive_new_primes,
                      naive_p_plus, naive_prime_flags, naive_prime_pi,
                      naive_split_prime_count)

# p = 2 and p | b, p^2 | b, b < 0 with negative terms; at -73600 every
# n <= 156 has 3n^2 <= |b|.  chebyshev_report's root table runs to
# T = isqrt(z^2 + |b|) + 1, z = min(isqrt(|b| // 3), x), so table primes
# >= 2x join S' when T > 2x: for 504 and 2204 at x <= 5, for -73600 and
# 999999 at x <= 156; all four have T < 2x at 600.  At b = 24, x = 2 the
# table prime 5 of 25 = 5^2 puts an exponent 2 into S'.  At b = 1281,
# z = 20 and 20^2 + b = 41^2 with 41 < T = 42: the table must reach 41.
# At b = -567 = -3^4 * 7, 3^4 | b: the exponent of 3 comes from the
# classes of 3^k scaled twice by 3.
ORACLE_POOL = (1, -2, 2, 12, -72, 15, 24, -73600, 504, 2204, 999999, 1281, -567)
# Chowla-Todd and Mertens marks; the prime sieve runs in segments of 2^18,
# so the last three straddle a segment edge
EDGE_MARKS = [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 17, 2 ** 18 - 1, 2 ** 18, 2 ** 18 + 1]


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


def test_rho_plus_extra_new_primes_is_the_prime_count():
    # Every prime of Q_x is new at exactly one n <= x, so rho_b(x) counts
    # the primes of Q_x, s + s', less E_b, the new primes beyond the first
    # at each n.  rho comes from the first-hit kernel, s + s' from
    # chebyshev_report, E_b from the naive oracle.
    pool = (1, -2, 7, 5, 24, 1000, -75001)
    extra = {}
    for b in pool:
        spec = arith.validate_b(b)
        for x in (100, 2000):
            rho = primitive.rho(spec, x).checkpoints[-1][1]
            rep = stats.chebyshev_report(spec, x)
            extra[b, x] = sum(max(0, len(new) - 1) for new in naive_new_primes(b, x))
            assert rho + extra[b, x] == rep.s + rep.s_prime, (b, x)
    # not vacuous: E_b > 0 for four of the seven b
    assert [extra[b, 2000] for b in pool] == [0, 0, 0, 1, 2, 5, 9]


def test_chebyshev_identity_and_partition():
    for b in (1, -2):
        spec = arith.validate_b(b)
        for x in (10 ** 3, 10 ** 4):
            rep = stats.chebyshev_report(spec, x, 4.0)
            assert abs(rep.sum_S + rep.sum_Sprime - rep.log_Qx) <= 1e-9 * abs(rep.log_Qx)
            assert rep.t + rep.u == rep.s_prime


def test_chebyshev_sieve_limit(monkeypatch):
    # the root table runs to T = isqrt(z^2 + |b|) + 1,
    # z = min(isqrt(|b| // 3), x), not to L = isqrt(x^2 + |b|) + 1 (65538 at
    # b = -75001, x = 65537): every larger prime is a leftover at its least
    # root, so nothing goes to is_prime and nothing is factored.  nx sieves
    # [x, 2x) to L = isqrt((2x - 1)^2 + |b|) + 1, which is 2x once
    # |b| < 4x - 1, and factors nothing either.
    cases = {(1, 3000): 2, (-2, 3000): 2, (-1155, 3000): 39, (2 ** 31, 100): 46342,
             (-75001, 65537): 317}  # isqrt(100^2 + 2^31) + 1 = 46342 > 2x
    nx_cases = {(1, 3000): 6000, (-2, 3000): 6000, (2 ** 31, 100): 46342,
                (-75001, 400): 845}

    def banned(*args):
        raise AssertionError("is_prime or factorize called")
    limits = []
    sieve_primes = sieve.sieve_primes

    def recorded(spec, limit):
        limits.append(limit)
        return sieve_primes(spec, limit)
    monkeypatch.setattr(arith, "is_prime", banned)
    monkeypatch.setattr(arith, "factorize", banned)
    monkeypatch.setattr(sieve, "sieve_primes", recorded)
    for report, table in ((stats.chebyshev_report, cases), (stats.nx_histogram, nx_cases)):
        for (b, x), T in table.items():
            limits.clear()
            report(arith.validate_b(b), x)
            assert limits == [T], (b, x, report.__name__)


def test_chebyshev_preconditions():
    spec = arith.validate_b(1)
    with pytest.raises(PreconditionViolatedError):
        stats.chebyshev_report(spec, 1)
    with pytest.raises(PreconditionViolatedError):
        stats.chebyshev_report(spec, 100, K=2.0)
    with pytest.raises(PreconditionViolatedError):  # NaN fails every comparison
        stats.chebyshev_report(spec, 100, K=float("nan"))
    with pytest.raises(PreconditionViolatedError):
        stats.chebyshev_report(spec, 100, K=float("inf"))


def test_sprime_primes_are_distinct_per_range():
    # a prime above 2x divides at most one term with n <= x, and only once
    spec = arith.validate_b(1)
    x = 500
    seen = set()
    for tf in sieve.sieve_range(spec, 1, x + 1):
        if tf.cofactor > 1:
            assert tf.cofactor not in seen
            seen.add(tf.cofactor)
            assert (tf.n * tf.n + 1) % (tf.cofactor ** 2) != 0


def test_nx_hand_example():
    spec = arith.validate_b(1)
    hist = stats.nx_histogram(spec, 5)
    assert Counter(hist.hits) == {13: 2, 37: 1, 41: 1}
    assert len(hist.hits) == 4
    assert 2.5 < len(hist.hits)  # lower-bound shape x/2 < total at this size
    assert hist.weighted == pytest.approx(
        2 * math.log(13) + math.log(37) + math.log(41), rel=1e-12)


def test_nx_counts_at_most_two():
    for b, x in ((1, 100), (1, 1000), (2, 500), (-2, 500)):
        spec = arith.validate_b(b)
        hist = stats.nx_histogram(spec, x)
        assert hist.hits, (b, x)
        for p, c in Counter(hist.hits).items():
            assert p > 2 * x
            assert 1 <= c <= 2, (b, x, p)


def test_nx_against_direct_scan():
    # recount divisibility by brute force
    spec = arith.validate_b(1)
    x = 300
    hist = stats.nx_histogram(spec, x)
    direct = [p for n in range(x, 2 * x) for p, _ in arith.factorize(n * n + 1) if p >= 2 * x]
    # ascending, each prime once per term it divides
    assert list(hist.hits) == sorted(direct)
    assert len(direct) > len(set(direct))  # some prime divides two terms


def test_chebyshev_and_nx_match_naive_factorization(monkeypatch):
    # both sides are math.fsum of the same float terms, so they are equal.
    # At b = -75001 = -179 * 419 chebyshev's root table runs to T = 317 once
    # x >= 158 (z = 158, and z < x from 159 on), and holds primes >= 2x at
    # x = 100; 419 > T is the leftover at its least root from x = 419 on.
    # At |b| near 2^31 nx's table primes above 2x have roots on both sides
    # of 2x.
    lengths = (97, sieve.SEGMENT)
    pool = [(b, (2, 5, 77, 156, 600)) for b in ORACLE_POOL]
    for b, xs in pool + [(-75001, (100, 158, 159, 400, 418, 419, 420)),
                         (2 ** 31, (2, 3, 100)), (-(2 ** 31 - 1), (2, 3, 100))]:
        spec = arith.validate_b(b)
        fac = {n: naive_factorize(abs(n * n + b)) for n in range(1, 2 * xs[-1])}
        for x in xs:
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
            for seg in lengths:
                monkeypatch.setattr(sieve, "SEGMENT", seg)
                for K in (2.5, 4.0):
                    rep = stats.chebyshev_report(spec, x, K)
                    t = sum(1 for p in Sp if p < K * x)
                    assert (rep.s, rep.s_prime, rep.t, rep.u) == (len(S), len(Sp), t,
                                                                  len(Sp) - t), (b, x, K)
                    assert (rep.log_Qx, rep.sum_S, rep.sum_Sprime) == (log_q, sum_s,
                                                                       sum_sp), (b, x, K)
                hist = stats.nx_histogram(spec, x)
                assert Counter(hist.hits) == counts, (b, x)
                assert len(hist.hits) == sum(counts.values())
                assert hist.weighted == weighted, (b, x)


def test_chebyshev_s_matches_the_split_prime_oracle():
    # s is the number of primes below 2x dividing Q_x, counted by Euler's
    # criterion.  At x = 1000 both primes of 1009 * 1013 lie in (x, 2x)
    # and divide no term, so s leaves them out; |b| near 2^31 puts table
    # primes above 2x at small x.
    for b in (1, -2, 7, 12, -72, -75001, 999999, 1009 * 1013, 2 ** 31, -(2 ** 31 - 1)):
        spec = arith.validate_b(b)
        for x in (2, 77, 1000) + ((10 ** 5,) if b in (1, -2, 7) else ()):
            assert stats.chebyshev_report(spec, x).s == naive_split_prime_count(b, x), (b, x)


def test_chebyshev_t_at_an_exact_boundary_and_a_huge_K():
    # 401 = 20^2 + 1 is an S' prime equal to Kx, with K = 401/128 exact in
    # binary: it belongs to u, since t counts the S' primes below Kx
    b, x, K = 1, 128, 401 / 128
    assert K == 3.1328125
    exps = {}
    for n in range(1, x + 1):
        for p, e in naive_factorize(n * n + b):
            exps[p] = exps.get(p, 0) + e
    Sp = [p for p in exps if p >= 2 * x]
    assert K * x == 401 and 401 in Sp
    rep = stats.chebyshev_report(arith.validate_b(b), x, K)
    t = sum(1 for p in Sp if p < 401)
    assert (rep.s_prime, rep.t, rep.u) == (len(Sp), t, len(Sp) - t)
    # Kx overflows to inf: every S' prime is below it, and nothing raises
    for b, x in ((1, 1000), (-73600, 200)):
        rep = stats.chebyshev_report(arith.validate_b(b), x, 1e308)
        assert rep.s_prime > 0 and (rep.t, rep.u) == (rep.s_prime, 0), (b, x)


def test_sums_are_correctly_rounded():
    # Cases where a compensated (Kahan) sum in ascending p is one unit off:
    # each report equals the exact rational sum of its float terms, rounded
    # once.
    b, x = 999999, 100
    exps = {}
    for n in range(1, x + 1):
        for p, e in naive_factorize(n * n + b):
            exps[p] = exps.get(p, 0) + e
    exact = float(sum(Fraction(e * math.log(p)) for p, e in exps.items() if p < 2 * x))
    assert stats.chebyshev_report(arith.validate_b(b), x).sum_S == exact == 650.8999062252159
    # nx at b = 10^9, x = 2: 2^2 + b = 2^2 * 41^2 * 148721, 3^2 + b = 1000000009
    exact = float(sum(Fraction(math.log(p)) for p in (41, 148721, 1000000009)))
    assert stats.nx_histogram(arith.validate_b(10 ** 9), 2).weighted == exact == 36.34666525906862


def test_vx_examples():
    hist = stats.nx_histogram(arith.validate_b(1), 5)
    assert stats.vx(hist, 10) == 2
    # above 4x^2 + b no prime can divide any term
    assert stats.vx(hist, 4 * 25 + 2) == 0
    with pytest.raises(WindowOutOfRangeError):
        stats.vx(hist, 9)


def test_vx_window_edges():
    # the window (v, e*v] is open below and closed above, and a prime
    # listed twice counts twice
    v = 10 ** 6 / math.e
    assert math.e * v == 10 ** 6
    hist = stats.NxHistogram(10, array("q", [20, 20, 23, 23, 59, 10 ** 6, 10 ** 6 + 1]), 0.0)
    assert stats.vx(hist, 20.0) == 2  # 23 twice; the hits at 20 = v are out
    assert stats.vx(hist, v) == 1  # 10^6 = e*v is in, 10^6 + 1 is out
    assert stats.vx(hist, 10 ** 6 - 1) == 2
    with pytest.raises(WindowOutOfRangeError):
        stats.vx(hist, 19.999)


def test_chowla_todd_hand_and_identity_oracle():
    count10, ratio10 = stats.chowla_todd_density(10)
    assert count10 == 2 and ratio10 == pytest.approx(0.2)
    assert stats.chowla_todd_density(2)[0] == 0

    # brute force at every x <= 10^4, independent of the counting identity,
    # from one call with a mark at each x
    xs = list(range(2, 10 ** 4 + 1))
    brute = 0
    for x, got in zip(xs, stats._chowla_todd_counts(xs)):
        brute += naive_p_plus(x) ** 2 > 4 * x
        assert got == brute, x

    # independent counting identity: pairs m = p*s with prime p > 4s; each
    # mark alone and all in one pass
    for x, got in zip(EDGE_MARKS, stats._chowla_todd_counts(EDGE_MARKS)):
        assert got == stats.chowla_todd_density(x)[0] == naive_chowla_todd_count(x), x
    x = 10 ** 5
    count, ratio = stats.chowla_todd_density(x)
    assert count == naive_chowla_todd_count(x) == 61466
    assert abs(ratio - math.log(2)) < 0.08


def test_li_and_prime_pi_oracles():
    # li(2) and li(10) to 16 digits; li(10^6) - pi(10^6) = 130 in the classical tables
    assert li(2) == pytest.approx(1.0451637801174928, rel=1e-14)
    assert li(10) == pytest.approx(6.1655995047872979, rel=1e-14)
    flags = naive_prime_flags(10 ** 6)
    assert [naive_prime_pi(flags, y) for y in (1, 2, 10, 100)] == [0, 1, 4, 25]
    assert naive_prime_pi(flags, 10 ** 6) == 78498
    assert round(li(10 ** 6) - 78498) == 130


def test_chowla_ratio_improves_with_x():
    r4 = stats.chowla_todd_density(10 ** 4)[1]
    r5 = stats.chowla_todd_density(10 ** 5)[1]
    assert abs(r5 - math.log(2)) < abs(r4 - math.log(2))


def test_mertens_matches_schoolbook_sieve():
    # the x of the direct Chowla-Todd checks, against math.fsum of 1/p over
    # the conftest sieve
    flags = naive_prime_flags(EDGE_MARKS[-1])
    recips = []
    for x in range(3, 10 ** 4 + 1):
        if flags[x - 1]:
            recips.append(1.0 / (x - 1))
        assert stats.mertens_sum(x) == math.fsum(recips), x
    for x in EDGE_MARKS:
        want = math.fsum(1.0 / p for p in range(x) if flags[p])
        assert stats.mertens_sum(x) == want, x


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


def test_stats_segment_length_independence(monkeypatch):
    # reports equal to the last bit at any segment length: adding up
    # per-segment partial sums would move log_Qx at x = 10^5 with 100 segments
    spec = arith.validate_b(1)
    b = stats.chebyshev_report(spec, 3000, 4.0)
    hb = stats.nx_histogram(spec, 2000)
    big = stats.chebyshev_report(spec, 10 ** 5)
    hbig = stats.nx_histogram(spec, 2 * 10 ** 4)
    monkeypatch.setattr(sieve, "SEGMENT", 256)
    assert stats.chebyshev_report(spec, 3000, 4.0) == b
    monkeypatch.setattr(sieve, "SEGMENT", 128)
    assert stats.nx_histogram(spec, 2000) == hb
    monkeypatch.setattr(sieve, "SEGMENT", 1000)
    assert stats.chebyshev_report(spec, 10 ** 5) == big
    assert stats.nx_histogram(spec, 2 * 10 ** 4) == hbig
