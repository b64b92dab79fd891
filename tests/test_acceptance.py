"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The expensive reports
(rho and the Chebyshev split at x = 10^6, the N_x histograms) are built
once in session fixtures and shared; the determinism criterion rebuilds
them with sieve.SEGMENT patched to a prime (99991, so segment boundaries
fall away from the fixed 2^16) and byte-compares the rendered CSV.

Pinned regression numbers, where no comment names another source, were
produced by this implementation's first oracle run and are asserted to
1e-9 relative (floats) or exactly (ints).
"""

import math
import random
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import groupby

import pytest

from quadfactor import arith, constants, primitive, sieve, stats, stormer
from quadfactor.cli import _csv

from conftest import (li, naive_chowla_todd_count, naive_new_primes, naive_p_plus,
                      naive_prime_flags, naive_prime_pi, naive_split_prime_count)
from test_properties import (run_nx_at_most_two, run_pell_identity,
                             run_rootset_correctness, run_sieve_reconstruction)
from test_primitive import new_products
from test_stormer import smooth_square_plus_one_scan

B_POOL = (1, 2, 3, 5, 7, -2, -3)
LOG2 = math.log(2.0)

RHO_1E6 = 704537                 # pinned: rho_1(10^6)
CHEB_PINS = {                    # x -> (log_Qx/(2x ln x), sum_S'/(x ln x), s, s')
    10 ** 5: (0.913147467180306, 0.9072731158741894, 8978, 61802),
    10 ** 6: (0.9276181999798093, 0.9226110187401376, 74417, 630120),
}
NX_TOTALS = {10 ** 4: 7440, 10 ** 5: 73602}
VX_AT_2X_1E5 = 7907
# equal to the counting identity over a schoolbook sieve (naive_chowla_todd_count)
CHOWLA_COUNTS = {10 ** 5: 61466, 10 ** 6: 630509, 10 ** 7: 6410996}


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


@pytest.fixture(scope="session")
def spec1():
    return arith.validate_b(1)


@pytest.fixture(scope="session")
def rho_1e6(spec1):
    marks = [i * 10 ** 5 for i in range(1, 11)]
    t0 = time.time()
    rep = primitive.rho(spec1, 10 ** 6, marks)
    return rep, time.time() - t0


@pytest.fixture(scope="session")
def cheb(spec1):
    out = {}
    for x in (10 ** 5, 10 ** 6):
        out[x] = stats.chebyshev_report(spec1, x, 4.0)
    return out


@pytest.fixture(scope="session")
def chowla_1e7():
    t0 = time.time()
    count, ratio = stats.chowla_todd_density(10 ** 7)
    return count, ratio, time.time() - t0


@pytest.fixture(scope="session")
def nx_hists(spec1):
    return {x: stats.nx_histogram(spec1, x) for x in (10 ** 4, 10 ** 5)}


def test_criterion_1_fast_definitional_equivalence():
    """Fast and definitional classification agree for |b| < n <= 5000: the
    kernel's product of new primes at n is the product of the primes that
    the trial-division scan finds new at n."""
    t0 = time.time()
    for b in B_POOL:
        pairs = zip(naive_new_primes(b, 5000), new_products(arith.validate_b(b), 5000),
                    strict=True)
        for n, (new, v) in enumerate(pairs, 1):
            if n > abs(b):
                assert v == math.prod(new), (b, n)
    dt = time.time() - t0
    assert _report(1, dt < 30.0,
                   f"equivalence exact for b in {B_POOL}, n <= 5000, in {dt:.1f}s (< 30s)")


def test_criterion_2_hand_censuses(spec1):
    rep = primitive.rho(spec1, 10)
    cen = primitive.non_primitive_census(spec1, 10)
    bm2 = arith.validate_b(-2)
    rep2 = primitive.rho(bm2, 5)
    ok = (rep.checkpoints[-1][1] == 7 and cen.non_primitive == [3, 7, 8]
          and rep2.checkpoints[-1][1] == 3)
    assert _report(2, ok, f"rho_1(10)={rep.checkpoints[-1][1]}, "
                          f"non-primitive={cen.non_primitive}, rho_-2(5)={rep2.checkpoints[-1][1]}")


def test_criterion_3_density_bounds_at_1e6(rho_1e6):
    rep, dt = rho_1e6
    x, count, ratio = rep.checkpoints[-1]
    assert x == 10 ** 6
    assert count == RHO_1E6
    ok = 0.5324 < ratio < 0.905 and dt < 120.0
    assert _report(3, ok, f"rho(1e6)/1e6 = {ratio:.6f} in (0.5324, 0.905), "
                          f"{dt:.1f}s single-threaded (< 120s)")
    # census regression recorded at the same size: (x - rho)/(x / ln x) >= 1
    reg = (x - count) * math.log(x) / x
    assert reg >= 1.0
    assert reg == pytest.approx(4.081972195987798, rel=1e-9)


def test_criterion_3_rho_is_the_prime_count_of_Q_x(rho_1e6, cheb):
    # Every prime of Q_x is new at exactly one n <= x, so
    # rho_b(x) + E_b = s + s', with E_b the new primes beyond the first at
    # each n.  rho comes from the first-hit kernel, s + s' from chebyshev's
    # first-hit scan: 704537 = 74417 + 630120 at x = 10^6.
    e_1 = 0  # b = 1 has z = 0, and P_1 = 2 at the one fallback root
    rep = cheb[10 ** 6]
    assert rho_1e6[0].checkpoints[-1][1] + e_1 == rep.s + rep.s_prime == RHO_1E6
    # s alone against Euler's criterion over a schoolbook sieve to 2x
    assert rep.s == naive_split_prime_count(1, 10 ** 6)


@pytest.mark.slow
def test_criterion_3_slow_identity_and_sampled_census_at_1e7(spec1):
    """The identity of criterion 3 at x = 10^7, rho_1(x) + E_1 = s + s', with
    rho from the census, s from Euler's criterion over a schoolbook sieve
    and s' from chebyshev's scan; and the census checked n by n on 200
    seeded n in [10^6, 10^7).  For b = 1, z = 0 (no n has 3n^2 <= |b|), so by
    the first-hit lemma an n > 1 is in the census exactly when
    P+(n^2 + 1) <= 2n, which trial division decides."""
    x = 10 ** 7
    t0 = time.time()
    non = primitive.non_primitive_census(spec1, x).non_primitive
    rho = x - len(non)
    e_1 = 0  # as in criterion 3
    s = naive_split_prime_count(1, x)
    s_prime = stats.chebyshev_report(spec1, x).s_prime
    wrong = []
    members = 0
    for n in random.Random(1).sample(range(10 ** 6, x), 200):
        i = bisect_left(non, n)
        listed = i < len(non) and non[i] == n
        members += listed
        if listed != (naive_p_plus(n * n + 1) <= 2 * n):
            wrong.append(n)
    dt = time.time() - t0
    ok = rho + e_1 == s + s_prime and not wrong
    _report("3 (slow, identity @ 1e7)", ok,
            f"rho + E_1 = {rho} = s + s' = {s} + {s_prime}; census matches "
            f"P+(n^2 + 1) <= 2n on 200 seeded n ({members} listed); {dt:.1f}s")
    assert rho + e_1 == s + s_prime
    assert wrong == []
    assert 0 < members < 200  # the sample holds both kinds of n


def test_criterion_4_analytic_constants():
    sigma = constants.solve_sigma()
    theta, seq = constants.solve_theta()
    alpha, beta = constants.solve_alpha_beta()
    assert abs(sigma - 1.202468) <= 1e-6
    assert abs(theta - 1.766249) <= 1e-6
    assert abs(beta - 1.52383) <= 1e-5
    assert seq[1] == 1.75
    assert 2 * sigma - 1.5 < 0.905
    assert 2 * theta - 3 > 0.5324
    # closed form vs integral system to 1e-9: quadrature of both window
    # integrals at the closed-form point reproduces the defining values
    q1 = constants.quad_adaptive(lambda t: 2.0 / (t - 1.0), alpha, beta)
    q2 = constants.quad_adaptive(lambda t: 2.0 * t / (t - 1.0), alpha, beta)
    assert abs(q1 - LOG2) < 1e-9 and abs(q2 - 1.0) < 1e-9
    assert _report(4, True, f"sigma={sigma:.7f}, theta={theta:.7f}, beta={beta:.6f}, "
                            f"a_2={seq[1]}, bounds=({2*theta-3:.6f}, {2*sigma-1.5:.6f})")


def test_criterion_5_chebyshev_identity_and_ratios(cheb):
    for b in (1, -2):
        spec = arith.validate_b(b)
        for x in (10 ** 3, 10 ** 4, 10 ** 5):
            if b == 1 and x == 10 ** 5:
                rep = cheb[x]
            else:
                rep = stats.chebyshev_report(spec, x, 4.0)
            err = abs(rep.sum_S + rep.sum_Sprime - rep.log_Qx) / abs(rep.log_Qx)
            assert err <= 1e-9, (b, x, err)
    ratios = {}
    for x in (10 ** 5, 10 ** 6):
        rep = cheb[x]
        a = rep.log_Qx / (2 * x * math.log(x))
        sp = rep.sum_Sprime / (x * math.log(x))
        assert 0.9 <= a <= 1.1, (x, a)
        assert 0.8 <= sp <= 1.2, (x, sp)
        pa, psp, ps, psprime = CHEB_PINS[x]
        assert a == pytest.approx(pa, rel=1e-9)
        assert sp == pytest.approx(psp, rel=1e-9)
        assert rep.s == ps and rep.s_prime == psprime
        ratios[x] = (a, sp)
    assert abs(ratios[10 ** 6][0] - 1) < abs(ratios[10 ** 5][0] - 1)
    assert abs(ratios[10 ** 6][1] - 1) < abs(ratios[10 ** 5][1] - 1)
    assert _report(5, True, "identity exact to 1e-9 for b in {1,-2}, x up to 1e5; "
                            f"ratios {ratios[10**5][0]:.6f} -> {ratios[10**6][0]:.6f} "
                            f"and {ratios[10**5][1]:.6f} -> {ratios[10**6][1]:.6f} toward 1")


def test_criterion_6_nx_bounds(spec1, nx_hists):
    small = stats.nx_histogram(spec1, 5)
    assert Counter(small.hits) == {13: 2, 37: 1, 41: 1} and len(small.hits) == 4
    for x, hist in nx_hists.items():
        assert len(hist.hits) == NX_TOTALS[x]
        assert 0.5 < len(hist.hits) / x < 1.0, (x, len(hist.hits))
        for c in Counter(hist.hits).values():
            assert c <= 2
    V = stats.vx(nx_hists[10 ** 5], 2 * 10 ** 5)
    assert V == VX_AT_2X_1E5
    assert 0.5 <= V * math.log(2 * 10 ** 5) / 10 ** 5 <= 1.5
    assert _report(6, True, f"x=5 counts exact; totals/x = "
                            f"{NX_TOTALS[10**4]/10**4:.4f}, {NX_TOTALS[10**5]/10**5:.4f} in (0.5, 1.0); "
                            f"V_x(2x) log(2x)/x = {V * math.log(2e5) / 1e5:.4f}")


def test_criterion_7_chowla_todd_counts_and_trend(chowla_1e7):
    t0 = time.time()
    assert stats.chowla_todd_density(10)[0] == 2
    diffs = {}
    for x in (10 ** 5, 10 ** 6, 10 ** 7):
        count, ratio = chowla_1e7[:2] if x == 10 ** 7 else stats.chowla_todd_density(x)
        assert count == CHOWLA_COUNTS[x]
        diffs[x] = abs(ratio - LOG2)
    dt = time.time() - t0 + chowla_1e7[2]  # the 10^7 count is timed in the fixture
    assert diffs[10 ** 7] < diffs[10 ** 6] < diffs[10 ** 5]
    assert dt < 120.0
    assert _report(7, True, f"count(10)=2; |ratio - log 2| improves "
                            f"{diffs[10**5]:.4f} -> {diffs[10**6]:.4f} -> {diffs[10**7]:.4f}; "
                            f"{dt:.1f}s (< 120s)")


def test_criterion_7_ratio_tolerance_at_1e7(small_primes, chowla_1e7):
    """Chowla-Todd at x = 10^7: exact count and a theorem-backed band.

    A fixed tolerance around log 2 cannot hold here: the deficit
    |ratio - log 2| is 0.0520476 at 10^7 and shrinks only like c / log x
    (c from 0.90 at 10^5 to 0.82 at 10^8).  By identity counts it first
    drops below 0.05 between 1.6e7 (0.0503807) and 1.8e7 (0.0499521),
    and is 0.0447805 at 10^8.  So the ratio is checked against
    references built without the package:

    (a) the count equals the counting identity
        C(x) = sum_{4s^2 < x} (pi(x/s) - pi(4s)),
        with pi from the schoolbook sieve in conftest;
    (b) |ratio - R(x)| < eps(x), where
        R(x) = (1/x) sum_{4s^2 < x} (li(x/s) - pi(4s))
        is the prime number theorem expectation of the ratio and
        eps(x) = (1/x) sum_{4s^2 < x} sqrt(x/s) log(x/s) / (8 pi)
        bounds the error term by term through Schoenfeld's
        |pi(y) - li(y)| < sqrt(y) log y / (8 pi) for y >= 2657
        (Math. Comp. 30, 1976; proved there under RH, and shown to hold
        unconditionally far beyond 10^7 by Büthe, Math. Comp. 85, 2016).
        Every x/s here is at least 6325, and pi(4s) <= pi(6324) is
        counted exactly in small_primes.
    """
    x = 10 ** 7
    count, ratio, _ = chowla_1e7
    ident = naive_chowla_todd_count(x)

    s_max = math.isqrt((x - 1) // 4)  # largest s with 4 s^2 < x
    assert x / s_max >= 2657 and 4 * s_max <= small_primes[-1]
    R = eps = 0.0
    for s in range(1, s_max + 1):
        y = x / s
        R += li(y) - bisect_right(small_primes, 4 * s)
        eps += math.sqrt(y) * math.log(y) / (8 * math.pi)
    R /= x
    eps /= x

    ok = count == ident and abs(ratio - R) < eps
    _report("7 (band @ 1e7)", ok,
            f"count {count} = identity {ident}; ratio {ratio:.7f}, "
            f"R = {R:.6f}, |ratio - R| = {abs(ratio - R):.6f} vs eps = {eps:.6f}; "
            f"|ratio - log 2| = {abs(ratio - LOG2):.7f}")
    assert count == ident
    assert abs(ratio - R) < eps


@pytest.mark.slow
def test_criterion_7_slow_ratio_band_at_1e8():
    """The checks of the 10^7 band at x = 10^8: the count against the
    counting identity, and |ratio - R(x)| < eps(x) built the same way.
    pi(4s) reaches 4 * 4999 = 19996, past small_primes, so it is counted
    in the schoolbook sieve."""
    x = 10 ** 8
    count, ratio = stats.chowla_todd_density(x)
    ident = naive_chowla_todd_count(x)

    s_max = math.isqrt((x - 1) // 4)  # largest s with 4 s^2 < x
    flags = naive_prime_flags(4 * s_max)
    assert x / s_max >= 2657
    R = eps = 0.0
    for s in range(1, s_max + 1):
        y = x / s
        R += li(y) - naive_prime_pi(flags, 4 * s)
        eps += math.sqrt(y) * math.log(y) / (8 * math.pi)
    R /= x
    eps /= x

    ok = count == ident and abs(ratio - R) < eps
    _report("7 (slow, band @ 1e8)", ok,
            f"count {count} = identity {ident}; ratio {ratio:.7f}, "
            f"R = {R:.6f}, |ratio - R| = {abs(ratio - R):.6f} vs eps = {eps:.6f}")
    assert count == ident
    assert abs(ratio - R) < eps


def test_criterion_8_stormer():
    t0 = time.time()
    expected = {3: [1], 6: [1, 2, 3, 7], 14: [1, 2, 3, 5, 7, 8, 18, 57, 239]}
    for B, want in expected.items():
        res = stormer.stormer_search(B)
        assert res.solutions == want, B
        assert res.solutions == smooth_square_plus_one_scan(B, 10 ** 7), B
    dt = time.time() - t0
    assert _report(8, dt < 60.0, f"B=3,6,14 match the scan oracle exactly in {dt:.1f}s (< 60s)")


@pytest.mark.slow
def test_criterion_8_slow_B101():
    res = stormer.stormer_search(101)
    assert _report("8 (slow, B=101)", res.max_n == 24208144,
                   f"max n = {res.max_n}, {len(res.solutions)} solutions")
    assert res.max_n == 24208144


def test_criterion_9_parallel_determinism(spec1, rho_1e6, cheb, nx_hists, monkeypatch):
    marks = [i * 10 ** 5 for i in range(1, 11)]
    seg = 99991  # prime, so segment boundaries differ from the fixed 2^16
    assert seg != sieve.SEGMENT  # the fixtures ran at the real length
    monkeypatch.setattr(sieve, "SEGMENT", seg)
    rho_seg = primitive.rho(spec1, 10 ** 6, marks)
    header = ["x", "rho", "ratio"]
    a = _csv([list(r) for r in rho_1e6[0].checkpoints], header).encode()
    b = _csv([list(r) for r in rho_seg.checkpoints], header).encode()
    assert a == b

    c_seg = stats.chebyshev_report(spec1, 10 ** 6, 4.0)
    hdr = ["x", "K", "log_Qx", "sum_S", "sum_Sprime", "s", "sprime", "t", "u"]
    row = lambda r: [r.x, r.K, r.log_Qx, r.sum_S, r.sum_Sprime, r.s, r.s_prime, r.t, r.u]
    assert _csv([row(cheb[10 ** 6])], hdr).encode() == _csv([row(c_seg)], hdr).encode()

    n_seg = stats.nx_histogram(spec1, 10 ** 5)
    render = lambda h: _csv([[p, len(list(g))] for p, g in groupby(h.hits)],
                            ["p", "count"]).encode()
    assert render(nx_hists[10 ** 5]) == render(n_seg)
    assert _report(9, True, "rho(1e6), chebyshev(1e6), nx(1e5) CSVs byte-identical "
                            f"at segment sizes 2^16 and {seg}")


def test_criterion_10_property_suites():
    t0 = time.time()
    counts = {
        "sieve reconstruction": run_sieve_reconstruction(),
        "N_x(p) <= 2": run_nx_at_most_two(),
        "Pell identity": run_pell_identity(),
        "root sets": run_rootset_correctness(),
    }
    dt = time.time() - t0
    ok = all(c >= 10 ** 4 for c in counts.values()) and dt < 60.0
    assert _report(10, ok, f"cases {counts} in {dt:.1f}s (< 60s total)")
