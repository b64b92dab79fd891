import itertools
import math
from array import array

import pytest

from quadfactor import arith, constants, primitive, sieve, stats, stormer
from quadfactor.errors import CapExceededError

from conftest import naive_is_prime, naive_new_primes, naive_p_plus

B_POOL = (1, 2, 3, 5, 7, -2, -3)


def new_products(spec, x):
    """The first-hit kernel's new[i] for n = 1..x: the product of the primes new at n."""
    return [v for _, new in primitive._first_hits(spec, x) for v in new]


def test_definitional_hand_examples():
    b1 = {st.n: st for st in primitive.classify_definitional(arith.validate_b(1), 5)}
    assert not b1[3].has_primitive  # 10 = 2 * 5, both seen at n = 1, 2
    assert b1[5].has_primitive and b1[1].has_primitive
    # the naive scan's new primes: 2 at n = 1, 13 at n = 5 (26 = 2 * 13)
    assert naive_new_primes(1, 5) == [{2}, {5}, set(), {17}, {13}]
    bm2 = list(primitive.classify_definitional(arith.validate_b(-2), 1))
    assert bm2 == [primitive.PrimitiveStatus(1, False)]  # |1 - 2| = 1


def test_fast_hand_examples():
    b1 = new_products(arith.validate_b(1), 11)
    assert b1[3 - 1] == 1  # 10 = 2 * 5
    assert b1[4 - 1] == 17
    assert b1[8 - 1] == 1  # 65 = 5 * 13


def test_small_n_statuses_match_oracle():
    # the kernel has no n > |b| precondition: n <= |b| = 3 is classified too
    spec = arith.validate_b(3)
    want = naive_new_primes(3, 3)
    got = new_products(spec, 3)
    assert got == [math.prod(new) for new in want], got
    assert want == [{2}, {7}, {3}]  # 4 = 2^2, 7, 12 = 2^2 * 3


def test_rho_hand_examples():
    b1 = arith.validate_b(1)
    rep = primitive.rho(b1, 10)
    assert rep.checkpoints == [(10, 7, 0.7)]
    cen = primitive.non_primitive_census(b1, 10)
    assert cen.non_primitive == [3, 7, 8] and cen.count == 3
    assert primitive.non_primitive_census(b1, 1).non_primitive == []
    bm2 = arith.validate_b(-2)
    assert primitive.rho(bm2, 5).checkpoints[-1][1] == 3
    only = [n for n, v in enumerate(new_products(bm2, 5), 1) if v > 1]
    assert only == [2, 3, 5]


def test_definitional_prime_sets_match_naive():
    # cross-check the incremental scan against pure trial division; at
    # -1155 the kernel's root table covers n <= z = 19, and some n <= |b|
    # have several new primes
    for b in (1, -3, -1155):
        got = list(primitive.classify_definitional(arith.validate_b(b), 300))
        assert got == [(n, bool(new)) for n, new in enumerate(naive_new_primes(b, 300), 1)], b


def test_fast_agrees_with_definitional():
    # each new prime taken once at every n, n <= |b| included
    for b in B_POOL:
        spec = arith.validate_b(b)
        pairs = zip(naive_new_primes(b, 1200), new_products(spec, 1200), strict=True)
        for n, (new, v) in enumerate(pairs, 1):
            assert v == math.prod(new), (b, n)


def test_first_hit_lemma():
    # A prime p is new at n exactly when n is the least positive root of
    # m^2 + b == 0 (mod p).  For p | P_n that holds when p > 2n (the other
    # root p - n is larger), when n = 1, or when p = n divides b (the root
    # 0 first shows at m = p).  Otherwise a smaller positive root exists:
    # n - p when p < n, and p - n when n < p <= 2n (p = 2n forces n = 1).
    # So P_n has a primitive divisor exactly as below, for every n,
    # including n <= |b|.
    for b in range(-60, 61):
        if b <= 0 and math.isqrt(-b) ** 2 == -b:
            continue
        for n, new in enumerate(naive_new_primes(b, 2 * abs(b) + 60), 1):
            av = abs(n * n + b)
            lemma = ((av > 1 and naive_p_plus(av) > 2 * n)
                     or (n == 1 and av > 1)
                     or (naive_is_prime(n) and b % n == 0))
            assert bool(new) == lemma, (b, n)


def test_uniqueness_beyond_b():
    for b in B_POOL:
        for n, new in enumerate(naive_new_primes(b, 1200), 1):
            if n > abs(b):
                assert len(new) <= 1, (b, n)


def test_rho_methods_agree():
    marks = list(range(100, 2001, 100))
    for b in B_POOL:
        spec = arith.validate_b(b)
        oracle = []
        count = 0
        for n, new in enumerate(naive_new_primes(b, 2000), 1):
            count += bool(new)
            if n in marks:
                oracle.append((n, count, count / n))
        assert primitive.rho(spec, 2000, marks).checkpoints == oracle, b


def test_density_report_shape():
    spec = arith.validate_b(1)
    rep = primitive.rho(spec, 500, [100, 200, 500])
    xs = [r[0] for r in rep.checkpoints]
    counts = [r[1] for r in rep.checkpoints]
    assert xs == sorted(xs)
    assert counts == sorted(counts)  # rho nondecreasing
    assert all(0.0 <= r[2] <= 1.0 for r in rep.checkpoints)


def test_record_contract():
    # every result record: fields in this order, equal when built alike,
    # immutable, and shown as Name(field=value, ...)
    records = [
        (arith.SequenceSpec, {"b": 1}),
        (arith.RootSet, {"p": 5, "roots": (2, 3)}),
        (constants.AnalyticConstants,
         {"sigma": 1.5, "theta": 2.1, "alpha": 1.2, "beta": 3.4, "lower_bound": 1.2,
          "upper_bound": 1.5, "conjectural_sigma": 1.44, "theta_iterates": [2.0, 2.1],
          "residuals": {"sigma_equation": 0.0}}),
        (primitive.PrimitiveStatus, {"n": 4, "has_primitive": True}),
        (primitive.DensityReport, {"spec": arith.SequenceSpec(1), "checkpoints": [(2, 2, 1.0)]}),
        (primitive.CensusReport,
         {"spec": arith.SequenceSpec(1), "x": 10, "non_primitive": [3, 7, 8], "count": 3}),
        (sieve.TermFactorization, {"n": 3, "sign": 1, "factors": ((2, 1), (5, 1)), "cofactor": 1}),
        (stats.ChebyshevReport,
         {"x": 10, "K": 4.0, "log_Qx": 1.5, "sum_S": 1.0, "sum_Sprime": 0.5,
          "s": 3, "s_prime": 2, "t": 1, "u": 1}),
        (stats.NxHistogram, {"x": 10, "hits": array("q", [29]), "weighted": 3.4}),
        (stormer.PellSolution, {"D": 2, "k": 1, "x": 1, "y": 1}),
        (stormer.SmoothResult, {"B": 14, "solutions": [1, 2], "max_n": 2, "truncated_Ds": []}),
    ]
    for cls, fields in records:
        rec = cls(*fields.values())
        assert [getattr(rec, k) for k in fields] == list(fields.values()), cls
        assert rec == cls(**fields), cls
        assert repr(rec) == f"{cls.__name__}(" + ", ".join(
            f"{k}={v!r}" for k, v in fields.items()) + ")"
        for k in fields:
            with pytest.raises(AttributeError):
                setattr(rec, k, 0)
    assert repr(next(primitive.classify_definitional(arith.validate_b(1), 1))) == (
        "PrimitiveStatus(n=1, has_primitive=True)")


def test_rho_segment_length_independence(monkeypatch):
    spec = arith.validate_b(1)
    b = primitive.rho(spec, 5000, [1000, 5000])
    monkeypatch.setattr(sieve, "SEGMENT", 512)
    a = primitive.rho(spec, 5000, [1000, 5000])
    assert a.checkpoints == b.checkpoints


def _admissible(lo, hi):
    return [b for b in range(lo, hi + 1) if b > 0 or math.isqrt(-b) ** 2 != -b]


def test_kernel_matches_oracle_sweep(monkeypatch):
    # the new primes of every n, n <= |b| included, across segment lengths
    # that split the range anywhere (1, a small prime, 97, the real one).
    # At b = -75001 = -179 * 419 the root table runs to T = 317 for x >= 158
    # (z = 158 < x from 159 on) and to T = isqrt(x^2 + 75001) + 1 below, so
    # at x = 100 it holds primes above 2x; 419 > T is what the table primes
    # of b leave of |b|, a fallback prime from x = 419 on.
    lengths = (1, 37, 97, sieve.SEGMENT)
    pool = [(b, (1, 2, 7, 50, 700)) for b in _admissible(-150, 150)]
    for b, xs in pool + [(-75001, (100, 158, 159, 400, 418, 419, 420))]:
        spec = arith.validate_b(b)
        oracle = naive_new_primes(b, xs[-1])
        for x in xs:
            want = oracle[:x]
            counts = list(itertools.accumulate(bool(new) for new in want))
            rows = [(n, c, c / n) for n, c in enumerate(counts, 1)]
            non = [n for n, new in enumerate(want, 1) if not new]
            for seg in lengths:
                monkeypatch.setattr(sieve, "SEGMENT", seg)
                got = new_products(spec, x)
                assert got == [math.prod(new) for new in want], (b, x, seg)
                marks = range(1, x + 1)
                assert primitive.rho(spec, x, marks).checkpoints == rows
                cen = primitive.non_primitive_census(spec, x)
                assert (cen.non_primitive, cen.count) == (non, len(non)), (b, x, seg)


def test_kernel_needs_no_root_table(monkeypatch):
    # no root table past T: density and census build theirs to
    # T = isqrt(z^2 + |b|) + 1, z = min(isqrt(|b| // 3), x), read the primes
    # of b off it and meet every larger prime as a leftover, so nothing is
    # factored and no leftover goes to is_prime.  At b = -75001, x = 65537
    # the old limit L = isqrt(x^2 + |b|) + 1 would be 65538.
    x = 3000
    cases = {(1, x): 2, (-2, x): 2, (-1155, x): 39, (2 ** 31, 100): 46342,
             (-75001, 65537): 317}
    want = {}
    for b in (1, -2, -1155):
        non = [n for n, new in enumerate(naive_new_primes(b, x), 1) if not new]
        want[b] = (x - len(non), non)

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
    for (b, x), T in cases.items():
        spec = arith.validate_b(b)
        got = []
        for report in (primitive.rho, primitive.non_primitive_census):
            limits.clear()
            got.append(report(spec, x))
            assert limits == [T], (b, x, report.__name__)
        if b in want:
            count, non = want[b]
            assert got[0].checkpoints == [(x, count, count / x)], b
            assert (got[1].non_primitive, got[1].count) == (non, x - count), b


def test_kernel_validates_before_any_segment(monkeypatch):
    # every sieve report past the cap is refused by its kernel before a
    # prime table is built or |b| is factored
    def banned(m):
        raise AssertionError("kernel started")
    monkeypatch.setattr(arith, "factorize", banned)
    monkeypatch.setattr(arith, "primes_upto", banned)
    spec, cap = arith.validate_b(1), sieve.HI_CAP
    for report in (lambda: primitive.rho(spec, cap),
                   lambda: primitive.non_primitive_census(spec, cap),
                   lambda: stats.chebyshev_report(spec, cap),
                   lambda: stats.nx_histogram(spec, cap // 2 + 1),
                   lambda: list(sieve.sieve_range(spec, 1, cap + 1))):
        with pytest.raises(CapExceededError):
            report()
