import math
import random
from unittest import mock

import pytest

from quadfactor import arith, cli, sieve, stats
from quadfactor.errors import CapExceededError, OutOfDomainError

from conftest import naive_factorize, naive_is_prime, naive_p_plus, reconstruct

B_POOL = (1, 2, 3, 5, 7, -2, -3)
# p = 2, primes dividing b, p^2 | b (12, -72, 45, 2^10 * 3), the 2-adic
# lift at b == 7 (mod 8) and scaled by 2 (7, 28 = 4 * 7), and 3^4 | b
# (-567 = -3^4 * 7)
LIFT_POOL = (1, -2, 12, -72, 45, 2 ** 10 * 3, -1155, 7, 28, -567)


def _run(b, lo, hi):
    return list(sieve.sieve_range(arith.validate_b(b), lo, hi))


def _dump(b, x):
    """The `sieve` dump's terms: n = 1..x."""
    return _run(b, 1, x + 1)


def _run_at(seg, b, lo, hi):
    """_run with the segment length patched to seg."""
    with mock.patch.object(sieve, "SEGMENT", seg):
        return _run(b, lo, hi)


def test_sieve_primes_examples():
    b1 = arith.validate_b(1)
    assert [rs.p for rs in sieve.sieve_primes(b1, 20)] == [2, 5, 13, 17]
    assert [rs.p for rs in sieve.sieve_primes(b1, 3)] == [2]
    bm2 = arith.validate_b(-2)
    assert [rs.p for rs in sieve.sieve_primes(bm2, 10)] == [2, 7]
    assert sieve.sieve_primes(bm2, 10)[1].roots == (3, 4)


def test_sieve_primes_are_the_nonempty_root_sets(monkeypatch):
    # the prime list is trusted, so no primality test runs per prime;
    # the roots are checked against every residue mod p
    def no_is_prime(m):
        raise AssertionError("sieve_primes called is_prime")
    primes = [p for p in range(2, 501) if naive_is_prime(p)]
    for b in B_POOL + (15, -73600):
        spec = arith.validate_b(b)
        want = [(p, tuple(n for n in range(p) if (n * n + b) % p == 0)) for p in primes]
        with monkeypatch.context() as m:
            m.setattr(arith, "is_prime", no_is_prime)
            got = sieve.sieve_primes(spec, 500)
        assert got == [(p, roots) for p, roots in want if roots], b


def test_sieve_range_hand_examples():
    rows = {tf.n: tf for tf in _run(1, 1, 11)}
    assert rows[7].factors == ((2, 1), (5, 2)) and rows[7].cofactor == 1
    assert rows[10].factors == () and rows[10].cofactor == 101
    assert rows[5].factors == ((2, 1), (13, 1)) and rows[5].cofactor == 1

    only = _run(1, 1, 2)
    assert only[0].factors == ((2, 1),) and only[0].cofactor == 1

    unit = _dump(-2, 1)[0]
    assert unit.sign == -1 and unit.factors == () and unit.cofactor == 1


def test_reconstruction_identity():
    for b in B_POOL:
        for tf in _dump(b, 10 ** 5):
            assert reconstruct(tf) == tf.n * tf.n + b, (b, tf)


def test_p_plus_of_matches_oracle():
    # P+ read off each factorization: the cofactor if any, else the top prime
    for b in (1, -2):
        for tf in _dump(b, 10 ** 4):
            av = abs(tf.n * tf.n + b)
            if av > 1:
                pp = tf.cofactor if tf.cofactor > 1 else tf.factors[-1][0]
                assert pp == naive_p_plus(av), (b, tf.n)
            else:
                assert tf.factors == () and tf.cofactor == 1


def test_segment_independence():
    base = _run_at(2000, 1, 1, 2001)
    for seg in (1, 64, 4096):
        assert _run_at(seg, 1, 1, 2001) == base
    basem = _run_at(1000, -3, 1, 1001)
    for seg in (1, 64, 4096):
        assert _run_at(seg, -3, 1, 1001) == basem


def test_short_segment_matches_default_length():
    # over 20,000 terms, many 1024-term segments against the default 2^16
    assert _run_at(1024, 1, 1, 20001) == _dump(1, 20000)


def test_cofactor_prime_when_limit_covers_range():
    rng = random.Random(4242)
    rows = _dump(3, 10 ** 5)
    picks = rng.sample(range(len(rows)), 10 ** 4)
    for i in picks:
        tf = rows[i]
        if tf.cofactor > 1:
            assert tf.cofactor > 2 * 10 ** 5 + 2  # above the limit
            assert arith.is_prime(tf.cofactor)
        for p, _ in tf.factors:
            assert p <= 2 * (10 ** 5 + 1)


def test_dump_factors_the_zone_by_sieving_alone(monkeypatch):
    # The dump sieves to 2(x + 1), and at n <= z = min(isqrt(|b| // 3), x)
    # also the primes in (2(x + 1), T] at their roots r <= z; what that
    # leaves of a zone row is one prime above T, moved into its factors.
    # Rows past z keep a cofactor 1 or one prime above 2(x + 1).  At
    # x = 49 and (-75001, 100) (T = 292) those primes hit zone rows, and
    # rows z = 49 at 10^9 (5573 * 179437) and z = 100 at -(2^31 - 1)
    # (271 * 26681) hold two primes above 2(x + 1).  Zone rows are checked
    # by trial division only at n <= 50 and within 20 of z.
    def banned(*args):
        raise AssertionError("is_prime or factorize called")
    cases = ((10 ** 9, 49), (10 ** 9, 18277), (-(10 ** 9 + 7), 49), (-(10 ** 9 + 7), 18277),
             (-75001, 100), (-75001, 200), (2 ** 31, 26774), (-(2 ** 31 - 1), 100),
             (-(2 ** 31 - 1), 26774))
    for b, x in cases:
        with monkeypatch.context() as m:
            m.setattr(arith, "factorize", banned)
            m.setattr(arith, "is_prime", banned)
            rows = _dump(b, x)
        z = min(math.isqrt(abs(b) // 3), x)
        for tf in rows:
            assert reconstruct(tf) == tf.n * tf.n + b, (b, x, tf.n)
            if tf.n > z:
                assert all(p <= 2 * (x + 1) for p, _ in tf.factors), (b, x, tf.n)
                c = tf.cofactor
                assert c == 1 or c > 2 * (x + 1) and naive_is_prime(c), (b, x, tf.n)
            else:
                assert tf.cofactor == 1, (b, x, tf.n)
                if tf.n <= 50 or z - tf.n <= 20:
                    want = tuple(naive_factorize(abs(tf.n * tf.n + b)))
                    assert tf.factors == want, (b, x, tf.n)


def test_kernels_refuse_the_cap_and_a_limit_below_2():
    # the range itself is the caller's to check; both kernels refuse an n
    # past the cap, and sieve_primes a limit below 2.  sieve_range sieves
    # to twice the last n of its range and slice_range to about that n, so
    # both are only run past the cap, and the last n in on _check_cap.
    spec = arith.validate_b(1)
    with pytest.raises(CapExceededError, match="^n = 1000000000 exceeds the cap 999999999$"):
        next(sieve.sieve_range(spec, 1, 10 ** 9 + 1))
    with pytest.raises(OutOfDomainError):
        sieve.sieve_primes(spec, 1)
    sieve._check_cap(10 ** 9)  # n = 999999999 is in
    with pytest.raises(CapExceededError, match="^n = 1000000001 exceeds the cap 999999999$"):
        stats.nx_histogram(spec, 5 * 10 ** 8 + 1)  # [x, 2x) ends at n = 10^9 + 1


def test_csv_dump_format(capsys):
    # the `sieve` dump is the sieve's records rendered by cli._csv
    assert cli.main(["sieve", "--b", "1", "--x", "8"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n,sign,factors,cofactor", "1,1,2^1,1", "2,1,5^1,1", "3,1,2^1 5^1,1",
        "4,1,17^1,1", "5,1,2^1 13^1,1", "6,1,,37", "7,1,2^1 5^2,1", "8,1,5^1 13^1,1"]
    assert cli.main(["sieve", "--b", "-3", "--x", "30"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(n) for n, _, _, _ in rows] == list(range(1, 31))
    for n, sign, factors, cof in rows:
        v = int(cof)
        for pe in factors.split():
            p, e = pe.split("^")
            v *= int(p) ** int(e)
        assert int(sign) * v == int(n) ** 2 - 3, n


def _exponent(p, m):
    """The exponent of the prime p in m != 0, by trial division."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def _lifted_roots(spec, limit, top):
    """{p: its Hensel levels up to top} over the primes p <= limit <= top."""
    return {p: sieve._hensel_levels(p, roots[0], spec.b, top)
            for p, roots in sieve.sieve_primes(spec, limit)}


def test_hensel_levels_count_the_exponent_of_every_prime():
    # Every prime up to 50, 2 and the primes of b included, over n in
    # [1, P], P the largest p^k <= top, which covers every residue mod p^k:
    # the classes holding n number v_p(n^2 + b).  Only the K levels
    # p^k <= top are promised, so past v_p = K the count lies in [K, v_p].
    top = 10 ** 5
    small = [p for p in range(2, 51) if naive_is_prime(p)]
    for b in LIFT_POOL:
        table = _lifted_roots(arith.validate_b(b), 50, top)
        assert set(table) == {p for p in small
                              if any((n * n + b) % p == 0 for n in range(p))}, b
        for p, levels in table.items():
            assert all(1 <= c <= m for m, c in levels), (b, p)
            least = min(n for n in range(1, p + 1) if (n * n + b) % p == 0)
            assert levels[0][1] == least, (b, p)
            big, k = p, 1
            while big * p <= top:
                big, k = big * p, k + 1
            count = [0] * (big + 1)
            for m, c in levels:
                count[c::m] = [v + 1 for v in count[c::m]]
            for n in range(1, big + 1):
                e = _exponent(p, n * n + b)
                assert min(e, k) <= count[n] <= e, (b, p, n)


def _without(b, n, primes):
    """|n^2 + b| with the given primes divided out completely, by trial division."""
    v = 1
    for q, e in naive_factorize(abs(n * n + b)):
        if q not in primes:
            v *= q ** e
    return v


@pytest.mark.parametrize("seg", (1, 7, 25))
def test_scheduler_divides_exactly_the_lifted_primes(monkeypatch, seg):
    # Both calling patterns: every root registered before the first segment
    # of a range that starts away from 1 (slice_range), and each prime
    # registered mid-segment after its least root (the first-hit kernel),
    # where the test itself strips the prime from that root's value.
    monkeypatch.setattr(sieve, "SEGMENT", seg)
    for b in LIFT_POOL:
        spec = arith.validate_b(b)
        for start, end, mid in ((40, 300, False), (1, 300, True)):
            lifted = _lifted_roots(spec, 40, (end - 1) ** 2 + abs(b))
            least = {}
            for p, levels in lifted.items():
                least.setdefault(levels[0][1], []).append(p)
            add, divide = sieve._scheduler(b, start, end)
            if not mid:
                for p, levels in lifted.items():
                    assert add(p, levels[0][1], start) == levels, (b, p)
            for lo in range(start, end, seg):
                hi = min(lo + seg, end)
                rem = sieve._values(b, lo, hi)
                divide(rem, lo)
                for n in range(lo, hi) if mid else ():
                    for p in least.get(n, ()):
                        assert add(p, n, n + 1) == lifted[p], (b, p)
                        while rem[n - lo] % p == 0:
                            rem[n - lo] //= p
                want = [_without(b, n, lifted) for n in range(lo, hi)]
                assert rem == want, (b, seg, start, lo)


def test_values_negates_only_the_negative_prefix():
    # n^2 + b < 0 exactly for n <= isqrt(-b - 1); segments that start
    # below, at and past that point
    for b in (-2, -3, -75001, -73600, -(2 ** 31) + 1, 7):
        edge = max(1, math.isqrt(max(-b - 1, 0)))
        for lo, hi in ((1, 2), (1, edge + 3), (edge, edge + 1), (edge, edge + 2),
                       (edge + 1, edge + 5), (max(1, edge - 3), edge + 70000)):
            assert sieve._values(b, lo, hi) == [abs(n * n + b) for n in range(lo, hi)], (b, lo)
        # the dump's signs, with segments that end before, start at and
        # start past the last negative n
        lo, hi = max(1, edge - 4), edge + 5
        for seg in (1, 3, 4, 5, sieve.SEGMENT):
            got = [t.sign for t in _run_at(seg, b, lo, hi)]
            assert got == [-1 if n * n + b < 0 else 1 for n in range(lo, hi)], (b, seg)
