import math
import random
from unittest import mock

import pytest

from quadfactor import arith, cli, sieve, stats
from quadfactor.errors import CapExceededError, OutOfDomainError

from conftest import naive_factorize, naive_is_prime, naive_p_plus, reconstruct

B_POOL = (1, 2, 3, 5, 7, -2, -3)
# p = 2, primes dividing b, and p^2 | b (12, -72, 45, 2^10 * 3)
LIFT_POOL = (1, -2, 12, -72, 45, 2 ** 10 * 3, -1155)


def _run(b, lo, hi, limit):
    return list(sieve.sieve_range(arith.validate_b(b), lo, hi, limit))


def _dump(b, x):
    """The `sieve` dump's terms: n = 1..x with the primes up to 2(x + 1)."""
    return _run(b, 1, x + 1, 2 * (x + 1))


def _run_at(seg, b, lo, hi):
    """_run to the limit 2 hi with the segment length patched to seg."""
    with mock.patch.object(sieve, "SEGMENT", seg):
        return _run(b, lo, hi, 2 * hi)


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
    rows = {tf.n: tf for tf in _run(1, 1, 11, 22)}
    assert rows[7].factors == ((2, 1), (5, 2)) and rows[7].cofactor == 1
    assert rows[10].factors == () and rows[10].cofactor == 101
    assert rows[5].factors == ((2, 1), (13, 1)) and rows[5].cofactor == 1

    only = _run(1, 1, 2, 2)
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


def test_small_prime_limit_leaves_composite_leftovers():
    # with a smoothness-style limit the cofactor is only limit-rough
    rows = {tf.n: tf for tf in _run(1, 1, 40, 13)}
    assert rows[38].cofactor == 289  # 17^2 survives a limit of 13
    assert reconstruct(rows[38]) == 38 * 38 + 1


def test_large_b_small_n_fallback_keeps_cofactor_prime():
    # the oracle zone 3n^2 <= |b| is fully factored whatever the prime
    # limit; past it a limit of 13 leaves 13-rough cofactors
    for b, hi, limit in ((10 ** 9, 50, 100), (-(10 ** 9 + 7), 50, 100), (-75001, 201, 13)):
        cut = math.isqrt(abs(b) // 3)
        for tf in _run(b, 1, hi, limit):
            assert reconstruct(tf) == tf.n * tf.n + b
            if tf.n <= cut:
                assert tf.factors == tuple(naive_factorize(abs(tf.n * tf.n + b)))
                assert tf.cofactor == 1
            else:
                assert all(p <= 13 for p, _ in tf.factors)
                assert all(q > 13 for q, _ in naive_factorize(tf.cofactor))


def test_kernels_refuse_the_cap_and_a_limit_below_2():
    # the range itself is the caller's to check; both kernels refuse an n
    # past the cap, and sieve_primes a limit below 2.  slice_range sieves
    # to about the last n of its range, so it is only run past the cap.
    spec = arith.validate_b(1)
    with pytest.raises(CapExceededError, match="^n = 1000000000 exceeds the cap 999999999$"):
        next(sieve.sieve_range(spec, 1, 10 ** 9 + 1, 2))
    with pytest.raises(OutOfDomainError):
        next(sieve.sieve_range(spec, 1, 10, 1))
    assert next(sieve.sieve_range(spec, 1, 10 ** 9, 2))  # n = 999999999 is in
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


def _roots_mod_powers(b, p, top):
    """{p^k: {r < p^k : p^k | r^2 + b}} for every p^k <= top, by exhaustive search.

    Level k tries the p candidates r + j p^(k-1) of each root r of level
    k - 1; they contain every root mod p^k, since p^k | m implies
    p^(k-1) | m.
    """
    out = {}
    roots, pk = [0], 1
    while pk * p <= top:
        nxt = pk * p
        roots = [s for r in roots for s in range(r, nxt, pk) if (s * s + b) % nxt == 0]
        out[nxt] = set(roots)
        pk = nxt
    return out


def _fallback_hits(b, p, root, top):
    """{p^k: residues mod p^k of the n whose value the fallback divides by p^k}.

    Runs the fallback divider of the slice kernel with p as its only
    prime over n in [1, P], P the largest power p^k <= top, which covers
    every residue mod p^k.
    """
    big = p
    while big * p <= top:
        big *= p
    hits = {}
    for lo in range(1, big + 1, 1 << 16):
        hi = min(lo + (1 << 16), big + 1)
        vals = [abs(n * n + b) for n in range(lo, hi)]
        rem, exps = vals[:], {}
        sieve._divide_fallback(rem, lo, {p: root}, exps)
        removed = 0
        for i in range(hi - lo):
            q, c = divmod(vals[i], rem[i])
            assert c == 0
            pk = p
            while q % p == 0:
                q //= p
                removed += 1
                if pk <= big:
                    hits.setdefault(pk, set()).add((lo + i) % pk)
                pk *= p
            assert q == 1, (b, p, lo + i)  # only p was divided out
        assert exps.get(p, 0) == removed
    return hits


def _lifted_roots(spec, limit, top):
    """(lifted, fallback) over the primes <= limit <= top.

    lifted maps each odd p not dividing b to its Hensel levels up to top;
    fallback maps p = 2 and the p dividing b to their root mod p.
    """
    b = spec.b
    lifted, fallback = {}, {}
    for p, roots in sieve.sieve_primes(spec, limit):
        if p == 2 or b % p == 0:
            fallback[p] = roots[0]
        else:
            lifted[p] = sieve._hensel_levels(p, roots[0], b, top)
    return lifted, fallback


def test_lifted_roots_and_fallback_hits_match_brute_force():
    top = 10 ** 6
    small = [p for p in range(2, 51) if naive_is_prime(p)]
    for b in LIFT_POOL:
        spec = arith.validate_b(b)
        table, fall = _lifted_roots(spec, 50, top)
        assert set(fall) == {p for p in small if p == 2 or b % p == 0}, b
        for p in small:
            want = _roots_mod_powers(b, p, top)
            if p in table:
                got = {}
                for pk, r in table[p]:
                    got.setdefault(pk, set()).add(r)
                assert got == want, (b, p)
            elif p in fall:
                want = {pk: rs for pk, rs in want.items() if rs}
                assert _fallback_hits(b, p, fall[p], top) == want, (b, p)
            else:
                assert not any(want.values()), (b, p)


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
            lifted = _lifted_roots(spec, 40, (end - 1) ** 2 + abs(b))[0]
            least = {}
            for p, levels in lifted.items():
                least.setdefault(min(levels[0][1], levels[1][1]), []).append(p)
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
