import io
import random

import pytest

from quadfactor import arith, sieve
from quadfactor.errors import CapExceededError, OutOfDomainError
from quadfactor.sieve import SieveConfig

from conftest import naive_p_plus

B_POOL = (1, 2, 3, 5, 7, -2, -3)


def _run(b, lo, hi, **kw):
    spec = arith.validate_b(b)
    return list(sieve.sieve_range(spec, SieveConfig(lo, hi, **kw)))


def test_sieve_primes_examples():
    b1 = arith.validate_b(1)
    assert [rs.p for rs in sieve.sieve_primes(b1, 20)] == [2, 5, 13, 17]
    assert [rs.p for rs in sieve.sieve_primes(b1, 3)] == [2]
    bm2 = arith.validate_b(-2)
    assert [rs.p for rs in sieve.sieve_primes(bm2, 10)] == [2, 7]
    assert sieve.sieve_primes(bm2, 10)[1].roots == (3, 4)


def test_sieve_primes_are_the_nonempty_root_sets(monkeypatch):
    # the prime list is trusted, so no primality test runs per prime
    def no_is_prime(m):
        raise AssertionError("sieve_primes called is_prime")
    for b in B_POOL + (15, -73600):
        spec = arith.validate_b(b)
        want = [arith.roots_of_term_mod_p(spec, p) for p in arith.primes_upto(500)]
        with monkeypatch.context() as m:
            m.setattr(arith, "is_prime", no_is_prime)
            got = sieve.sieve_primes(spec, 500)
        assert got == [rs for rs in want if rs.roots], b


def test_sieve_range_hand_examples():
    rows = {tf.n: tf for tf in _run(1, 1, 11, prime_limit=22)}
    assert rows[7].factors == ((2, 1), (5, 2)) and rows[7].cofactor == 1
    assert rows[10].factors == () and rows[10].cofactor == 101
    assert rows[5].factors == ((2, 1), (13, 1)) and rows[5].cofactor == 1

    only = _run(1, 1, 2, prime_limit=2)
    assert only[0].factors == ((2, 1),) and only[0].cofactor == 1

    unit = _run(-2, 1, 2)[0]
    assert unit.sign == -1 and unit.factors == () and unit.cofactor == 1


def test_reconstruction_identity():
    for b in B_POOL:
        for tf in _run(b, 1, 10 ** 5 + 1):
            assert tf.value() == tf.n * tf.n + b, (b, tf)


def test_p_plus_of_matches_oracle():
    for b in (1, -2):
        for tf in _run(b, 1, 10 ** 4 + 1):
            av = abs(tf.n * tf.n + b)
            if av > 1:
                assert sieve.p_plus_of(tf) == naive_p_plus(av), (b, tf.n)
            else:
                with pytest.raises(OutOfDomainError):
                    sieve.p_plus_of(tf)


def test_segment_independence():
    base = _run(1, 1, 2001, segment_size=2000)
    for seg in (1, 64, 4096):
        assert _run(1, 1, 2001, segment_size=seg) == base
    basem = _run(-3, 1, 1001, segment_size=1000)
    for seg in (1, 64, 4096):
        assert _run(-3, 1, 1001, segment_size=seg) == basem


def test_thread_independence():
    assert _run(1, 1, 20001, segment_size=1024) == _run(1, 1, 20001)


def test_cofactor_prime_when_limit_covers_range():
    rng = random.Random(4242)
    rows = _run(3, 1, 10 ** 5 + 1)  # default prime_limit = 2*hi
    picks = rng.sample(range(len(rows)), 10 ** 4)
    for i in picks:
        tf = rows[i]
        if tf.cofactor > 1:
            assert tf.cofactor > 2 * 10 ** 5 + 2 - 1  # above prime_limit
            assert arith.is_prime(tf.cofactor)
        for p, _ in tf.factors:
            assert p <= 2 * (10 ** 5 + 1)


def test_small_prime_limit_leaves_composite_leftovers():
    # with a smoothness-style limit the cofactor is only limit-rough
    rows = {tf.n: tf for tf in _run(1, 1, 40, prime_limit=13)}
    assert rows[38].cofactor == 289  # 17^2 survives a limit of 13
    assert rows[38].value() == 38 * 38 + 1


def test_large_b_small_n_fallback_keeps_cofactor_prime():
    # 3n^2 <= |b| zone: forced through the full factorization oracle
    rows = _run(10 ** 9, 1, 50)
    for tf in rows:
        assert tf.value() == tf.n * tf.n + 10 ** 9
        assert tf.cofactor == 1 or arith.is_prime(tf.cofactor)
    neg = _run(-(10 ** 9 + 7), 1, 50)
    for tf in neg:
        assert tf.value() == tf.n * tf.n - (10 ** 9 + 7)


def test_config_validation():
    with pytest.raises(OutOfDomainError):
        SieveConfig(0, 10)
    with pytest.raises(OutOfDomainError):
        SieveConfig(5, 5)
    with pytest.raises(CapExceededError):
        SieveConfig(1, 10 ** 9 + 1)
    with pytest.raises(OutOfDomainError):
        SieveConfig(1, 10, segment_size=0)
    with pytest.raises(OutOfDomainError):
        SieveConfig(1, 10, prime_limit=1)
    assert SieveConfig(1, 10).prime_limit == 20


def test_csv_dump_format():
    spec = arith.validate_b(1)
    fh = io.StringIO()
    sieve.write_csv(sieve.sieve_range(spec, SieveConfig(1, 8)), fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == "n,sign,factors,cofactor"
    assert lines[7] == "7,1,2^1 5^2,1"
    assert lines[6] == "6,1,,37"
