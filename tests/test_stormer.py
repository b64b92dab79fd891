import pytest

from quadfactor import arith, stormer
from quadfactor.errors import CapExceededError, PreconditionViolatedError

from conftest import naive_factorize, naive_is_smooth, naive_negative_pell


def smooth_square_plus_one_scan(B, limit):
    """Oracle: enumerate every product of allowed primes up to limit^2 + 1
    and keep those of the form n^2 + 1.  Touches no Pell machinery."""
    ps = stormer.allowed_primes(B)
    cap = limit * limit + 1
    hits = set()

    def rec(i, val):
        if i == len(ps):
            r = arith.isqrt(val - 1)
            if r >= 1 and r * r == val - 1:
                hits.add(r)
            return
        v = val
        while v <= cap:
            rec(i + 1, v)
            v *= ps[i]

    rec(0, 1)
    return sorted(hits)


def pair_power(x1, y1, D, k):
    """(x1 + y1 sqrt(D))^k by square-and-multiply on integer pairs."""
    rx, ry = 1, 0
    bx, by = x1, y1
    while k:
        if k & 1:
            rx, ry = rx * bx + ry * by * D, rx * by + ry * bx
        bx, by = bx * bx + by * by * D, 2 * bx * by
        k >>= 1
    return rx, ry


def test_allowed_primes_examples():
    assert stormer.allowed_primes(6) == [2, 5]
    assert stormer.allowed_primes(3) == [2]
    assert stormer.allowed_primes(14) == [2, 5, 13]
    with pytest.raises(PreconditionViolatedError):
        stormer.allowed_primes(2)


def test_enumerate_D_examples():
    assert stormer.enumerate_D(6) == [2, 5, 10]
    assert stormer.enumerate_D(3) == [2]
    assert stormer.enumerate_D(14) == [2, 5, 10, 13, 26, 65, 130]
    with pytest.raises(CapExceededError):
        stormer.enumerate_D(200)  # 21 admissible primes below 200


def pell_fundamental(D, digit_cap=stormer.DEFAULT_DIGIT_CAP):
    """Least (x, y) > 0 with x^2 - D y^2 = -1, or None, as stormer_search
    finds it under digit_cap; CapExceededError past the cap."""
    y = stormer._fundamental_y(D, stormer._max_quotients(stormer._cap_bits(digit_cap)))
    return None if y is None else (stormer._x_from_y(D, y), y)


def test_negative_pell_fundamentals():
    assert pell_fundamental(2) == (1, 1)
    assert pell_fundamental(5) == (2, 1)
    assert pell_fundamental(13) == (18, 5)
    assert pell_fundamental(3) is None
    assert pell_fundamental(34) is None  # even period
    x, y = pell_fundamental(29)
    assert x * x - 29 * y * y == -1


def naive_half_period(D):
    """floor(L / 2) for the period L of the continued fraction of sqrt(D),
    counted over the whole period with the plain recurrence (0 for a square)."""
    a0 = arith.isqrt(D)
    if a0 * a0 == D:
        return 0
    m, d, a = 0, 1, a0
    period = 0
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        period += 1
        if d == 1:
            return period // 2


def fibonacci_step_bound(cap_bits):
    """Least m with 2 bit_length(F_{m+1}) - 1 > cap_bits.  Since p_m >= q_m
    >= F_{m+1}, by index m some p_i q_i has passed the per-step cap test
    bit_length(p_i) + bit_length(q_i) - 1 > cap_bits."""
    m, f, f_next = 0, 1, 1  # F_{m+1}, F_{m+2}
    while 2 * f.bit_length() - 1 <= cap_bits:
        m, f, f_next = m + 1, f_next, f + f_next
    return m


@pytest.fixture(scope="module")
def pell_oracle():
    """Full-period fundamentals for every 2 <= D < 3000 (squares, even
    periods, every a^2 + 1 up to 54^2 + 1) and every D of B = 74."""
    return {D: naive_negative_pell(D)
            for D in sorted(set(range(2, 3000)) | set(stormer.enumerate_D(74)))}


def test_negative_pell_matches_full_period_oracle(pell_oracle):
    # at the default digit cap, the path stormer_search takes
    for D, want in pell_oracle.items():
        assert pell_fundamental(D) == want, D


def test_quotient_bound_is_a_fibonacci_bound():
    # sound: never below the Fibonacci bound; tight: at most two past it
    for cap_bits in list(range(1, 400)) + [stormer._cap_bits(c) for c in (1, 3, 10, 10 ** 4)]:
        exact = fibonacci_step_bound(cap_bits)
        assert exact <= stormer._max_quotients(cap_bits) <= exact + 2, cap_bits


@pytest.mark.parametrize("digit_cap", [1, 3, 10])
def test_digit_cap_flags_only_fundamentals_past_the_cap(pell_oracle, digit_cap):
    # The cap bounds only the period search: a half period below the
    # Fibonacci step bound always comes back as the oracle's fundamental,
    # however far its x_1 is past the cap, and one at or above the
    # quotient bound never does.  In between the search may stop either
    # way.
    cap_bits = stormer._cap_bits(digit_cap)
    bound = fibonacci_step_bound(cap_bits)
    refused = past_cap = 0
    for D, want in pell_oracle.items():
        half = naive_half_period(D)
        if half >= stormer._max_quotients(cap_bits):
            with pytest.raises(CapExceededError):
                pell_fundamental(D, digit_cap)
            refused += 1
            continue
        try:
            got = pell_fundamental(D, digit_cap)
        except CapExceededError:
            assert half >= bound, D
            continue
        assert got == want, D
        past_cap += want is not None and want[0].bit_length() > cap_bits
    assert refused > 0 and past_cap > 0


def test_prune_walks_only_chains_with_smooth_y1(monkeypatch, pell_oracle):
    walked = []
    walk = stormer.pell_solutions_odd

    def recording(D, fundamental, k_max, digit_cap=stormer.DEFAULT_DIGIT_CAP):
        chain = walk(D, fundamental, k_max, digit_cap)
        walked.append((D, fundamental, k_max, chain))
        return chain

    monkeypatch.setattr(stormer, "pell_solutions_odd", recording)
    cap_bits = stormer._cap_bits(3)
    bound = fibonacci_step_bound(cap_bits)
    for B in (42, 74):
        walked.clear()
        oracle = {D: pell_oracle[D] for D in stormer.enumerate_D(B)}
        smooth_y1 = [D for D, f in oracle.items()
                     if f is not None and naive_is_smooth(f[1], B)]
        res = stormer.stormer_search(B)
        assert [D for D, _, _, _ in walked] == smooth_y1, B
        assert res.truncated_Ds == [], B
        for D, (x1, y1), _, chain in walked:
            assert (x1, y1) == oracle[D]
            for sol in chain:
                assert sol.y % y1 == 0, (D, sol.k)

        # Under a tight cap a D is truncated only when its half period
        # reaches the Fibonacci step bound or its chain, x_1 included,
        # stops before k_max.
        walked.clear()
        res = stormer.stormer_search(B, digit_cap=3)
        assert {D for D, _, _, _ in walked} <= set(smooth_y1), B
        short = {D for D, _, k_max, chain in walked if len(chain) < (k_max + 1) // 2}
        assert res.truncated_Ds, B
        for D in res.truncated_Ds:
            assert D in short or naive_half_period(D) >= bound, (B, D)


def test_pell_chain_examples():
    chain = stormer.pell_solutions_odd(2, (1, 1), 5)
    assert [(s.x, s.y) for s in chain] == [(1, 1), (7, 5), (41, 29)]
    chain5 = stormer.pell_solutions_odd(5, (2, 1), 3)
    assert [(s.x, s.y) for s in chain5] == [(2, 1), (38, 17)]
    for s in chain + chain5:
        assert s.x * s.x - s.D * s.y * s.y == -1


def test_chain_matches_direct_powers():
    for D in (2, 5, 10, 13, 26, 130):
        fund = pell_fundamental(D)
        if fund is None:
            continue
        for sol in stormer.pell_solutions_odd(D, fund, 9):
            assert (sol.x, sol.y) == pair_power(fund[0], fund[1], D, sol.k)
            # recurrence step: x_{k+2} = x_k (2 x1^2 + 1) + 2 x1 y1 D y_k
            x_next = sol.x * (2 * fund[0] ** 2 + 1) + 2 * fund[0] * fund[1] * D * sol.y
            assert x_next == pair_power(fund[0], fund[1], D, sol.k + 2)[0]


def test_stormer_search_expected_sets():
    assert stormer.stormer_search(3).solutions == [1]
    assert stormer.stormer_search(6).solutions == [1, 2, 3, 7]
    assert stormer.stormer_search(14).solutions == [1, 2, 3, 5, 7, 8, 18, 57, 239]


def test_stormer_search_matches_enumeration_oracle():
    for B in (3, 6, 14, 42):
        res = stormer.stormer_search(B)
        oracle = smooth_square_plus_one_scan(B, 10 ** 7)
        in_range = [n for n in res.solutions if n <= 10 ** 7]
        assert in_range == oracle, B
        assert res.max_n == max(res.solutions)
        # nothing found beyond the scan horizon at these bounds
        assert res.solutions == in_range, B


def test_every_solution_verifies_smooth_and_reconstructs():
    res = stormer.stormer_search(14)
    Ds = set(stormer.enumerate_D(14))
    for n in res.solutions:
        fac = naive_factorize(n * n + 1)
        assert all(p < 14 for p, _ in fac), n
        sqfree = 1
        for p, e in fac:
            if e % 2 == 1:
                sqfree *= p
        assert sqfree in Ds, n


def test_small_digit_cap_flags_truncation():
    # D = 2 fundamental is tiny but the chain overflows one digit fast
    res = stormer.stormer_search(6, k_max_override=13, digit_cap=1)
    assert res.truncated_Ds
    assert 1 in res.solutions  # x_1 = 1 still fits


def test_search_rejects_cutoffs_below_one():
    # a cutoff below 1 would walk no chain and report an empty, untruncated answer
    for kw in ({"k_max_override": -5}, {"k_max_override": 0},
               {"digit_cap": -1}, {"digit_cap": 0}):
        with pytest.raises(PreconditionViolatedError):
            stormer.stormer_search(14, **kw)
    # k_max = 1 is allowed and keeps only the fundamentals: 7 is x_3 for D = 2
    assert stormer.stormer_search(6, k_max_override=1).solutions == [1, 2, 3]


@pytest.mark.slow
def test_stormer_B101_reproduces_published_maximum():
    res = stormer.stormer_search(101)
    assert res.max_n == 24208144
    assert len(res.solutions) == 156
    assert naive_factorize(24208144 ** 2 + 1)[-1][0] < 101


@pytest.mark.slow
def test_stormer_B101_settles_every_D_under_a_wide_cap():
    # A cap wide enough for every half period at B = 101 leaves no D
    # unsettled; at the default cap only the period search stops.
    res = stormer.stormer_search(101, digit_cap=101000)
    assert res.truncated_Ds == []
    assert len(res.solutions) == 156
    assert res.max_n == 24208144
    bound = fibonacci_step_bound(stormer._cap_bits(stormer.DEFAULT_DIGIT_CAP))
    for D in stormer.stormer_search(101).truncated_Ds:
        assert naive_half_period(D) >= bound, D
