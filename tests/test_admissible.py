"""Admissible coefficients, the prime families M_a / Q_a, and densities."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubictwist import admissible
from cubictwist.admissible import (
    _qa_conditions,
    _qa_table,
    a_admissible,
    compute_s,
    density_warnings,
    empirical_density,
    enumerate_m,
    generate_Ma,
    generate_Qa,
    in_Ma,
    predicted_density,
)
from cubictwist.curve_count import torsion3_trivial
from cubictwist.factorint import factorize, is_cubefree, prime_divisors
from cubictwist.ff_arith import is_cube_mod, is_prime
from cubictwist.sieve import primes_in_segment, simple_sieve

GOLDEN = json.loads((Path(__file__).parent / "data" / "qa_minus14_10000.json").read_text())


def test_a_admissible_accepts_and_rejects():
    assert a_admissible(-1)
    assert a_admissible(7)
    assert a_admissible(2)
    assert not a_admissible(1)
    assert not a_admissible(4)
    assert not a_admissible(16)
    assert not a_admissible(-3)  # -3 * 1^2
    assert not a_admissible(-12)  # -3 * 2^2
    assert not a_admissible(-27)  # -3 * 3^2
    assert a_admissible(-4)  # negative squares are fine
    assert a_admissible(3)
    res = a_admissible(9)
    assert res.ok is False
    assert res.reason


def test_a_admissible_zero_raises():
    with pytest.raises(ValueError):
        a_admissible(0)


def test_compute_s():
    assert compute_s(-1) == 0
    assert compute_s(2) == 0
    assert compute_s(7) == 1
    assert compute_s(-14) == 1  # -2 * 7
    assert compute_s(91) == 2  # 7 * 13
    assert compute_s(-91) == 2
    assert compute_s(6) == 0
    assert compute_s(13) == 1


def test_predicted_density_closed_form():
    assert predicted_density(-1) == Fraction(1, 24)
    assert predicted_density(7) == Fraction(1, 72)
    assert predicted_density(91) == Fraction(1, 216)
    assert isinstance(predicted_density(-1), Fraction)


def test_density_warnings():
    assert density_warnings(-1) == ()
    assert any("square" in w for w in density_warnings(4))
    assert any("3 divides" in w for w in density_warnings(3))


def test_generate_Ma_small():
    assert [r.ell for r in generate_Ma(-1, 20)] == [7, 19]
    # 13 is excluded: -1 is a square mod 13, which forces 3-torsion
    assert not in_Ma(-1, 13)
    assert not torsion3_trivial(-1, 13)


def test_golden_qa_list():
    got = [r.ell for r in generate_Qa(GOLDEN["a"], GOLDEN["limit"])]
    assert got == GOLDEN["primes"]


def test_qa_subset_of_ma():
    for a in (-14, -1, 7, 20):
        qa = {r.ell for r in generate_Qa(a, 3000)}
        ma = {r.ell for r in generate_Ma(a, 3000)}
        assert qa <= ma


def test_qa_membership_conditions():
    a = -14
    qs = [q for q in prime_divisors(a) if q != 3]
    for rec in generate_Qa(a, 5000):
        ell = rec.ell
        assert ell % 18 == 1
        assert a % ell != 0
        assert torsion3_trivial(a, ell)
        for q in qs:
            assert is_cube_mod(ell, q)
        assert rec.in_Qa and rec.in_Ma


def test_ma_membership_conditions():
    a = -14
    for rec in generate_Ma(a, 2000):
        assert rec.ell % 6 == 1
        assert a % rec.ell != 0
        assert torsion3_trivial(a, rec.ell)


def test_in_Qa_in_Ma_agree_with_lists():
    a = 7
    qs = prime_divisors(a)
    qa = {r.ell for r in generate_Qa(a, 2000)}
    ma = {r.ell for r in generate_Ma(a, 2000)}
    for ell in range(2, 2000):
        assert (is_prime(ell) and _qa_conditions(a, ell, qs)[0]) == (ell in qa)
        assert in_Ma(a, ell) == (ell in ma)


def test_generate_rejects_zero():
    with pytest.raises(ValueError):
        generate_Qa(0, 100)
    with pytest.raises(ValueError):
        generate_Ma(0, 100)


def test_threads_do_not_change_results():
    for threads in (1, 2, 8):
        assert [r.ell for r in generate_Qa(-14, 10_000, threads=threads)] == GOLDEN["primes"]
    r1 = empirical_density(-1, 30_000, threads=1)
    r8 = empirical_density(-1, 30_000, threads=8)
    assert r1 == r8


def test_enumerate_m_frozen_example():
    assert enumerate_m(-1, 400) == [19, 127, 163, 199, 271, 307, 361, 379]


def test_enumerate_m_properties():
    for a in (-1, 7, -14):
        qa = {r.ell for r in generate_Qa(a, 5000)}
        for m in enumerate_m(a, 5000):
            assert 1 < m <= 5000
            assert m % 9 == 1
            assert is_cubefree(m)
            assert set(prime_divisors(m)) <= qa
        # completeness: brute-force all candidates
        brute = []
        for m in range(2, 5001):
            ps = prime_divisors(m)
            if set(ps) <= qa and is_cubefree(m):
                brute.append(m)
        assert enumerate_m(a, 5000) == brute


def test_enumerate_m_work_is_linear_in_output():
    # The recursion must stop scanning primes once acc * p passes the
    # bound; otherwise every node walks the rest of Q_a and the work is
    # #m * #Q_a (seconds at 10^6, minutes at 10^7). Count line events in
    # the recursion, not wall time, and abort past a budget linear in
    # the output size.
    expected = enumerate_m(-1, 10**6)
    budget = 40 * (len(expected) + 1)  # about 16 line events per value
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > budget:
                raise RuntimeError(f"enumerate_m recursion exceeded {budget} line events")
        return count_lines

    def trace_extend(frame, event, arg):
        return count_lines if frame.f_code.co_name == "extend" else None

    previous = sys.gettrace()
    sys.settrace(trace_extend)
    try:
        got = enumerate_m(-1, 10**6)
    finally:
        sys.settrace(previous)
    assert got == expected
    assert lines > len(expected)  # the tracer did see the recursion


def test_enumerate_m_trivial_bounds():
    assert enumerate_m(-1, 1) == []
    assert enumerate_m(-1, 18) == []


def test_empirical_density_small_limit_manual():
    rep = empirical_density(-1, 1000)
    assert rep.primes_total == 168
    assert rep.primes_in_qa == len(generate_Qa(-1, 1000))
    assert rep.empirical == Fraction(rep.primes_in_qa, rep.primes_total)
    assert rep.deviation == abs(rep.empirical - rep.predicted)
    assert rep.s == 0
    assert rep.predicted == Fraction(1, 24)
    assert rep.warnings == ()


def test_empirical_density_below_two_counts_nothing():
    for limit in (-5, 0, 1):
        rep = empirical_density(-1, limit)
        assert (rep.primes_total, rep.primes_in_qa, rep.empirical) == (0, 0, 0)


def test_empirical_density_warns_on_inadmissible():
    rep = empirical_density(4, 1000)
    assert rep.warnings


# --- the class table behind empirical_density ------------------------------------


def table_count(a, limit):
    """#Q_a up to limit, looked up prime by prime in a's class table."""
    n = math.lcm(36, 4 * abs(a))
    table = _qa_table(a, prime_divisors(a), n)
    primes = primes_in_segment(2, limit + 1, simple_sieve(math.isqrt(limit)))
    return int(np.count_nonzero(table[primes % n]))


def totient(n):
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(n).items())


@pytest.mark.parametrize("limit", [10**3, 10**5 + 17])
def test_class_table_count_equals_per_prime_loop(limit):
    # every a with 1 <= |a| <= 60, admissible or not
    for a in [s * k for k in range(1, 61) for s in (1, -1)]:
        assert table_count(a, limit) == len(generate_Qa(a, limit)), a


def test_class_table_share_is_the_density_of_Qa():
    # README "Known discrepancy", acceptance criterion 4: the good classes
    # of (Z/N)^* make up exactly 1/(4 * 3^(s+1)) of them for admissible a,
    # and none for a = n^2 or -3 n^2.
    for a in [s * k for k in range(1, 61) for s in (1, -1)]:
        n = math.lcm(36, 4 * abs(a))
        share = Fraction(int(np.count_nonzero(_qa_table(a, prime_divisors(a), n))), totient(n))
        want = Fraction(1, 4 * 3 ** (compute_s(a) + 1)) if a_admissible(a) else 0
        assert share == want, a


def test_density_makes_no_per_prime_call_below_the_cap(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _qa_conditions(*args)

    monkeypatch.setattr(admissible, "_qa_conditions", counting)
    for a in (-1, 7, -14, 13):
        assert empirical_density(a, 10**5).primes_in_qa == table_count(a, 10**5)
    assert calls == []
    # N = 504 > 10^3 / 8: the table would cost more than the loop
    assert empirical_density(-14, 10**3).primes_in_qa == table_count(-14, 10**3)
    assert calls
    calls.clear()
    # above the cap the per-prime loop runs, and agrees with the table
    monkeypatch.setattr(admissible, "_TABLE_CAP", 100)
    assert empirical_density(-14, 10**5).primes_in_qa == table_count(-14, 10**5)
    assert calls


@settings(max_examples=40, deadline=None)
@given(
    a=st.one_of(st.integers(-100, 100), st.integers(-(10**7), 10**7)).filter(bool),
    limit=st.one_of(st.integers(2, 2 * 10**5), st.integers(3 * 10**4, 2 * 10**5)),
)
def test_density_count_equals_loop_on_both_sides_of_the_cap(a, limit):
    # N = lcm(36, 4|a|) is at most 3600 for |a| <= 100, under limit / 8
    # for limit >= 3 * 10^4, so both the class table and the per-prime
    # loop run.
    assert empirical_density(a, limit).primes_in_qa == len(generate_Qa(a, limit))
