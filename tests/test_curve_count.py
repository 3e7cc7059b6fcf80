"""Point counting on y^2 = x^3 + a over prime fields.

The reference oracle below is written from scratch (quadratic-character
sum plus a tiny group law) so that agreement with the package is
evidence, not tautology.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubictwist.curve_count import (
    BadReductionError,
    CountMethod,
    CurveParam,
    TraceData,
    fast_count,
    naive_count,
    torsion3_trivial,
)
from cubictwist.eisenstein import solve_norm_equation
from cubictwist.ff_arith import is_cube_mod, is_prime, legendre_symbol
from cubictwist.sieve import simple_sieve

PRIMES = [p for p in range(5, 600) if is_prime(p)]
PRIMES_1E5 = [int(p) for p in simple_sieve(10**5) if p >= 5]


def oracle_count(a, ell):
    total = 1  # point at infinity
    for x in range(ell):
        rhs = (x * x * x + a) % ell
        total += 1 + legendre_symbol(rhs, ell)
    return total


def oracle_add(P, Q, a, ell):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % ell == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1) * pow(2 * y1, ell - 2, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, ell - 2, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    return (x3, (lam * (x1 - x3) - y1) % ell)


def oracle_triple(P, a, ell):
    return oracle_add(P, oracle_add(P, P, a, ell), a, ell)


def oracle_3torsion_trivial(a, ell):
    for x in range(ell):
        rhs = (x * x * x + a) % ell
        if legendre_symbol(rhs, ell) == -1:
            continue
        for y in range(ell):
            if (y * y - rhs) % ell:
                continue
            if oracle_triple((x, y), a, ell) is None:
                return False
    return True


def test_naive_count_matches_character_sum():
    for a in range(-8, 9):
        if a == 0:
            continue
        for ell in PRIMES[:40]:
            if (6 * a) % ell == 0:
                continue
            got = naive_count(a, ell)
            assert got.count == oracle_count(a, ell)
            assert got.count == ell + 1 - got.trace
            assert got.method is CountMethod.NAIVE


def test_hasse_bound():
    for a in (-20, -1, 1, 17):
        for ell in PRIMES:
            if (6 * a) % ell == 0:
                continue
            t = fast_count(a, ell).trace
            assert t * t <= 4 * ell


def test_supersingular_count():
    # ell = 2 mod 3: the curve is supersingular, #E = ell + 1 regardless of a
    for ell in PRIMES:
        if ell % 3 != 2:
            continue
        for a in (-5, -1, 1, 2, 11):
            if (6 * a) % ell == 0:
                continue
            got = fast_count(a, ell)
            assert got.count == ell + 1
            assert got.trace == 0
            assert got.method is CountMethod.SUPERSINGULAR


def test_fast_count_agrees_with_naive():
    for a in range(-20, 21):
        if a == 0:
            continue
        for ell in PRIMES[:35]:
            if (6 * a) % ell == 0:
                continue
            assert fast_count(a, ell).count == naive_count(a, ell).count


def test_fast_count_seed_independent():
    for seed in (0, 1, 7, 123456):
        assert fast_count(-1, 19, seed=seed).count == 28
        assert fast_count(6, 1009, seed=seed).count == fast_count(6, 1009).count
        assert fast_count(-1, 7, seed=seed) == fast_count(-1, 7)


def test_known_counts():
    assert fast_count(-1, 7).count == 4
    assert fast_count(-1, 13).count == 12
    assert fast_count(-1, 19).count == 28
    assert fast_count(-14, 19).count == 27
    assert fast_count(7, 19).count == 12
    assert fast_count(2, 5).count == 6
    # the group is Z/2 x Z/2, so point orders cannot separate the
    # candidate traces; the closed form needs no O(ell) oracle here
    assert fast_count(-1, 7).method is CountMethod.CM_NORM_EQUATION


def test_bad_reduction_rejected():
    with pytest.raises(BadReductionError):
        naive_count(-1, 2)
    with pytest.raises(BadReductionError):
        naive_count(-1, 3)
    with pytest.raises(BadReductionError):
        fast_count(7, 7)
    with pytest.raises(ValueError):
        fast_count(-1, 15)  # composite modulus


def test_curve_param_rejects_zero():
    with pytest.raises(ValueError):
        CurveParam(0)


def test_trace_data_validates():
    TraceData(7, 4, 4, CountMethod.NAIVE)
    with pytest.raises(ValueError):
        TraceData(7, 4, 3, CountMethod.NAIVE)  # count != ell + 1 - trace
    with pytest.raises(ValueError):
        TraceData(7, -4, 12, CountMethod.NAIVE)  # Hasse violated


def test_torsion3_trivial_against_group_law():
    mismatches = []
    for a in range(-10, 11):
        if a == 0:
            continue
        for ell in PRIMES[:20]:
            if (6 * a) % ell == 0:
                continue
            if torsion3_trivial(a, ell) != oracle_3torsion_trivial(a, ell):
                mismatches.append((a, ell))
    assert mismatches == []


def test_torsion3_trivial_known_cases():
    assert torsion3_trivial(-1, 7)
    assert torsion3_trivial(-1, 19)
    assert not torsion3_trivial(-1, 13)  # -1 = 5^2 mod 13 forces a 3-torsion point
    assert not torsion3_trivial(-1, 5)  # 2 mod 3 never has trivial 3-torsion here


def test_sextic_twist_traces():
    # For ell = 1 mod 3 the six sextic twists of y^2 = x^3 + a realize
    # exactly the six candidate traces {+-L, +-(L+9M)/2, +-(L-9M)/2}.
    rng = random.Random(13)
    for ell in [p for p in PRIMES if p % 3 == 1][:25]:
        pair = solve_norm_equation(ell)
        L, M = pair.L, pair.M
        half_sum = (L + 9 * M) // 2
        half_diff = (L - 9 * M) // 2
        expected = sorted(
            {L, -L, half_sum, -half_sum, half_diff, -half_diff}
        )
        g = primitive_root(ell)
        traces = sorted({naive_count(pow(g, k, ell), ell).trace for k in range(6)})
        assert traces == expected
        # spot-check: twisting by a sixth power never changes the count
        d = rng.randrange(1, ell)
        a = rng.randrange(1, ell)
        assert naive_count(a, ell).count == naive_count(a * pow(d, 6, ell) % ell, ell).count


def primitive_root(ell):
    order = ell - 1
    factors = set()
    n = order
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.add(f)
            n //= f
        f += 1
    if n > 1:
        factors.add(n)
    for g in range(2, ell):
        if all(pow(g, order // q, ell) != 1 for q in factors):
            return g
    raise AssertionError("no primitive root found")


def twist_count_check(a, m, ell):
    """Oracle: cube twists by a cube are isomorphic over F_ell.

    When m is a cube mod ell, E_a and E_{m^2 a} are isomorphic over
    F_ell, so their counts must agree; returns that comparison (and
    True vacuously when m is not a cube mod ell).
    """
    if (6 * a * m) % ell == 0:
        raise BadReductionError(f"ell = {ell} divides 6am")
    if not is_cube_mod(m, ell):
        return True
    return fast_count(a, ell).count == fast_count(m * m * a, ell).count


def test_twist_count_check():
    # 19 is in M_{-1}; m = 19 against a = -1 at a good prime
    assert twist_count_check(-1, 19, 7)
    assert twist_count_check(-1, 19, 13)
    # vacuously true when m is not a cube mod ell
    assert twist_count_check(-1, 2, 7)
    with pytest.raises(ValueError):
        twist_count_check(-1, 19, 19)  # ell divides m


def test_accepts_curve_param_objects():
    c = CurveParam(-1)
    assert fast_count(c, 19).count == fast_count(-1, 19).count
    assert torsion3_trivial(c, 7) == torsion3_trivial(-1, 7)


@st.composite
def good_reduction_pairs(draw):
    a = draw(st.integers(-10**6, 10**6).filter(bool))
    ell = draw(st.sampled_from(PRIMES_1E5))
    assume((6 * a) % ell != 0)
    return a, ell


@settings(max_examples=40, deadline=None)
@given(good_reduction_pairs())
def test_fast_count_matches_naive_property(pair):
    a, ell = pair
    fast, naive = fast_count(a, ell), naive_count(a, ell)
    assert (fast.count, fast.trace) == (naive.count, naive.trace)


@settings(max_examples=40, deadline=None)
@given(good_reduction_pairs())
def test_torsion3_trivial_matches_naive_property(pair):
    # E(F_ell) has a point of order 3 iff 3 divides its order (Cauchy)
    a, ell = pair
    assert torsion3_trivial(a, ell) == (naive_count(a, ell).count % 3 != 0)
