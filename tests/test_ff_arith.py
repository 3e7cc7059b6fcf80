"""Finite-field arithmetic against brute-force oracles."""

import random

import pytest

from cubictwist.ff_arith import (
    MODULUS_CAP,
    PrimeModulus,
    _jacobi_raw,
    _legendre_raw,
    is_cube_mod,
    is_prime,
    legendre_symbol,
    sqrt_mod,
)


def small_primes(bound):
    sieve = [True] * bound
    sieve[0] = sieve[1] = False
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, bound, i):
                sieve[j] = False
    return [i for i, f in enumerate(sieve) if f]


PRIMES_500 = small_primes(500)


def test_is_prime_agrees_with_sieve():
    table = set(small_primes(100_000))
    for n in range(2, 100_000):
        assert is_prime(n) == (n in table)


def test_is_prime_edge_cases():
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)
    # Carmichael numbers and strong-pseudoprime bait
    for n in (561, 1105, 1729, 2465, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    for n in (2, 3, 2**31 - 1, 10**18 + 9, 2**61 - 1):
        assert is_prime(n)


def test_prime_modulus_validation():
    PrimeModulus(2)
    PrimeModulus(7)
    with pytest.raises(ValueError):
        PrimeModulus(9)
    with pytest.raises(ValueError):
        PrimeModulus(1)
    with pytest.raises(ValueError):
        PrimeModulus(2**63 + 11)  # beyond the cap even if prime-looking
    with pytest.raises(TypeError):
        PrimeModulus(7.0)


@pytest.mark.parametrize("p", [p for p in PRIMES_500 if p > 2])
def test_legendre_by_enumeration(p):
    squares = {(x * x) % p for x in range(1, p)}
    for x in range(p):
        expect = 0 if x % p == 0 else (1 if x in squares else -1)
        assert legendre_symbol(x, p) == expect


def test_legendre_multiplicative():
    rng = random.Random(7)
    for _ in range(500):
        p = rng.choice([q for q in PRIMES_500 if q > 2])
        x, y = rng.randrange(1, p), rng.randrange(1, p)
        assert legendre_symbol(x * y, p) == legendre_symbol(x, p) * legendre_symbol(y, p)


def test_legendre_rejects_two():
    with pytest.raises(ValueError):
        legendre_symbol(1, 2)


def test_legendre_negative_input():
    # (-1/p) = (-1)^((p-1)/2)
    for p in PRIMES_500:
        if p == 2:
            continue
        assert legendre_symbol(-1, p) == (1 if p % 4 == 1 else -1)


@pytest.mark.parametrize("q", PRIMES_500)
def test_is_cube_by_enumeration(q):
    cubes = {pow(x, 3, q) for x in range(1, q)}
    for x in range(1, q):
        assert is_cube_mod(x, q) == (x in cubes)


def test_is_cube_rejects_divisible():
    with pytest.raises(ValueError):
        is_cube_mod(21, 7)
    with pytest.raises(ValueError):
        is_cube_mod(0, 5)


def test_cube_when_q_is_2_mod_3():
    # cubing permutes F_q* when gcd(3, q-1) = 1
    for q in PRIMES_500:
        if q % 3 == 1:
            continue
        for x in range(1, min(q, 40)):
            assert is_cube_mod(x, q)


def test_sqrt_mod_roundtrip():
    for p in PRIMES_500:
        if p == 2:
            continue
        for a in range(p):
            if legendre_symbol(a, p) == -1:
                continue
            r = sqrt_mod(a, p)
            assert (r * r) % p == a % p


def test_sqrt_mod_zero_and_shortcut():
    assert sqrt_mod(0, 13) == 0
    # p = 3 mod 4 shortcut path
    assert sqrt_mod(2, 7) in (3, 4)


def is_cube_in_Fq2(x, q):
    """Oracle: True iff x (rational, coprime to q) is a cube in F_{q**2}^x.

    Only defined for q = 2 mod 3, where q stays inert in Q(zeta_3) and
    the residue field of the completion is F_{q**2}. The cube subgroup
    has index 3 in the cyclic group of order q**2 - 1, so x is a cube
    iff x**((q**2-1)/3) = (x**(q-1))**((q+1)/3) = 1. local_kummer
    classifies every unit at an inert place as split because this is
    always True for rational x.
    """
    if q % 3 != 2 or not is_prime(q):
        raise ValueError("is_cube_in_Fq2 requires a prime q = 2 mod 3 (q inert in Q(zeta_3))")
    if x % q == 0:
        raise ValueError(f"{x} is not a unit mod {q}")
    return pow(x % q, (q - 1) * ((q + 1) // 3), q) == 1


def test_is_cube_in_Fq2_constant_true():
    # For q = 2 mod 3 every rational unit is a cube over the quadratic
    # extension: F_q* has order prime to 3 and sits inside the index-3
    # cube subgroup of F_{q^2}*.
    for q in PRIMES_500:
        if q % 3 != 2:
            continue
        for x in range(1, min(q, 50)):
            assert is_cube_in_Fq2(x, q)


def test_is_cube_in_Fq2_brute_force():
    # independent check with explicit F_25 = F_5[t]/(t^2 - 2) arithmetic
    q, nonres = 5, 2
    elements = [(a, b) for a in range(q) for b in range(q)]

    def mul(u, v):
        a, b = u
        c, d = v
        return ((a * c + nonres * b * d) % q, (a * d + b * c) % q)

    cubes = set()
    for z in elements:
        if z == (0, 0):
            continue
        cubes.add(mul(mul(z, z), z))
    for x in range(1, q):
        assert is_cube_in_Fq2(x, q) == ((x, 0) in cubes)


def test_is_cube_in_Fq2_rejects_split_q():
    with pytest.raises(ValueError):
        is_cube_in_Fq2(2, 7)
    with pytest.raises(ValueError):
        is_cube_in_Fq2(5, 5)


def test_modulus_cap_enforced():
    big = 2**62 + 57  # prime-sized but over the cap
    with pytest.raises(ValueError):
        legendre_symbol(3, big)
    assert MODULUS_CAP == 1 << 62


def test_jacobi_equals_legendre_on_odd_primes():
    for p in PRIMES_500[1:]:
        for x in range(-p, 2 * p):
            assert _jacobi_raw(x, p) == _legendre_raw(x, p)


def test_jacobi_is_multiplicative_in_the_denominator():
    rng = random.Random(11)
    odd = range(1, 2000, 2)
    for _ in range(2000):
        x, m, n = rng.randrange(-10**6, 10**6), rng.choice(odd), rng.choice(odd)
        assert _jacobi_raw(x, m * n) == _jacobi_raw(x, m) * _jacobi_raw(x, n)
    assert _jacobi_raw(5, 1) == 1
    assert _jacobi_raw(3, 9) == 0
