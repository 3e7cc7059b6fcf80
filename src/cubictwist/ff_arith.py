"""Exact modular arithmetic and residue symbols over prime fields.

This is the shared kernel: every other module funnels its modular
arithmetic through here. All functions are pure and exact — Python
integers are arbitrary precision, so there is no overflow to defend
against, but moduli are still capped at 2**62 to keep the validated
domain explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

MODULUS_CAP = 1 << 62

# Deterministic Miller-Rabin witness set: correct for every n below
# 3.3 * 10**24, which covers the full 2**62 modulus range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**62 (Miller-Rabin)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A validated prime modulus p with 2 <= p < 2**62."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int):
            raise TypeError(f"modulus must be an int, got {type(self.p).__name__}")
        if self.p >= MODULUS_CAP:
            raise ValueError(f"modulus {self.p} exceeds the 2**62 cap")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def __int__(self) -> int:
        return self.p


def _as_prime(p: int | PrimeModulus) -> int:
    """Coerce to a validated prime int."""
    if isinstance(p, PrimeModulus):
        return p.p
    return PrimeModulus(p).p


def legendre_symbol(x: int, p: int | PrimeModulus) -> int:
    """Legendre symbol (x/p) via Euler's criterion: +1, 0, or -1.

    p must be an odd prime. Negative x is reduced mod p first.

    >>> legendre_symbol(2, 7)
    1
    >>> legendre_symbol(5, 7)
    -1
    >>> legendre_symbol(0, 7)
    0
    """
    pp = _as_prime(p)
    if pp == 2:
        raise ValueError("legendre_symbol requires an odd prime")
    return _legendre_raw(x, pp)


def _legendre_raw(x: int, p: int) -> int:
    # Hot-path variant: p is already known to be an odd prime.
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def _jacobi_raw(x: int, n: int) -> int:
    # Hot-path variant: n odd and positive. The Jacobi symbol (x/n) is
    # multiplicative in n and equals _legendre_raw for prime n; for fixed
    # x it depends only on n mod 4|x| (Ireland & Rosen, ch. 5 sec. 2).
    x %= n
    sign = 1
    while x:
        while x % 2 == 0:
            x //= 2
            if n % 8 in (3, 5):
                sign = -sign
        x, n = n, x
        if x % 4 == 3 and n % 4 == 3:
            sign = -sign
        x %= n
    return sign if n == 1 else 0


def is_cube_mod(x: int, q: int | PrimeModulus) -> bool:
    """True iff x is a cube in F_q^x. Errors if q divides x.

    For q = 3 or q = 2 mod 3, cubing permutes F_q^x, so everything is a
    cube; for q = 1 mod 3 the cubes are the index-3 subgroup and the
    test is x**((q-1)/3) == 1.

    >>> is_cube_mod(6, 7)
    True
    >>> is_cube_mod(19, 7)
    False
    """
    qq = _as_prime(q)
    if x % qq == 0:
        raise ValueError(f"{x} = 0 mod {qq}: the zero class is neither a cube nor a non-cube here")
    return _is_cube_raw(x, qq)


def _is_cube_raw(x: int, q: int) -> bool:
    # Hot-path variant: q already prime, x already a unit mod q.
    if q % 3 != 1:
        return True
    return pow(x, (q - 1) // 3, q) == 1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a mod p, for prime p and a a quadratic residue.

    Tonelli-Shanks, with the p = 3 mod 4 shortcut. The caller is
    responsible for checking residuosity (legendre_symbol == 1); feeding
    a non-residue returns garbage, so callers verify or pre-check.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
