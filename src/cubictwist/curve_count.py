"""Point counting and 3-torsion tests for y^2 = x^3 + a over F_ell.

These curves have j-invariant 0 and complex multiplication by Z[zeta_3],
so both questions have closed forms (Ireland & Rosen, A Classical
Introduction to Modern Number Theory, ch. 18 sec. 3):

* ell = 2 mod 3 is always supersingular: #E(F_ell) = ell + 1, trace 0.
* ell = 1 mod 3: with ell = pi * conj(pi), pi primary in Z[zeta_3],
  #E_a(F_ell) = ell + 1 + conj(chi)*pi + chi*conj(pi), where chi is the
  sextic residue symbol (4a/pi)_6. pi comes from the norm equation
  4*ell = L^2 + 27*M^2, so the count costs O(log ell) instead of O(ell).
* 3-torsion: for ell = 1 mod 3 an F_ell-point of order 3 exists iff a
  is a square mod ell; for ell = 2 mod 3 it always exists.

The naive enumerating counter stays as the oracle the fast path is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .eisenstein import EisensteinInt, solve_norm_equation
from .ff_arith import _legendre_raw, is_prime


class BadReductionError(ValueError):
    """Raised when asked to count points at a prime of bad reduction."""


class CountMethod(Enum):
    NAIVE = "naive"
    SUPERSINGULAR = "supersingular"
    CM_NORM_EQUATION = "cm-norm-equation"


@dataclass(frozen=True)
class CurveParam:
    """The coefficient a of E_a: y^2 = x^3 + a. Must be nonzero."""

    a: int

    def __post_init__(self) -> None:
        if self.a == 0:
            raise ValueError("a must be nonzero (a = 0 is not an elliptic curve)")


@dataclass(frozen=True)
class TraceData:
    """#E_a(F_ell) together with the Frobenius trace t = ell + 1 - count."""

    ell: int
    count: int
    trace: int
    method: CountMethod

    def __post_init__(self) -> None:
        if self.count != self.ell + 1 - self.trace:
            raise ValueError("count and trace are inconsistent")
        if self.trace * self.trace > 4 * self.ell:
            raise ValueError(f"trace {self.trace} violates the Hasse bound for {self.ell}")


def _as_curve(a: int | CurveParam) -> CurveParam:
    return a if isinstance(a, CurveParam) else CurveParam(a)


def _check_good_reduction(a: int, ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if (6 * a) % ell == 0:
        raise BadReductionError(f"ell = {ell} divides 6a (a = {a}): bad reduction")


def naive_count(a: int | CurveParam, ell: int) -> TraceData:
    """Count points by enumeration: the O(ell) reference oracle.

    The count is 1 + sum over x of #{y : y^2 = x^3 + a}, i.e.
    1 + sum_x (1 + legendre(x^3 + a)); the square-count table below
    computes the same sum without a modular exponentiation per x.
    """
    curve = _as_curve(a)
    _check_good_reduction(curve.a, ell)
    sq = [0] * ell
    for y in range(ell):
        sq[y * y % ell] += 1
    aa = curve.a % ell
    total = 1
    for x in range(ell):
        total += sq[(x * x * x + aa) % ell]
    return TraceData(ell=ell, count=total, trace=ell + 1 - total, method=CountMethod.NAIVE)


def fast_count(a: int | CurveParam, ell: int, seed: int = 0) -> TraceData:
    """CM point count in O(log ell), from the sextic residue symbol.

    For ell = 2 mod 3 the curve is supersingular: #E = ell + 1. For
    ell = 1 mod 3 write ell = pi * conj(pi) with pi = x + y*zeta primary
    (pi = 2 mod 3); from 4*ell = L^2 + 27*M^2, pi = (L + 3M)/2 + 3M*zeta.
    Then (Ireland & Rosen, A Classical Introduction to Modern Number
    Theory, ch. 18 sec. 3)

        #E_a(F_ell) = ell + 1 + conj(chi)*pi + chi*conj(pi),

    chi = (4a/pi)_6 the sextic residue symbol, the unit congruent to
    (4a)^((ell-1)/6) mod pi. Sending zeta to r = -x/y mod ell maps pi
    to 0, so chi is the unit whose image in F_ell is that power, and
    the trace is t = -Tr(conj(chi)*pi). The seed is accepted for
    compatibility and does not affect the result.
    """
    curve = _as_curve(a)
    _check_good_reduction(curve.a, ell)
    if ell % 3 == 2:
        return TraceData(ell=ell, count=ell + 1, trace=0, method=CountMethod.SUPERSINGULAR)

    pair = solve_norm_equation(ell)
    # L and M share parity (4*ell = L^2 + 27 M^2 mod 4), so x is an integer.
    pi = EisensteinInt((pair.L + 3 * pair.M) // 2, 3 * pair.M)
    r = -pi.x * pow(pi.y, -1, ell) % ell
    power = pow(4 * curve.a, (ell - 1) // 6, ell)
    # 1 + zeta = -zeta^2 generates the six units; its image is 1 + r.
    unit, image = EisensteinInt(1, 0), 1
    for _ in range(6):
        if image == power:
            z = unit.conjugate() * pi
            t = -(2 * z.x - z.y)  # Tr(x + y*zeta) = 2x - y
            return TraceData(ell=ell, count=ell + 1 - t, trace=t, method=CountMethod.CM_NORM_EQUATION)
        unit, image = unit * EisensteinInt(1, 1), image * (1 + r) % ell
    raise ArithmeticError(f"(4*{curve.a})^(({ell}-1)/6) is not a sixth root of unity mod {ell}")


def torsion3_trivial(a: int | CurveParam, ell: int) -> bool:
    """True iff the reduced curve has no F_ell-point of order 3.

    ell = 2 mod 3: the count is ell + 1 = 0 mod 3, so there is always
    3-torsion — return False.

    ell = 1 mod 3: the 3-division polynomial of y^2 = x^3 + a factors
    as 3x(x^3 + 4a), so an order-3 point exists over F_ell iff x = 0
    gives one (a is a square) or a root of x^3 = -4a does (-4a is a
    cube and y^2 = -3a is solvable). Since -3 is a square mod ell, the
    second case needs a to be a square as well, so the test reduces to
    the Legendre symbol: trivial iff (a/ell) = -1 (Ireland & Rosen,
    ch. 18 sec. 3).
    """
    curve = _as_curve(a)
    _check_good_reduction(curve.a, ell)
    return _torsion3_trivial_raw(curve.a, ell)


def _torsion3_trivial_raw(a: int, ell: int) -> bool:
    # Hot-path variant: ell already known prime, ell does not divide 6a.
    return ell % 3 == 1 and _legendre_raw(a, ell) == -1
