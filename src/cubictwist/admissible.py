"""Admissible prime sets for cubic twisting, and their density.

Two nested prime sets control which twist parameters m are usable for a
given coefficient a:

* M_a: primes ell not dividing a, ell = 1 mod 6, with trivial 3-torsion
  on the reduced curve.
* Q_a: the subset where additionally ell = 1 mod 18 and ell is a cube
  modulo every prime divisor q of a.

Products of Q_a primes (cubefree, exponents 1 or 2) are exactly the m
values the certifier accepts wholesale. Also computed here: the constant
1/(8 * 3^(s+1)) shipped with the embedded table's density column — s the
number of prime divisors of a congruent to 1 mod 3 — and an empirical
estimate from an honest sieve so the two can be compared. The shipped
constant is not the density of Q_a: for admissible a, Q_a has Dirichlet
density 1/(4 * 3^(s+1)), twice as large (README, "Known discrepancy").

Q_a membership of a prime depends only on its class mod
N = lcm(36, 4|a|), so the empirical count looks each sieved prime up in
a boolean table of those classes, built once per call. When N is large
(above `_TABLE_CAP`, or above limit / 8) the table would cost more than
it saves, and the count falls back to `_qa_conditions` per prime. The
listings (`generate_Qa`, `generate_Ma`) check each prime with
`_qa_conditions`, since they report its reasons.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .curve_count import _torsion3_trivial_raw
from .factorint import is_perfect_square, prime_divisors
from .ff_arith import _is_cube_raw, _jacobi_raw, is_prime
from .sieve import SEGMENT_SIZE, primes_in_segment, segment_bounds, simple_sieve

# Most classes the density table may have: 4 MB of bools. Building it
# takes one step per class = 1 mod 18, n/18 steps; the per-prime loop it
# replaces takes one _qa_conditions call, of about the same cost, per
# prime = 1 mod 18 up to limit, about limit / (6 log limit) calls. So the
# table is also held to n <= limit / 8, which keeps n/18 below that count
# for every limit < e^24. (At limit 10^7 and n just below limit / 8, the
# build took about half the time of the loop.)
_TABLE_CAP = 1 << 22


@dataclass(frozen=True)
class AdmissibilityResult:
    """Whether a qualifies as a twist coefficient, with the reason if not."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def a_admissible(a: int) -> AdmissibilityResult:
    """a is admissible unless it is n^2 or -3*n^2 for an integer n.

    Those excluded shapes are exactly the a whose curve has extra
    3-structure over Q(zeta_3) (a square in K), which breaks every
    downstream argument.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if is_perfect_square(a):
        return AdmissibilityResult(False, f"a = {math.isqrt(a)}^2 is a perfect square")
    if a < 0 and a % 3 == 0 and is_perfect_square(-a // 3):
        return AdmissibilityResult(False, f"a = -3*{math.isqrt(-a // 3)}^2")
    return AdmissibilityResult(True)


def compute_s(a: int) -> int:
    """Number of distinct primes q | a with q = 1 mod 3."""
    if a == 0:
        raise ValueError("a must be nonzero")
    return sum(1 for q in prime_divisors(a) if q % 3 == 1)


def predicted_density(a: int) -> Fraction:
    """The shipped closed-form constant 1/(8 * 3^(s+1)), exactly.

    This is the density column of the embedded table, returned as
    shipped. It is not the density of Q_a, which for admissible a is
    1/(4 * 3^(s+1)): twice this value.

    >>> predicted_density(-1)
    Fraction(1, 24)
    >>> predicted_density(7)
    Fraction(1, 72)
    """
    return Fraction(1, 8 * 3 ** (compute_s(a) + 1))


def density_warnings(a: int) -> tuple[str, ...]:
    """Caveats attached when a falls outside the density formula's hypotheses."""
    warnings = []
    adm = a_admissible(a)
    if not adm:
        warnings.append(f"density-hypotheses-not-met: {adm.reason}")
    if a % 3 == 0:
        warnings.append("density-hypotheses-not-met: 3 divides a")
    return tuple(warnings)


@dataclass(frozen=True)
class AdmissiblePrimeRecord:
    """A prime admitted to M_a / Q_a, with its per-condition verdicts."""

    ell: int
    in_Ma: bool
    in_Qa: bool
    reasons: dict = field(compare=False)


@dataclass(frozen=True)
class DensityReport:
    a: int
    s: int
    predicted: Fraction
    limit: int
    primes_total: int
    primes_in_qa: int
    empirical: Fraction
    deviation: Fraction
    warnings: tuple[str, ...] = ()


def _qa_conditions(a: int, ell: int, qs: list[int]) -> tuple[bool, dict]:
    """Full Q_a membership check for a single prime, with reasons."""
    reasons: dict = {"residue_mod_18": ell % 18}
    if a % ell == 0:
        reasons["divides_a"] = True
        return False, reasons
    if ell % 18 != 1:
        return False, reasons
    cube_verdicts = {}
    ok = True
    for q in qs:
        good = _is_cube_raw(ell % q, q) if ell % q else False
        cube_verdicts[q] = good
        ok = ok and good
    reasons["cube_mod_q"] = cube_verdicts
    if not ok:
        return False, reasons
    tors = _torsion3_trivial_raw(a, ell)
    reasons["torsion3_trivial"] = tors
    return tors, reasons


def _ma_conditions(a: int, ell: int) -> tuple[bool, dict]:
    reasons: dict = {"residue_mod_6": ell % 6}
    if a % ell == 0:
        reasons["divides_a"] = True
        return False, reasons
    if ell % 6 != 1:
        return False, reasons
    tors = _torsion3_trivial_raw(a, ell)
    reasons["torsion3_trivial"] = tors
    return tors, reasons


def _segments(limit: int, threads: int) -> Iterator[np.ndarray]:
    """Prime segments in deterministic order, optionally sieved in a pool."""
    base = simple_sieve(math.isqrt(max(limit, 0)))
    bounds = segment_bounds(limit, SEGMENT_SIZE)
    if threads <= 1 or len(bounds) <= 1:
        for lo, hi in bounds:
            yield primes_in_segment(lo, hi, base)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(primes_in_segment, lo, hi, base) for lo, hi in bounds]
        for fut in futures:  # submission order == range order: deterministic
            yield fut.result()


def generate_Qa(a: int, limit: int, threads: int = 1) -> list[AdmissiblePrimeRecord]:
    """All primes of Q_a up to limit, ascending, with reason records."""
    if a == 0:
        raise ValueError("a must be nonzero")
    if limit < 2:
        return []
    qs = prime_divisors(a)
    out = []
    for seg in _segments(limit, threads):
        # ell = 1 mod 18 throws away 17 in 18 primes before any curve work
        for ell in seg[seg % 18 == 1]:
            ell = int(ell)
            ok, reasons = _qa_conditions(a, ell, qs)
            if ok:
                out.append(AdmissiblePrimeRecord(ell=ell, in_Ma=True, in_Qa=True, reasons=reasons))
    return out


def generate_Ma(a: int, limit: int, threads: int = 1) -> list[AdmissiblePrimeRecord]:
    """All primes of M_a up to limit, ascending, with reason records."""
    if a == 0:
        raise ValueError("a must be nonzero")
    if limit < 2:
        return []
    qs = prime_divisors(a)
    out = []
    for seg in _segments(limit, threads):
        for ell in seg[seg % 6 == 1]:
            ell = int(ell)
            ok, reasons = _ma_conditions(a, ell)
            if not ok:
                continue
            in_qa, qa_reasons = _qa_conditions(a, ell, qs)
            reasons.update(qa_reasons)
            out.append(AdmissiblePrimeRecord(ell=ell, in_Ma=True, in_Qa=in_qa, reasons=reasons))
    return out


def in_Ma(a: int, ell: int) -> bool:
    if not is_prime(ell):
        return False
    ok, _ = _ma_conditions(a, ell)
    return ok


def enumerate_m(a: int, bound: int, threads: int = 1) -> list[int]:
    """All twist parameters m <= bound built from Q_a primes.

    m ranges over cubefree products of distinct Q_a primes with
    exponents 1 or 2, m > 1, sorted ascending. Every such m is
    automatically = 1 mod 9 and coprime to 3a.
    """
    if bound < 2:
        return []
    primes = [r.ell for r in generate_Qa(a, bound, threads=threads)]
    out: list[int] = []

    def extend(idx: int, acc: int) -> None:
        for i in range(idx, len(primes)):
            p = primes[i]
            if acc * p > bound:
                break  # primes ascend, so every later prime overshoots too
            for e in (1, 2):
                v = acc * p**e
                if v > bound:
                    break
                out.append(v)
                extend(i + 1, v)

    extend(0, 1)
    return sorted(out)


def _qa_table(a: int, qs: list[int], n: int) -> np.ndarray:
    """Q_a membership of a prime ell by its class r = ell mod n.

    n = lcm(36, 4|a|). ell = 1 mod 18 and the cube conditions depend on
    ell mod 18q, and for ell = 1 mod 3 the torsion condition (a/ell) = -1
    is the Jacobi symbol (a/r), which depends only on ell mod 4|a|. A
    class r = 1 mod 18 sharing a factor with n shares it with a, so
    (a/r) = 0 rejects it, as _qa_conditions rejects the primes dividing a.
    """
    cube_qs = [q for q in qs if q % 3 == 1]
    table = np.zeros(n, dtype=bool)
    table[
        [
            r
            for r in range(1, n, 18)
            if all(_is_cube_raw(r % q, q) for q in cube_qs) and _jacobi_raw(a, r) == -1
        ]
    ] = True
    return table


def empirical_density(a: int, limit: int, threads: int = 1) -> DensityReport:
    """Measure #(Q_a up to limit) / pi(limit) against the shipped constant.

    Members are counted by looking up each sieved prime in the class
    table of `_qa_table`, built once per call. Above `_TABLE_CAP` classes,
    or above limit / 8 of them, the table would cost more than it saves,
    and each prime = 1 mod 18 goes through `_qa_conditions` instead.

    `predicted` and `deviation` refer to `predicted_density(a)`. For
    admissible a the empirical value tends to 1/(4 * 3^(s+1)), twice
    that constant, so `deviation` does not shrink as limit grows.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    qs = prime_divisors(a)
    n = math.lcm(36, 4 * abs(a))
    table = _qa_table(a, qs, n) if n <= min(_TABLE_CAP, limit // 8) else None
    total = 0
    members = 0
    for seg in _segments(limit, threads):
        total += len(seg)
        if table is not None:
            members += int(np.count_nonzero(table[seg % n]))
        else:
            members += sum(_qa_conditions(a, int(ell), qs)[0] for ell in seg[seg % 18 == 1])
    predicted = predicted_density(a)
    empirical = Fraction(members, total) if total else Fraction(0)
    return DensityReport(
        a=a,
        s=compute_s(a),
        predicted=predicted,
        limit=limit,
        primes_total=total,
        primes_in_qa=members,
        empirical=empirical,
        deviation=abs(empirical - predicted),
        warnings=density_warnings(a),
    )
