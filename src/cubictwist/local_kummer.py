"""Local behavior of primes of K = Q(zeta_3) in the Kummer extension K(m^(1/3)).

For each finite place v of K the extension L_m = K(m^(1/3)) either
splits completely at v, stays inert, or ramifies. The classification is
pure local arithmetic:

* v away from 3: ramified iff v(m) is not a multiple of 3; otherwise
  split iff the unit part of m is a cube in the completion's residue
  field (always true in the inert quadratic completions for rational m).
* v above 3 (the wild place w = 1 - zeta): m = +-1 mod 9 forces split;
  otherwise m is not a unit cube mod w^3 and the place ramifies.

The stability report then itemizes, for a curve coefficient a, exactly
which places constrain the 3-Selmer group's vanishing in L_m and
whether each constraint holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .curve_count import _torsion3_trivial_raw
from .eisenstein import EisensteinInt, is_unit_cube_mod_w_power
from .factorint import cubefree_core, factorize, prime_divisors
from .ff_arith import _is_cube_raw, is_prime


class KummerLocalType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class PlaceOfK:
    """A finite place of K, named by its residue characteristic.

    A rational prime ell = 1 mod 3 has two places above it,
    distinguished by split_index (the two roots of x^2 + x + 1 mod ell);
    otherwise there is a single place and split_index must be 0.
    """

    residue_char: int
    split_index: int = 0

    def __post_init__(self) -> None:
        if not is_prime(self.residue_char):
            raise ValueError(f"{self.residue_char} is not prime")
        if self.split_index not in (0, 1):
            raise ValueError("split_index must be 0 or 1")
        if self.split_index == 1 and self.residue_char % 3 != 1:
            raise ValueError(
                f"{self.residue_char} has a single place; split_index must be 0"
            )


def _radicand_core(m: int) -> int:
    """Reduce m to the positive cubefree radicand defining K(m^(1/3)).

    Sign and cube factors do not change the field (-1 is a cube).
    Raises if the extension degenerates (m = 0 or |m| a perfect cube).
    """
    if m == 0:
        raise ValueError("m = 0 does not define a Kummer extension")
    core = cubefree_core(m)
    if core == 1:
        raise ValueError(f"m = {m} is a perfect cube (up to sign): K(m^(1/3)) = K")
    return core


def classify_place(v: PlaceOfK, m: int) -> KummerLocalType:
    """Split / inert / ramified type of v in K(m^(1/3))."""
    tag, _ = classify_place_detailed(v, m)
    return tag


def classify_place_detailed(v: PlaceOfK, m: int) -> tuple[KummerLocalType, tuple[str, ...]]:
    """classify_place plus notes about which criterion decided."""
    core = _radicand_core(m)
    ell = v.residue_char

    if ell != 3:
        val = factorize(core).get(ell, 0)
        if val % 3 != 0:
            return KummerLocalType.RAMIFIED, (f"v(m) = {val} not divisible by 3",)
        # unit at v: split iff the unit is a cube in the residue field
        if ell % 3 == 1:
            if _is_cube_raw(core % ell, ell):
                return KummerLocalType.SPLIT, ("unit part is a cube mod ell",)
            return KummerLocalType.INERT, ("unit part is a non-cube mod ell",)
        # inert residue field F_{ell^2}: a rational unit x has
        # x^((ell^2-1)/3) = (x^(ell-1))^((ell+1)/3) = 1, so it is a cube
        return KummerLocalType.SPLIT, ("rational units are cubes in F_{ell^2}",)

    # v above 3: the wild place w = 1 - zeta
    if core % 3 == 0:
        val = 2 * factorize(core)[3]  # v_w = 2 * v_3 since (3) = (w^2)
        return KummerLocalType.RAMIFIED, (f"v_w(m) = {val} not divisible by 3",)
    if core % 9 in (1, 8):
        # m^2 = 1 mod 9 puts m in the principal units' cubes: split
        return KummerLocalType.SPLIT, ("m = +-1 mod 9",)
    # The rational unit cubes mod w^3 are exactly the classes +-1 mod 9
    # handled above, so every other unit ramifies here.
    if not is_unit_cube_mod_w_power(EisensteinInt(core, 0), 3):
        return KummerLocalType.RAMIFIED, ("m is not a unit cube mod w^3",)
    raise ArithmeticError(f"{core} is a unit cube mod w^3 but not +-1 mod 9")


def places_above(ell: int) -> list[PlaceOfK]:
    """The one or two places of K over a rational prime."""
    if ell % 3 == 1:
        return [PlaceOfK(ell, 0), PlaceOfK(ell, 1)]
    return [PlaceOfK(ell)]


@dataclass(frozen=True)
class PlaceVerdict:
    """One place's requirement for Selmer stability, and whether it holds."""

    ell: int
    split_index: int
    role: str  # "above-3" | "bad-reduction" | "kummer-ramified"
    requirement: str
    classification: str
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class StabilityReport:
    a: int
    m: int
    places: tuple[PlaceVerdict, ...]
    all_hold: bool
    notes: tuple[str, ...] = ()


def selmer_stability_report(a: int, m: int) -> StabilityReport:
    """Itemize the local conditions for Sel_3 to stay zero in K(m^(1/3)).

    Three kinds of places matter; all others impose no condition.

    * the place above 3 (E_a has additive reduction there): must split;
    * places of bad reduction of E_a away from 3 (the primes dividing
      6a — 2 is always bad): must split;
    * places that ramify in K(m^(1/3)) (the primes dividing the
      cubefree radicand): E_a must have good reduction with trivial
      3-torsion on the residue curve there.

    The report carries one verdict per place and their conjunction. It
    asserts nothing about Sel_3(E_a/K) itself — that is the certifier's
    separate input.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    core = _radicand_core(m)  # raises for degenerate m
    notes: list[str] = []
    if abs(m) != core:
        notes.append(f"radicand reduced to cubefree core {core}")

    verdicts: list[PlaceVerdict] = []

    # place above 3: additive reduction, so it must split in L_m
    tag, why = classify_place_detailed(PlaceOfK(3), m)
    verdicts.append(
        PlaceVerdict(
            ell=3,
            split_index=0,
            role="above-3",
            requirement="splits in K(m^(1/3))",
            classification=tag.value,
            holds=tag is KummerLocalType.SPLIT,
            detail="; ".join(why),
        )
    )

    # bad-reduction places away from 3
    bad = sorted(set(prime_divisors(6 * a)) - {3})
    for q in bad:
        for place in places_above(q):
            tag, why = classify_place_detailed(place, m)
            verdicts.append(
                PlaceVerdict(
                    ell=q,
                    split_index=place.split_index,
                    role="bad-reduction",
                    requirement="splits in K(m^(1/3))",
                    classification=tag.value,
                    holds=tag is KummerLocalType.SPLIT,
                    detail="; ".join(why),
                )
            )

    # places ramified in L_m: primes of the radicand not already covered
    for ell in prime_divisors(core):
        if ell == 3 or ell in bad:
            continue  # already constrained above (and already failing there)
        for place in places_above(ell):
            if ell % 3 == 1:
                ok = _torsion3_trivial_raw(a, ell)
                detail = (
                    "good reduction; residue field F_ell; 3-torsion "
                    + ("trivial" if ok else "nontrivial")
                )
            else:
                # inert: residue field F_{ell^2} with (ell+1)^2 points
                # on the reduced curve — always divisible by 9
                ok = False
                detail = (
                    "good reduction, but the residue field is F_{ell^2}: "
                    "#E(F_{ell^2}) = (ell+1)^2 is divisible by 3"
                )
            verdicts.append(
                PlaceVerdict(
                    ell=ell,
                    split_index=place.split_index,
                    role="kummer-ramified",
                    requirement="good reduction and trivial 3-torsion at v",
                    classification=KummerLocalType.RAMIFIED.value,
                    holds=ok,
                    detail=detail,
                )
            )

    return StabilityReport(
        a=a,
        m=m,
        places=tuple(verdicts),
        all_hold=all(p.holds for p in verdicts),
        notes=tuple(notes),
    )
