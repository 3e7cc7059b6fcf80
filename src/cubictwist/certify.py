"""End-to-end rank-0 certification for cubic twists.

Given (a, m), check every hypothesis under which the vanishing of
Sel_3(E_a/K) over K = Q(zeta_3) propagates to the twists by m^2 and
m^4:

  1. a is admissible (not a square, not -3 times a square);
  2. Sel_3(E_a/K) = 0 — an *input*, from the embedded descent table for
     |a| <= 20 or an explicit caller assertion, never computed here;
  3. m is a positive cubefree integer;
  4. m = 1 mod 9;
  5. every prime factor of m lies in M_a;
  6. m is a cube modulo every prime divisor q of a.

On success the conclusion is Certified:
Sel_3(E_{m^2 a}/K) = Sel_3(E_{m^4 a}/K) = 0, so both twists have rank 0
over K. Each check is itemized in the report so a failure names exactly
the hypothesis that broke.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from importlib import resources

from .admissible import a_admissible, in_Ma
from .factorint import factorize
from .ff_arith import _is_cube_raw
from .local_kummer import StabilityReport, selmer_stability_report

_M_RANGE_CAP = 1 << 64


class CertConclusion(Enum):
    CERTIFIED = "Certified"
    NOT_CERTIFIED = "NotCertified"
    UNKNOWN_SELMER_INPUT = "UnknownSelmerInput"


@dataclass(frozen=True)
class SelmerTableEntry:
    """One row of the embedded 3-descent table (coefficients in [-20, 20])."""

    a: int
    sel3_Q: str
    sel3_twist_Q: str
    sel3_K: str
    s: int | None
    density: Fraction | None

    @property
    def sel3_K_trivial(self) -> bool:
        return self.sel3_K == "0"


@dataclass(frozen=True)
class CertCheck:
    """One hypothesis: passed is True/False, or None when undecidable."""

    name: str
    passed: bool | None
    detail: str = ""


@dataclass(frozen=True)
class CertReport:
    a: int
    m: int
    checks: tuple[CertCheck, ...]
    conclusion: CertConclusion
    conclusion_detail: str
    conditional: bool = False
    notes: tuple[str, ...] = ()
    stability: StabilityReport | None = None

    @property
    def failed_checks(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if c.passed is False)


_table_cache: dict[int, SelmerTableEntry] | None = None


def _load_table() -> dict[int, SelmerTableEntry]:
    global _table_cache
    if _table_cache is None:
        raw = json.loads(
            resources.files("cubictwist").joinpath("data/selmer_table.json").read_text()
        )
        _table_cache = {}
        for row in raw["rows"]:
            _table_cache[row["a"]] = SelmerTableEntry(
                a=row["a"],
                sel3_Q=row["sel3_Q"],
                sel3_twist_Q=row["sel3_twist_Q"],
                sel3_K=row["sel3_K"],
                s=row["s"],
                density=Fraction(row["density"]) if row["density"] else None,
            )
    return _table_cache


def selmer_table_lookup(a: int) -> SelmerTableEntry | None:
    """The embedded descent-table row for a, or None if a is not tabulated."""
    return _load_table().get(a)


def trivial_selmer_coefficients() -> list[int]:
    """All tabulated a with Sel_3(E_a/K) = 0, ascending."""
    return sorted(a for a, row in _load_table().items() if row.sel3_K_trivial)


def conclude(checks: list[CertCheck]) -> CertConclusion:
    """Fold itemized checks into a conclusion.

    Any hard failure dominates; otherwise any undecided check (the
    Selmer input) leaves the verdict unknown; otherwise certified.
    """
    if any(c.passed is False for c in checks):
        return CertConclusion.NOT_CERTIFIED
    if any(c.passed is None for c in checks):
        return CertConclusion.UNKNOWN_SELMER_INPUT
    return CertConclusion.CERTIFIED


def _selmer_check(a: int, selmer_assertion: bool | None) -> tuple[CertCheck, bool, list[str]]:
    """The Selmer-vanishing input check; returns (check, conditional, notes)."""
    notes: list[str] = []
    row = selmer_table_lookup(a)
    if row is not None:
        if selmer_assertion is not None:
            notes.append(
                "selmer assertion ignored: a is in the embedded descent table, which is authoritative"
            )
        if row.sel3_K_trivial:
            return CertCheck("selmer_vanishes_known", True, "table: Sel_3(E_a/K) = 0"), False, notes
        return (
            CertCheck("selmer_vanishes_known", False, f"table: Sel_3(E_a/K) = {row.sel3_K} != 0"),
            False,
            notes,
        )
    if selmer_assertion is True:
        notes.append("certification is conditional on the asserted vanishing of Sel_3(E_a/K)")
        return CertCheck("selmer_vanishes_known", True, "caller-asserted: Sel_3(E_a/K) = 0"), True, notes
    if selmer_assertion is False:
        return CertCheck("selmer_vanishes_known", False, "caller asserts Sel_3(E_a/K) != 0"), False, notes
    return (
        CertCheck(
            "selmer_vanishes_known",
            None,
            "a outside the embedded table and no assertion supplied",
        ),
        False,
        notes,
    )


def certify(a: int, m: int, selmer_assertion: bool | None = None) -> CertReport:
    """Certify rank 0 for the cubic twists of E_a by m^2 and m^4.

    selmer_assertion supplies Sel_3(E_a/K) = 0 (True) or != 0 (False)
    for coefficients outside the embedded table; inside the table it is
    ignored. The report itemizes every hypothesis.

    >>> certify(-1, 19).conclusion
    <CertConclusion.CERTIFIED: 'Certified'>
    >>> certify(-1, 4).conclusion
    <CertConclusion.NOT_CERTIFIED: 'NotCertified'>
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if m == 0:
        raise ValueError("m must be nonzero")

    checks: list[CertCheck] = []
    notes: list[str] = []

    adm = a_admissible(a)
    checks.append(CertCheck("a_admissible", adm.ok, adm.reason or "not a square and not -3*square"))

    selmer, conditional, selmer_notes = _selmer_check(a, selmer_assertion)
    checks.append(selmer)
    notes.extend(selmer_notes)

    if selmer.passed is None:
        # The Selmer input is the pipeline's gate: without it no
        # conclusion is reachable, so later hypotheses go unevaluated.
        conclusion = conclude(checks)
        detail = (
            "Sel_3(E_a/K) is unknown for this a: pass an explicit assertion "
            "or choose a tabulated coefficient"
            if conclusion is CertConclusion.UNKNOWN_SELMER_INPUT
            else "failed hypotheses: " + ", ".join(c.name for c in checks if c.passed is False)
        )
        return CertReport(
            a=a,
            m=m,
            checks=tuple(checks),
            conclusion=conclusion,
            conclusion_detail=detail,
            notes=tuple(notes),
        )

    if m < 0:
        checks.append(
            CertCheck(
                "m_positive",
                False,
                f"m = {m} < 0; the certified statement covers positive m "
                f"(the field K(m^(1/3)) equals K(({-m})^(1/3)) — retry with m = {-m})",
            )
        )
    else:
        checks.append(CertCheck("m_positive", True))

    mf: dict[int, int] | None = None
    if abs(m) >= _M_RANGE_CAP:
        checks.append(
            CertCheck("m_cubefree", False, "|m| >= 2^64: outside the supported factorization range")
        )
    else:
        mf = factorize(m)
        cubefree = all(e < 3 for e in mf.values())
        checks.append(
            CertCheck(
                "m_cubefree",
                cubefree,
                "" if cubefree else "cube divisor: " + "*".join(f"{p}^{e}" for p, e in mf.items() if e >= 3),
            )
        )

    mod9 = m % 9
    checks.append(
        CertCheck(
            "m_congruent_1_mod_9",
            mod9 == 1,
            "" if mod9 == 1 else f"m = {mod9} mod 9",
        )
    )
    if mod9 == 8:
        notes.append(
            "m = -1 mod 9: the two-sided congruence m^2 = 1 mod 9 controlling wild "
            "ramification holds, but certification requires m = 1 mod 9 exactly"
        )

    if mf is not None:
        outside_ma = sorted(p for p in mf if not in_Ma(a, p))
        checks.append(
            CertCheck(
                "all_prime_factors_in_Ma",
                not outside_ma,
                "" if not outside_ma else f"primes outside M_a: {outside_ma}",
            )
        )

    cube_fails = []
    for q in factorize(a):
        if m % q == 0:
            cube_fails.append(q)
        elif not _is_cube_raw(m % q, q):
            cube_fails.append(q)
    checks.append(
        CertCheck(
            "m_cube_mod_each_q",
            not cube_fails,
            "" if not cube_fails else f"m is not a cube modulo: {cube_fails}",
        )
    )

    # per-place local conditions (skipped when the extension degenerates)
    stability: StabilityReport | None = None
    if m == 1:
        notes.append("m = 1 is the identity twist: K(m^(1/3)) = K and there is nothing to extend")
    else:
        try:
            stability = selmer_stability_report(a, m)
            checks.append(
                CertCheck(
                    "local_conditions_hold",
                    stability.all_hold,
                    "" if stability.all_hold else "failing places: "
                    + ", ".join(
                        f"{p.ell} ({p.role})" for p in stability.places if not p.holds
                    ),
                )
            )
        except ValueError as exc:  # degenerate radicand (perfect cube)
            checks.append(CertCheck("local_conditions_hold", False, str(exc)))

    conclusion = conclude(checks)
    if conclusion is CertConclusion.CERTIFIED:
        detail = (
            f"Sel_3(E_({m}^2*{a})/K) = Sel_3(E_({m}^4*{a})/K) = 0; "
            "both cubic twists have rank 0 over K = Q(zeta_3)"
        )
        if conditional:
            detail += " (conditional on the asserted Selmer input)"
    elif conclusion is CertConclusion.NOT_CERTIFIED:
        failed = [c.name for c in checks if c.passed is False]
        detail = "failed hypotheses: " + ", ".join(failed)
    else:
        detail = (
            "Sel_3(E_a/K) is unknown for this a: pass an explicit assertion "
            "or choose a tabulated coefficient"
        )

    return CertReport(
        a=a,
        m=m,
        checks=tuple(checks),
        conclusion=conclusion,
        conclusion_detail=detail,
        conditional=conditional and conclusion is CertConclusion.CERTIFIED,
        notes=tuple(notes),
        stability=stability,
    )
