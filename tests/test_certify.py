"""End-to-end certification pipeline and the embedded descent table."""

import pytest

from cubictwist.admissible import enumerate_m, generate_Qa
from cubictwist.certify import (
    CertCheck,
    CertConclusion,
    certify,
    conclude,
    selmer_table_lookup,
    trivial_selmer_coefficients,
)

TRIVIAL_15 = [-17, -16, -14, -10, -9, -8, -6, -5, -1, 6, 7, 8, 13, 14, 20]


def test_trivial_selmer_coefficients():
    assert trivial_selmer_coefficients() == TRIVIAL_15


def test_table_lookup_known_rows():
    row = selmer_table_lookup(-1)
    assert row.sel3_K == "0"
    assert row.s == 0
    assert str(row.density) == "1/24"
    assert row.sel3_K_trivial

    row7 = selmer_table_lookup(7)
    assert row7.s == 1
    assert str(row7.density) == "1/72"

    row15 = selmer_table_lookup(15)
    assert row15.sel3_K == "(Z/3Z)^4"
    assert not row15.sel3_K_trivial
    assert row15.s is None and row15.density is None

    row2 = selmer_table_lookup(2)
    assert row2.sel3_K == "(Z/3Z)^2"
    assert not row2.sel3_K_trivial


def test_table_lookup_missing():
    assert selmer_table_lookup(23) is None
    assert selmer_table_lookup(1000) is None


def test_table_has_34_rows():
    present = [a for a in range(-100, 101) if selmer_table_lookup(a) is not None]
    assert len(present) == 34
    assert all(-20 <= a <= 20 and a != 0 for a in present)


def test_certify_basic_positive():
    rep = certify(-1, 19)
    assert rep.conclusion is CertConclusion.CERTIFIED
    assert not rep.conditional
    assert rep.failed_checks == ()
    assert rep.stability is not None and rep.stability.all_hold
    names = [c.name for c in rep.checks]
    assert names == [
        "a_admissible",
        "selmer_vanishes_known",
        "m_positive",
        "m_cubefree",
        "m_congruent_1_mod_9",
        "all_prime_factors_in_Ma",
        "m_cube_mod_each_q",
        "local_conditions_hold",
    ]


def test_certify_failure_modes():
    rep = certify(-1, 4)
    assert rep.conclusion is CertConclusion.NOT_CERTIFIED
    assert "m_congruent_1_mod_9" in rep.failed_checks

    rep = certify(-1, 8 * 19)  # 2^3 * 19 is not cubefree
    assert rep.conclusion is CertConclusion.NOT_CERTIFIED
    assert "m_cubefree" in rep.failed_checks

    rep = certify(-1, -19)
    assert rep.conclusion is CertConclusion.NOT_CERTIFIED
    assert "m_positive" in rep.failed_checks
    pos_check = next(c for c in rep.checks if c.name == "m_positive")
    assert "|m|" in pos_check.detail or "19" in pos_check.detail

    rep = certify(4, 19)  # a = 2^2 inadmissible
    assert rep.conclusion is CertConclusion.NOT_CERTIFIED
    assert "a_admissible" in rep.failed_checks


def test_certify_unknown_selmer_short_circuits():
    rep = certify(23, 19)
    assert rep.conclusion is CertConclusion.UNKNOWN_SELMER_INPUT
    # the pipeline stops at the unknown input; no m-checks are emitted
    assert [c.name for c in rep.checks] == ["a_admissible", "selmer_vanishes_known"]
    assert rep.stability is None


def test_certify_nontrivial_selmer_is_failure_not_unknown():
    # a = 2 is in the table with Sel_3 = (Z/3Z)^2: known, and known bad
    rep = certify(2, 19)
    assert rep.conclusion is CertConclusion.NOT_CERTIFIED
    assert "selmer_vanishes_known" in rep.failed_checks


def test_certify_assertion_ignored_when_table_knows():
    rep = certify(2, 19, selmer_assertion=True)
    assert rep.conclusion is CertConclusion.NOT_CERTIFIED
    assert any("table" in n for n in rep.notes)


def test_certify_conditional_outside_table():
    # a = 23 is outside the table; an explicit assertion makes the
    # result conditional on that assertion
    ms = enumerate_m(23, 3000)
    assert ms, "expected at least one admissible m for a = 23"
    rep = certify(23, ms[0], selmer_assertion=True)
    assert rep.conclusion is CertConclusion.CERTIFIED
    assert rep.conditional
    assert "conditional" in rep.conclusion_detail.lower()


def test_certify_identity_twist():
    rep = certify(-1, 1)
    assert rep.conclusion is CertConclusion.CERTIFIED
    assert rep.stability is None
    assert any("identity" in n for n in rep.notes)


def test_certify_rejects_zero():
    with pytest.raises(ValueError):
        certify(0, 19)
    with pytest.raises(ValueError):
        certify(-1, 0)


def test_conclude_precedence():
    ok = CertCheck("x", True)
    bad = CertCheck("y", False)
    unk = CertCheck("z", None)
    assert conclude([ok, ok]) is CertConclusion.CERTIFIED
    assert conclude([ok, bad, unk]) is CertConclusion.NOT_CERTIFIED
    assert conclude([unk, bad]) is CertConclusion.NOT_CERTIFIED
    assert conclude([ok, unk]) is CertConclusion.UNKNOWN_SELMER_INPUT
    assert conclude([]) is CertConclusion.CERTIFIED


def test_qa_route_agrees_on_enumerated_m():
    for a in (-1, 7):
        for m in enumerate_m(a, 1500):
            assert certify(a, m).conclusion is CertConclusion.CERTIFIED


def test_ma_route_strictly_wider():
    # m = 217 = 7 * 31: both factors in M_{-1}, product 1 mod 9, but
    # 7 = 7 mod 18 is not in Q_{-1}. The M-route certifies m, which the
    # Q_a products of enumerate_m do not reach.
    qa_primes = {r.ell for r in generate_Qa(-1, 250)}
    assert 7 not in qa_primes and 31 not in qa_primes
    assert certify(-1, 217).conclusion is CertConclusion.CERTIFIED
    assert 217 not in enumerate_m(-1, 250)


def test_certified_conclusion_names_both_twists():
    rep = certify(-1, 19)
    assert "19^2" in rep.conclusion_detail
    assert "19^4" in rep.conclusion_detail
    assert "rank 0" in rep.conclusion_detail


def test_mutation_single_condition_breaks():
    # take a certified pair and mutate m one condition at a time
    a, m = -1, 19
    assert certify(a, m).conclusion is CertConclusion.CERTIFIED
    mutations = {
        "congruence": 7,  # in M_a but 7 != 1 mod 9
        "membership": 37,  # 37 = 1 mod 9 but 37 not in M_{-1}
        "cubefree": 19**3 * 19,  # cube introduced
        "sign": -19,
    }
    for label, bad_m in mutations.items():
        rep = certify(a, bad_m)
        assert rep.conclusion is CertConclusion.NOT_CERTIFIED, label
