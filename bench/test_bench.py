"""Tests of the benchmark itself: inputs, checker, tracer and self time."""

from __future__ import annotations

import json
import sys
import types
from concurrent.futures import Future
from pathlib import Path

import pytest

import checks
import inputs
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracer():
    run.import_program(ROOT)
    return spans.Tracer()


# --- generator determinism -------------------------------------------------


def _inputs_of(seed: int):
    rows = [inputs.round_pairs(seed, wl, i) for wl in ("density", "listing", "enumerate") for i in range(12)]
    return rows, inputs.query_pass(seed, 0), inputs.query_pass(seed, 1), inputs.small_count_checks(seed)


def test_same_seed_gives_identical_inputs():
    assert _inputs_of(7) == _inputs_of(7)
    assert inputs.certify_pool.__wrapped__() == inputs.certify_pool()
    assert inputs.count_pool.__wrapped__() == inputs.count_pool()


def test_different_seed_gives_different_inputs():
    a, b = _inputs_of(1), _inputs_of(2)
    for part_a, part_b in zip(a, b):
        assert part_a != part_b


def test_rounds_mix_one_row_of_each_class():
    for i in range(len(inputs.S0_ROWS)):
        (s0, _), (s1, _) = inputs.round_pairs(3, "density", i)
        assert s0 in inputs.S0_ROWS and s1 in inputs.S1_ROWS
    rows = inputs.ENUMERATE_S0_ROWS
    assert {inputs.round_pairs(3, "enumerate", i, rows)[0][0] for i in range(15)} == set(rows)


@pytest.mark.parametrize("workload", ["density", "listing", "enumerate"])
def test_cli_inputs_do_not_repeat_within_a_run(workload):
    s0_rows = workloads.WORKLOADS[workload].s0_rows
    n = inputs.distinct_rounds(workload, s0_rows)
    calls = [pair for i in range(n) for pair in inputs.round_pairs(5, workload, i, s0_rows)]
    assert len(set(calls)) == len(calls) == 2 * n
    assert max(offset for _, offset in calls) < inputs.LIMIT_STEP * inputs.OFFSETS[workload]


def test_queries_do_not_repeat_within_a_run():
    passes = [inputs.query_pass(5, i) for i in range(inputs.query_passes())]
    calls = [call for p in passes for call in p]
    assert len(set(calls)) == len(calls)
    assert sorted(passes[0]) == sorted(inputs.query_pass(5, inputs.query_passes()))  # then it wraps
    certify_in, count_in = inputs.warm_up_queries()
    assert len(certify_in) == len(count_in) == inputs.WARM_UP_QUERIES
    assert not set(certify_in) & set(inputs.certify_pool())
    assert not set(count_in) & set(inputs.count_pool())


def test_query_pools_have_the_promised_shapes():
    ms = [m for _, m in inputs.certify_pool()]
    assert {m % 9 for m in ms if m < 1 << 32} == set(range(9))
    assert any(m >= inputs.M_RANGE_CAP for m in ms)
    ells = [ell for _, ell in inputs.count_pool()]
    assert all(inputs.is_prime(ell) and ell % 3 == 1 for ell in ells)
    lo, hi = inputs.ELL_RANGE
    assert lo <= min(ells) and max(ells) <= hi
    calls = inputs.query_pass(1, 0)
    assert len(calls) == inputs.CERTIFY_PER_PASS + inputs.COUNT_PER_PASS
    assert sum(kind == "certify" for kind, _ in calls) == inputs.CERTIFY_PER_PASS
    assert sum(kind == "count" for kind, _ in calls) == inputs.COUNT_PER_PASS


def test_own_primality_test():
    small = set(inputs.SMALL_PRIMES)
    assert all(inputs.is_prime(n) == (n in small) for n in range(1000))
    assert not inputs.is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


# --- the checker catches corrupted results -----------------------------------


def _envelope(result: dict) -> str:
    return json.dumps({"command": "x", "params": {}, "result": result, "version": "0"}, indent=2)


L = 10**7 + 100  # pi(L) = 664581: 10000019 and 10000079 are the primes in (10^7, L]


@pytest.fixture
def checker():
    ref = {
        "density": {f"-1:{L}": [664581, 55440]},
        "qa": {f"-1:{L}": [2, checks.digest([19, 127]), None]},
        "enumerate": {f"-1:{L}": [2, checks.digest([19, 361])]},
        "queries": {"check_names": ["m_congruent_1_mod_9"], "certify": ["C", "N0"], "count": [-4]},
    }
    qa_text = _envelope({"count": 2, "primes": [{"ell": 19}, {"ell": 127}]})
    ref["qa"][f"-1:{L}"][2] = checks.digest(qa_text.encode())
    return checks.Checker(ref), qa_text


def test_prime_pi_oracle():
    assert checks.prime_pi(10**7) == 664579
    assert checks.prime_pi(10**7 + 18) == 664579
    assert checks.prime_pi(10**7 + 19) == 664580
    assert checks.prime_pi(L) == 664581


def _report(conclusion: str, failed: tuple[str, ...]):
    return types.SimpleNamespace(conclusion=types.SimpleNamespace(value=conclusion), failed_checks=failed)


def _count(ell: int, trace: int):
    return types.SimpleNamespace(count=ell + 1 - trace, trace=trace)


def test_checker_accepts_reference_results(checker):
    ck, qa_text = checker
    assert ck.density(-1, L, _envelope({"primes_total": 664581, "primes_in_qa": 55440})) == (None, 664581)
    assert ck.listing("qa", -1, L, qa_text) == (None, 2)
    assert ck.enumerate(-1, L, _envelope({"m_values": [19, 361]})) == (None, 2)
    assert ck.certify(0, _report("Certified", ())) is None
    assert ck.certify(1, _report("NotCertified", ("m_congruent_1_mod_9",))) is None
    assert ck.count(0, 7, _count(7, -4)) is None


def test_checker_catches_corrupted_results(checker):
    ck, qa_text = checker
    assert ck.density(-1, L, _envelope({"primes_total": 664581, "primes_in_qa": 55441}))[0]
    assert ck.density(-1, L, _envelope({"primes_total": 664580, "primes_in_qa": 55440}))[0]
    with pytest.raises(KeyError):  # a limit the reference does not cover
        ck.density(-1, L + 1, _envelope({"primes_total": 664581, "primes_in_qa": 55440}))
    assert ck.listing("qa", -1, L, qa_text.replace("127", "109"))[0]
    assert ck.listing("qa", -1, L, qa_text.replace('"count": 2', '"count":  2'))[0]  # bytes only
    assert ck.enumerate(-1, L, _envelope({"m_values": [19, 37 * 19]}))[0]
    with pytest.raises(ValueError):
        ck.enumerate(-1, L, _envelope({"m_values": [19, 20]}))  # oracle: 20 != 1 mod 9
    assert ck.certify(0, _report("NotCertified", ("m_cubefree",)))
    assert ck.certify(1, _report("NotCertified", ()))
    assert ck.count(0, 7, _count(7, 4))
    assert ck.count(0, 7, types.SimpleNamespace(count=9, trace=-4))  # count != ell + 1 - trace
    assert checks.count_oracle(7, _count(7, 6))  # Hasse: 36 > 28


def test_recorded_reference_matches_the_inputs():
    ck = checks.Checker.load()
    assert len(ck.ref["queries"]["certify"]) == inputs.CERTIFY_POOL_SIZE
    assert len(ck.ref["queries"]["count"]) == inputs.COUNT_POOL_SIZE
    for section, wl in (("density", "density"), ("qa", "listing"), ("ma", "listing"), ("enumerate", "enumerate")):
        workload = workloads.WORKLOADS[wl]()
        want = {checks.key(a, limit) for a, offset in inputs.cli_pairs(wl, workload.s0_rows + inputs.S1_ROWS)
                for kind, limit, _ in workload.argvs(a, offset) if kind.startswith(section)}
        assert set(ck.ref[section]) == want
    assert all(total == checks.prime_pi(int(k.split(":")[1])) for k, (total, _) in ck.ref["density"].items())


# --- self time with overlapping children -------------------------------------


def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([(1, 4), (3, 6), (8, 9)]) == 6
    assert spans.union_length([(1, 4), (3, 6), (8, 9)], 2, 8.5) == 4.5
    assert spans.union_length([]) == 0


MAIN, WORKER = 1, 2


def test_self_time_subtracts_union_of_overlapping_children():
    # parent [0, 10]; three same-thread children, two overlapping on [3, 4]
    sp = [
        (1, "admissible.generate_Qa", 0.0, 10.0, None, 5, MAIN),
        (2, "sieve.primes_in_segment", 1.0, 4.0, 1, 100, MAIN),
        (3, "sieve.primes_in_segment", 3.0, 6.0, 1, 100, MAIN),
        (4, "sieve.primes_in_segment", 8.0, 9.0, 1, 100, MAIN),
        (5, "factorint.factorize", 8.5, 8.8, 4, None, MAIN),
    ]
    selft = spans.self_times(sp)
    assert selft[1] == pytest.approx(4.0)  # 10 - |[1,6] u [8,9]|, not 10 - 7
    assert selft[4] == pytest.approx(0.7)
    m = spans.layer_metrics(sp, 10, [(-1.0, 11.0)])
    assert m["admissible.filter_self_s"] == pytest.approx(4.0)
    assert m["sieve.busy_s"] == pytest.approx(6.0)
    assert m["sieve.segments"] == 3 and m["sieve.primes"] == 300
    assert m["admissible.yield"] == pytest.approx(0.5)
    assert m["trace.unattributed_s"] == pytest.approx(2.0)


def test_self_time_keeps_work_that_overlaps_worker_children():
    # The owner filters on the main thread over [0, 10] while worker
    # segments run over [1, 5] and [4, 9]; it blocks on the pool only
    # over [4, 5] and [8, 9].
    sp = [
        (1, "admissible.generate_Qa", 0.0, 10.0, None, 5, MAIN),
        (2, "sieve.primes_in_segment", 1.0, 5.0, 1, 100, WORKER),
        (3, "sieve.primes_in_segment", 4.0, 9.0, 1, 100, WORKER),
        (4, spans.WAIT, 4.0, 5.0, 1, None, MAIN),
        (5, spans.WAIT, 8.0, 9.0, 1, None, MAIN),
    ]
    selft = spans.self_times(sp)
    assert selft[1] == pytest.approx(8.0)  # 10 - waits, not 10 - |[1, 9]|
    m = spans.layer_metrics(sp, 10, [(0.0, 10.0)])
    assert m["admissible.filter_self_s"] == pytest.approx(8.0)
    assert m["sieve.wait_s"] == pytest.approx(2.0)
    assert m["sieve.busy_s"] == pytest.approx(8.0)


# --- wrapping rules -------------------------------------------------------------


WRAPPED_IMPORTS = [
    ("admissible", "primes_in_segment"),
    ("curve_count", "solve_norm_equation"),
    ("local_kummer", "is_unit_cube_mod_w_power"),
    ("certify", "factorize"),
    ("local_kummer", "factorize"),
    ("factorint", "factorize"),
]


def test_install_wraps_modules_and_imported_names_then_restores(tracer):
    certify_mod = tracer.module("certify")
    assert isinstance(certify_mod, types.ModuleType)
    package = sys.modules["cubictwist"]
    assert package.certify is certify_mod.certify  # the function, rebound by __init__
    before = {(m, n): getattr(tracer.module(m), n) for m, n in WRAPPED_IMPORTS}
    original_certify = certify_mod.certify
    tracer.install()
    try:
        for (m, n), fn in before.items():
            wrapped = getattr(tracer.module(m), n)
            assert wrapped is not fn and wrapped.__wrapped__ is fn, f"{m}.{n} not wrapped"
        assert package.certify is certify_mod.certify is not original_certify
        assert package.certify(-1, 19).conclusion.value == "Certified"
    finally:
        tracer.uninstall()
    for (m, n), fn in before.items():
        assert getattr(tracer.module(m), n) is fn
    assert package.certify is original_certify
    assert not hasattr(Future.result, "__wrapped__")
    names = {sp[spans.NAME] for sp in tracer.spans}
    assert {"certify.certify", "factorint.factorize", "local_kummer.selmer_stability_report"} <= names


def test_worker_thread_spans_attach_to_the_pool_owner(tracer):
    admissible = tracer.module("admissible")
    tracer.spans.clear()
    tracer.install()
    try:
        admissible.generate_Qa(-1, 2_200_000, threads=2)
    finally:
        tracer.uninstall()
    (owner,) = [sp for sp in tracer.spans if sp[spans.NAME] == "admissible.generate_Qa"]
    segs = [sp for sp in tracer.spans if sp[spans.NAME] == "sieve.primes_in_segment"]
    assert len(segs) == 3 and all(sp[spans.PARENT] == owner[spans.ID] for sp in segs)
    assert all(sp[spans.THREAD] != owner[spans.THREAD] for sp in segs)
    assert sum(sp[spans.SIZE] for sp in segs) == 162_662  # pi(2.2 * 10^6)
    waits = [sp for sp in tracer.spans if sp[spans.NAME] == spans.WAIT]
    assert len(waits) == 3 and all(sp[spans.PARENT] == owner[spans.ID] for sp in waits)
    own_thread = [(sp[spans.START], sp[spans.END]) for sp in tracer.spans
                  if sp[spans.PARENT] == owner[spans.ID] and sp[spans.THREAD] == owner[spans.THREAD]]
    own = spans.self_times(tracer.spans)[owner[spans.ID]]
    assert own == pytest.approx(owner[spans.END] - owner[spans.START] - spans.union_length(own_thread))
    assert tracer.candidates > owner[spans.SIZE] > 0


def test_missing_program_exits_nonzero(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run.import_program(tmp_path)
    assert exc.value.code not in (0, None)


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    printed = set(spans.layer_metrics([], 0, [])) | {"cli.bytes_out", "trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == printed
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
