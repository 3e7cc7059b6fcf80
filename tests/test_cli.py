"""CLI behavior: envelopes, formats, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys

import pytest

from cubictwist import __version__
from cubictwist.cli import main


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


def test_qa_json_envelope(capsys):
    code, out, err = run_cli(["qa", "--a", "-1", "--limit", "100", "--format", "json"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "qa"
    assert env["params"] == {"a": -1, "limit": 100}
    assert env["version"] == __version__
    assert "threads" not in env["params"]
    assert env["result"]["primes"][0]["ell"] == 19


def test_qa_zero_rejected(capsys):
    code, out, err = run_cli(["qa", "--a", "0", "--limit", "10"], capsys)
    assert code == 1
    assert "nonzero" in err


def test_unknown_flag_exits_one(capsys):
    code, out, err = run_cli(["qa", "--a", "-1", "--limit", "10", "--bogus"], capsys)
    assert code == 1


def test_missing_subcommand_exits_one(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 1


def test_limit_ceiling(capsys):
    code, out, err = run_cli(["qa", "--a", "-1", "--limit", str(10**9)], capsys)
    assert code == 1
    assert "ceiling" in err
    # --allow-large lifts it (tiny limit here, just proving the flag parses)
    code, out, err = run_cli(
        ["qa", "--a", "-1", "--limit", "100", "--allow-large"], capsys
    )
    assert code == 0


def test_threads_byte_identical(capsys):
    argv = ["qa", "--a", "-14", "--limit", "10000", "--format", "json"]
    _, out1, _ = run_cli(argv + ["--threads", "1"], capsys)
    _, out8, _ = run_cli(argv + ["--threads", "8"], capsys)
    assert out1 == out8


def test_density_json(capsys):
    code, out, _ = run_cli(
        ["density", "--a", "-1", "--limit", "1000", "--format", "json"], capsys
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["predicted"] == "1/24"
    assert res["primes_total"] == 168
    assert res["primes_in_qa"] == 15
    assert res["empirical"] == "5/56"


def test_certify_exit_codes(capsys):
    code, _, _ = run_cli(["certify", "--a", "-1", "--m", "19"], capsys)
    assert code == 0
    code, _, _ = run_cli(["certify", "--a", "-1", "--m", "4"], capsys)
    assert code == 2
    code, _, _ = run_cli(["certify", "--a", "23", "--m", "19"], capsys)
    assert code == 3


def test_certify_json_payload(capsys):
    code, out, _ = run_cli(
        ["certify", "--a", "-1", "--m", "19", "--format", "json"], capsys
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["route"] == "ma"
    assert res["conclusion"] == "Certified"
    assert res["conditional"] is False
    names = [c["name"] for c in res["checks"]]
    assert "local_conditions_hold" in names
    assert all(c["passed"] for c in res["checks"])
    assert len(res["local_conditions"]) == 4


def test_certify_assertion_flag(capsys):
    code, out, _ = run_cli(
        [
            "certify",
            "--a",
            "23",
            "--m",
            "433",
            "--assert-selmer-trivial",
            "--format",
            "json",
        ],
        capsys,
    )
    res = json.loads(out)["result"]
    assert res["conditional"] is True
    assert code == 0


def test_count_command(capsys):
    code, out, _ = run_cli(
        ["count", "--a", "-1", "--ell", "19", "--format", "json"], capsys
    )
    assert code == 0
    env = json.loads(out)
    assert env["result"]["count"] == 28
    assert env["result"]["trace"] == -8
    assert env["seed"] == 0

    code, _, err = run_cli(["count", "--a", "-1", "--ell", "2"], capsys)
    assert code == 1
    assert "bad reduction" in err

    code, _, err = run_cli(["count", "--a", "-1", "--ell", "15"], capsys)
    assert code == 1


def test_count_naive_method(capsys):
    code, out, _ = run_cli(
        ["count", "--a", "7", "--ell", "19", "--method", "naive", "--format", "json"],
        capsys,
    )
    assert json.loads(out)["result"]["method"] == "naive"
    assert json.loads(out)["result"]["count"] == 12


def test_classify_command(capsys):
    code, out, _ = run_cli(
        ["classify", "--m", "19", "--ell", "19", "--format", "json"], capsys
    )
    assert code == 0
    places = json.loads(out)["result"]["places"]
    assert len(places) == 2
    assert all(p["type"] == "ramified" for p in places)

    code, _, err = run_cli(["classify", "--m", "8", "--ell", "7"], capsys)
    assert code == 1  # degenerate radicand


def test_count_naive_refuses_ell_above_the_ceiling(capsys):
    # the naive count allocates a list of ell entries
    big = 100_000_039  # prime, 1 mod 3, just above the 10^8 ceiling
    code, _, err = run_cli(["count", "--a", "-1", "--ell", str(big), "--method", "naive"], capsys)
    assert code == 1
    assert "ceiling" in err and "--allow-large" in err
    code, out, _ = run_cli(["count", "--a", "-1", "--ell", str(big), "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["result"]["method"] == "cm-norm-equation"
    code, _, _ = run_cli(["count", "--a", "-1", "--ell", "19", "--method", "naive", "--allow-large"], capsys)
    assert code == 0


def test_count_and_classify_refuse_ell_beyond_the_modulus_cap(capsys):
    ell = 2**62 + 135
    for argv in (
        ["count", "--a", "-1", "--ell", str(ell)],
        ["count", "--a", "-1", "--ell", str(ell), "--method", "naive", "--allow-large"],
        ["classify", "--m", "19", "--ell", str(ell)],
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert "2^62" in err


def test_classify_refuses_m_beyond_the_factorization_range(capsys):
    for m in (2**64, -(2**64), 2**64 + 1):
        code, _, err = run_cli(["classify", "--m", str(m), "--ell", "7"], capsys)
        assert code == 1
        assert "2^64" in err
    code, _, _ = run_cli(["classify", "--m", str(2**64 - 1), "--ell", "7"], capsys)
    assert code == 0


def test_enumerate_m_csv(capsys):
    code, out, _ = run_cli(
        ["enumerate-m", "--a", "-1", "--bound", "400", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["m"]) for r in rows] == [19, 127, 163, 199, 271, 307, 361, 379]


def test_table_dump(capsys):
    code, out, _ = run_cli(["table", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert len(rows) == 34
    code, out, _ = run_cli(["table", "--a", "7", "--format", "json"], capsys)
    row = json.loads(out)["result"]["rows"][0]
    assert row["density"] == "1/72"
    code, _, err = run_cli(["table", "--a", "100"], capsys)
    assert code == 1


def test_csv_format_qa(capsys):
    code, out, _ = run_cli(
        ["qa", "--a", "-1", "--limit", "200", "--format", "csv"], capsys
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["ell"] for r in rows] == ["19", "127", "163", "199"]


def test_human_format_smoke(capsys):
    for argv in (
        ["qa", "--a", "-1", "--limit", "100"],
        ["density", "--a", "-1", "--limit", "1000"],
        ["certify", "--a", "-1", "--m", "19"],
        ["count", "--a", "-1", "--ell", "7"],
        ["classify", "--m", "10", "--ell", "3"],
        ["enumerate-m", "--a", "-1", "--bound", "400"],
        ["table"],
    ):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.strip()


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cubictwist.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout


def test_json_output_is_sorted_and_stable(capsys):
    _, out1, _ = run_cli(["table", "--format", "json"], capsys)
    _, out2, _ = run_cli(["table", "--format", "json"], capsys)
    assert out1 == out2
    env = json.loads(out1)
    assert list(env.keys()) == sorted(env.keys())
