"""Command-line frontend: every library operation, machine-readable output.

Subcommands: qa, ma, density, certify, count, classify, enumerate-m,
table. Formats: human table (default), json, csv. JSON output wraps the
payload in a deterministic envelope (sorted keys, no timestamps); CSV
mirrors the JSON field names as columns.

Exit codes: 0 success / Certified, 1 usage error, 2 NotCertified,
3 UnknownSelmerInput.

Determinism contract: the number of worker threads never changes a byte
of output — --threads is an execution knob, deliberately not echoed in
the params block.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .admissible import (
    DensityReport,
    empirical_density,
    enumerate_m,
    generate_Ma,
    generate_Qa,
)
from .certify import _M_RANGE_CAP, CertConclusion, certify, selmer_table_lookup, _load_table
from .curve_count import BadReductionError, fast_count, naive_count
from .ff_arith import MODULUS_CAP
from .local_kummer import classify_place_detailed, places_above

LIMIT_CEILING = 10**8

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CERTIFIED = 2
EXIT_UNKNOWN_SELMER = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the interface contract
    # reserves 2 for NotCertified, so usage errors are remapped to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fail(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _envelope(command: str, params: dict, result: dict, seed: int | None = None) -> dict:
    env = {"command": command, "params": params, "result": result, "version": __version__}
    if seed is not None:
        env["seed"] = seed
    return env


def _emit_json(env: dict) -> None:
    print(json.dumps(env, sort_keys=True, indent=2))


def _emit_csv(rows: list[dict]) -> None:
    if not rows:
        print("")
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    print(buf.getvalue(), end="")


def _check_limit(limit: int, allow_large: bool, name: str = "limit") -> None:
    if limit > LIMIT_CEILING and not allow_large:
        raise _fail(
            f"{name} {limit} exceeds the {LIMIT_CEILING} ceiling; pass --allow-large to override"
        )


def _check_ell(ell: int) -> None:
    if ell >= MODULUS_CAP:
        raise _fail(f"ell {ell} >= 2^62: outside the range where the primality test is proven")


def _prime_record_row(rec) -> dict:
    return {"ell": rec.ell, "in_Ma": rec.in_Ma, "in_Qa": rec.in_Qa}


def _reasons_jsonable(reasons: dict) -> dict:
    out = {}
    for k, v in reasons.items():
        if isinstance(v, dict):
            out[k] = {str(kk): vv for kk, vv in v.items()}
        else:
            out[k] = v
    return out


def _cmd_prime_set(args: argparse.Namespace, which: str) -> int:
    if args.a == 0:
        raise _fail("a must be nonzero")
    _check_limit(args.limit, args.allow_large)
    gen = generate_Qa if which == "qa" else generate_Ma
    records = gen(args.a, args.limit, threads=args.threads)
    if args.format == "json":
        payload = {
            "a": args.a,
            "limit": args.limit,
            "set": which,
            "count": len(records),
            "primes": [
                dict(_prime_record_row(r), reasons=_reasons_jsonable(r.reasons))
                for r in records
            ],
        }
        _emit_json(_envelope(which, {"a": args.a, "limit": args.limit}, payload))
    elif args.format == "csv":
        _emit_csv([_prime_record_row(r) for r in records])
    else:
        label = "Q_a" if which == "qa" else "M_a"
        print(f"{label} for a={args.a}, limit={args.limit}: {len(records)} primes")
        for r in records:
            print(f"  {r.ell:>10}  in_Ma={str(r.in_Ma):5}  in_Qa={str(r.in_Qa):5}")
    return EXIT_OK


def _density_rows(rep: DensityReport) -> dict:
    return {
        "a": rep.a,
        "s": rep.s,
        "predicted": _frac(rep.predicted),
        "predicted_float": float(rep.predicted),
        "limit": rep.limit,
        "primes_total": rep.primes_total,
        "primes_in_qa": rep.primes_in_qa,
        "empirical": _frac(rep.empirical),
        "empirical_float": float(rep.empirical),
        "deviation_float": float(rep.deviation),
        "warnings": list(rep.warnings),
    }


def _cmd_density(args: argparse.Namespace) -> int:
    if args.a == 0:
        raise _fail("a must be nonzero")
    _check_limit(args.limit, args.allow_large)
    rep = empirical_density(args.a, args.limit, threads=args.threads)
    row = _density_rows(rep)
    if args.format == "json":
        _emit_json(_envelope("density", {"a": args.a, "limit": args.limit}, row))
    elif args.format == "csv":
        flat = dict(row)
        flat["warnings"] = ";".join(rep.warnings)
        _emit_csv([flat])
    else:
        print(f"density report for a={rep.a} (s={rep.s}), primes up to {rep.limit}")
        print(f"  predicted : {_frac(rep.predicted)} = {float(rep.predicted):.6f}")
        print(f"  empirical : {rep.primes_in_qa}/{rep.primes_total} = {float(rep.empirical):.6f}")
        print(f"  deviation : {float(rep.deviation):.6f}")
        for w in rep.warnings:
            print(f"  warning   : {w}")
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.a == 0:
        raise _fail("a must be nonzero")
    if args.m == 0:
        raise _fail("m must be nonzero")
    assertion = True if args.assert_selmer_trivial else None
    report = certify(args.a, args.m, selmer_assertion=assertion)
    payload = {
        "a": report.a,
        "m": report.m,
        "route": "ma",  # M_a membership is the only route; the schema keeps the field
        "conclusion": report.conclusion.value,
        "conclusion_detail": report.conclusion_detail,
        "conditional": report.conditional,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
        "notes": list(report.notes),
    }
    if report.stability is not None:
        payload["local_conditions"] = [
            {
                "ell": p.ell,
                "split_index": p.split_index,
                "role": p.role,
                "requirement": p.requirement,
                "classification": p.classification,
                "holds": p.holds,
                "detail": p.detail,
            }
            for p in report.stability.places
        ]
    if args.format == "json":
        _emit_json(_envelope("certify", {"a": args.a, "m": args.m}, payload))
    elif args.format == "csv":
        _emit_csv(
            [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks]
        )
    else:
        print(f"certify a={report.a} m={report.m}: {report.conclusion.value}")
        for c in report.checks:
            mark = "?" if c.passed is None else ("ok" if c.passed else "FAIL")
            line = f"  [{mark:>4}] {c.name}"
            if c.detail:
                line += f" — {c.detail}"
            print(line)
        print(f"  => {report.conclusion_detail}")
        for n in report.notes:
            print(f"  note: {n}")
    if report.conclusion is CertConclusion.CERTIFIED:
        return EXIT_OK
    if report.conclusion is CertConclusion.NOT_CERTIFIED:
        return EXIT_NOT_CERTIFIED
    return EXIT_UNKNOWN_SELMER


def _cmd_count(args: argparse.Namespace) -> int:
    if args.a == 0:
        raise _fail("a must be nonzero")
    _check_ell(args.ell)
    if args.method == "naive":
        # the naive count allocates a list of ell entries
        _check_limit(args.ell, args.allow_large, name="ell")
    try:
        if args.method == "naive":
            data = naive_count(args.a, args.ell)
        else:
            data = fast_count(args.a, args.ell, seed=args.seed)
    except BadReductionError as exc:
        raise _fail(str(exc))
    except ValueError as exc:
        raise _fail(str(exc))
    row = {
        "a": args.a,
        "ell": args.ell,
        "count": data.count,
        "trace": data.trace,
        "method": data.method.value,
    }
    if args.format == "json":
        _emit_json(_envelope("count", {"a": args.a, "ell": args.ell, "method": args.method}, row, seed=args.seed))
    elif args.format == "csv":
        _emit_csv([row])
    else:
        print(f"#E_a(F_ell) for a={args.a}, ell={args.ell}: count={data.count} trace={data.trace} ({data.method.value})")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    _check_ell(args.ell)
    if abs(args.m) >= _M_RANGE_CAP:
        raise _fail("|m| >= 2^64: outside the supported factorization range")
    try:
        places = places_above(args.ell)
        verdicts = [(p, *classify_place_detailed(p, args.m)) for p in places]
    except ValueError as exc:
        raise _fail(str(exc))
    rows = [
        {
            "ell": args.ell,
            "split_index": p.split_index,
            "type": tag.value,
            "notes": "; ".join(why),
        }
        for p, tag, why in verdicts
    ]
    if args.format == "json":
        _emit_json(
            _envelope("classify", {"m": args.m, "ell": args.ell}, {"m": args.m, "places": rows})
        )
    elif args.format == "csv":
        _emit_csv(rows)
    else:
        for row in rows:
            print(
                f"place above {row['ell']} (index {row['split_index']}) in K(m^(1/3)), m={args.m}: "
                f"{row['type']} ({row['notes']})"
            )
    return EXIT_OK


def _cmd_enumerate_m(args: argparse.Namespace) -> int:
    if args.a == 0:
        raise _fail("a must be nonzero")
    _check_limit(args.bound, args.allow_large)
    values = enumerate_m(args.a, args.bound, threads=args.threads)
    if args.format == "json":
        _emit_json(
            _envelope(
                "enumerate-m",
                {"a": args.a, "bound": args.bound},
                {"a": args.a, "bound": args.bound, "count": len(values), "m_values": values},
            )
        )
    elif args.format == "csv":
        _emit_csv([{"m": v} for v in values])
    else:
        print(f"admissible twist parameters m <= {args.bound} for a={args.a}: {len(values)}")
        for v in values:
            print(f"  {v}")
    return EXIT_OK


def _table_row_jsonable(row) -> dict:
    return {
        "a": row.a,
        "sel3_Q": row.sel3_Q,
        "sel3_twist_Q": row.sel3_twist_Q,
        "sel3_K": row.sel3_K,
        "s": row.s,
        "density": _frac(row.density) if row.density is not None else None,
    }


def _cmd_table(args: argparse.Namespace) -> int:
    if args.a is not None:
        row = selmer_table_lookup(args.a)
        if row is None:
            raise _fail(f"a = {args.a} is not in the embedded table")
        rows = [_table_row_jsonable(row)]
    else:
        rows = [_table_row_jsonable(r) for _, r in sorted(_load_table().items())]
    if args.format == "json":
        params = {} if args.a is None else {"a": args.a}
        _emit_json(_envelope("table", params, {"rows": rows}))
    elif args.format == "csv":
        _emit_csv(rows)
    else:
        print(f"{'a':>4}  {'Sel3(E_a/Q)':>12}  {'Sel3(E_-27a/Q)':>14}  {'Sel3(E_a/K)':>12}  {'s':>4}  {'density':>8}")
        for r in rows:
            s = "-" if r["s"] is None else str(r["s"])
            d = "-" if r["density"] is None else r["density"]
            print(
                f"{r['a']:>4}  {r['sel3_Q']:>12}  {r['sel3_twist_Q']:>14}  {r['sel3_K']:>12}  {s:>4}  {d:>8}"
            )
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser, *, threads: bool = True) -> None:
    sub.add_argument("--format", choices=("table", "json", "csv"), default="table")
    if threads:
        sub.add_argument("--threads", type=int, default=1, help="worker threads (never affects output bytes)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cubictwist", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cubictwist {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    qa = subs.add_parser("qa", help="list the primes of Q_a up to a limit")
    qa.add_argument("--a", type=int, required=True)
    qa.add_argument("--limit", type=int, required=True)
    qa.add_argument("--allow-large", action="store_true")
    _add_common(qa)

    ma = subs.add_parser("ma", help="list the primes of M_a up to a limit")
    ma.add_argument("--a", type=int, required=True)
    ma.add_argument("--limit", type=int, required=True)
    ma.add_argument("--allow-large", action="store_true")
    _add_common(ma)

    density = subs.add_parser("density", help="empirical vs closed-form density of Q_a")
    density.add_argument("--a", type=int, required=True)
    density.add_argument("--limit", type=int, required=True)
    density.add_argument("--allow-large", action="store_true")
    _add_common(density)

    cert = subs.add_parser("certify", help="certify rank 0 for the cubic twists by m^2 and m^4")
    cert.add_argument("--a", type=int, required=True)
    cert.add_argument("--m", type=int, required=True)
    cert.add_argument("--assert-selmer-trivial", action="store_true")
    _add_common(cert, threads=False)

    count = subs.add_parser("count", help="point count of the reduced curve at ell")
    count.add_argument("--a", type=int, required=True)
    count.add_argument("--ell", type=int, required=True)
    count.add_argument("--method", choices=("fast", "naive"), default="fast")
    count.add_argument("--seed", type=int, default=0)
    count.add_argument("--allow-large", action="store_true")
    _add_common(count, threads=False)

    cls = subs.add_parser("classify", help="splitting type of the places above ell in K(m^(1/3))")
    cls.add_argument("--m", type=int, required=True)
    cls.add_argument("--ell", type=int, required=True)
    _add_common(cls, threads=False)

    enum = subs.add_parser("enumerate-m", help="all certified-shape twist parameters up to a bound")
    enum.add_argument("--a", type=int, required=True)
    enum.add_argument("--bound", type=int, required=True)
    enum.add_argument("--allow-large", action="store_true")
    _add_common(enum)

    table = subs.add_parser("table", help="dump the embedded 3-descent table")
    table.add_argument("--a", type=int, default=None)
    _add_common(table, threads=False)

    return parser


_DISPATCH = {
    "qa": lambda args: _cmd_prime_set(args, "qa"),
    "ma": lambda args: _cmd_prime_set(args, "ma"),
    "density": _cmd_density,
    "certify": _cmd_certify,
    "count": _cmd_count,
    "classify": _cmd_classify,
    "enumerate-m": _cmd_enumerate_m,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except SystemExit:
        raise
    except BrokenPipeError:  # downstream closed the pipe; not our error
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
