"""Record the reference results the correctness gate compares against.

Run from the repository root, at the commit whose behaviour is the
reference:

    python3 bench/record.py

It runs every (row, limit) pair of each CLI workload through the CLI
and every query in the pools through the library (about ten minutes
on two cores), then rewrites ``bench/reference.json``. Re-record only when the
program's output is meant to change, and say so where the change is
described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import inputs
from checks import (
    REFERENCE_PATH,
    certify_result,
    density_result,
    enumerate_result,
    key,
    listing_result,
    pools_digest,
    reference_inputs,
)
from run import import_program
from workloads import Density, Enumerate, Listing, Program


def _dump(ref: dict) -> str:
    # one compact line per section keeps the file diffable by section
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}" for k, v in ref.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def record() -> dict:
    program = Program()
    ref: dict = {
        "inputs": reference_inputs(),
        "density": {},
        "qa": {},
        "ma": {},
        "enumerate": {},
    }
    results = {"density": density_result, "qa": listing_result, "ma": listing_result,
               "enumerate-m": enumerate_result}
    for workload in (Density(), Listing(), Enumerate()):
        print(f"recording {workload.name}", file=sys.stderr, flush=True)
        for a, offset in inputs.cli_pairs(workload.name, workload.s0_rows + inputs.S1_ROWS):
            for kind, limit, argv in workload.argvs(a, offset):
                section = "enumerate" if kind == "enumerate-m" else kind
                ref[section][key(a, limit)] = list(results[kind](program.run_cli(argv)))
    check_names: list[str] = []
    certify = [certify_result(program.certify.certify(a, m), check_names) for a, m in inputs.certify_pool()]
    count = [program.curve_count.fast_count(a, ell).trace for a, ell in inputs.count_pool()]
    ref["queries"] = {"pools": pools_digest(), "check_names": check_names, "certify": certify, "count": count}
    return ref


if __name__ == "__main__":
    import_program(Path(__file__).resolve().parent.parent)
    REFERENCE_PATH.write_text(_dump(record()))
