"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cubictwist from ``src/``
of that checkout and nowhere else. Workloads: density, listing,
enumerate, queries (see README.md next to this file).

With ``--trace 0`` the run measures the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced rounds, each with
inputs of its own, and reports the per-layer metrics; end-to-end
numbers never come from traced rounds. Human-readable lines go to stdout first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record, with the environment, is written to
``.bench_out/`` in the checkout, and a traced run also writes its spans
there.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import Checker
from spans import Tracer, layer_metrics
from workloads import PROBE_JUMP, WORKLOADS, Program, probe, scale

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 11
# Above this share of probe jumps a run warns (see workloads.PROBE_JUMP).
MAX_JUMP_SHARE = 0.5
# A fresh interpreter: import the CLI, load the descent table, one tiny call.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import cubictwist.cli as cli; "
    "raise SystemExit(cli.main(['certify', '--a', '-1', '--m', '19', '--format', 'json']))"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "throughput": "items/s"}


def import_program(root: Path):
    """Import cubictwist from ``root/src``; exit non-zero if it is not there."""
    init = root / "src" / "cubictwist" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(root)} not found: run from a checkout of the repository")
    sys.path.insert(0, str(init.parent.parent))
    import cubictwist

    if Path(cubictwist.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported cubictwist from {cubictwist.__file__}, not from this checkout")
    return cubictwist


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, workload) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "commit": git_commit(ROOT),
        "seed": seed,
        "workload": workload.name,
        "threads": workload.threads,
    }


def setup_times(repeats: int) -> tuple[list[float], list[float]]:
    """Raw and nominal-speed wall seconds of fresh interpreters running SETUP_CODE."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(ROOT / "src")]

    def once() -> float:
        # No timeout: with one, Popen.wait polls in 50 ms sleeps and the
        # times come out in 50 ms steps.
        t0 = perf_counter()
        subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
        return perf_counter() - t0

    once()  # the first start byte-compiles the package; users pay that once
    raw, scaled = [], []
    before = probe()
    for _ in range(repeats):
        secs = once()
        after = probe()
        raw.append(secs)
        scaled.append(secs * scale(before, after))
        before = after
    return raw, scaled


def measure(workload, program, checker, seed: int, seconds: float, tracer=None):
    """Rounds until ``seconds`` of measured time. With a tracer, untraced
    and traced rounds alternate; every round has inputs of its own."""
    untraced, traced = [], []
    spent, i = 0.0, 0
    while True:
        rnd = workload.run_round(program, checker, seed, i, probing=True)
        untraced.append(rnd)
        i += 1
        cost = rnd.wall
        if tracer is not None:
            tracer.install()
            try:
                rnd = workload.run_round(program, checker, seed, i, probing=False)
            finally:
                tracer.uninstall()
            traced.append(rnd)
            i += 1
            cost += rnd.wall
        spent += cost
        if spent + cost / 2 >= seconds:
            return untraced, traced


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, rounds, setup_raw: list[float], setup: list[float], rss_mb: float,
               failed: int, attempted: int) -> dict:
    """Every end-to-end metric of the issue, as (value, unit, samples).

    Times are at nominal machine speed (see workloads.probe); the _raw
    entries are as measured.
    """
    raw = [r.wall for r in rounds]
    walls = [r.scaled for r in rounds]
    items = sum(r.items for r in rounds)
    out = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "error_rate": (failed / attempted, "ratio", attempted),
        "throughput": (items / sum(walls), "items/s", len(walls)),
        f"{workload.unit}_per_s": (items / sum(walls), f"{workload.unit}/s", len(walls)),
        "setup_raw_s": (statistics.median(setup_raw), "s", len(setup_raw)),
        "wall_raw_s": (statistics.median(raw), "s", len(raw)),
        "throughput_raw": (items / sum(raw), "items/s", len(raw)),
        "machine_speed": (sum(walls) / sum(raw), "ratio", len(raw)),
        "probe_jump_share": (sum(r.probe_jumps for r in rounds) / sum(r.probes for r in rounds), "ratio",
                             sum(r.probes for r in rounds)),
    }
    if workload.name == "queries":
        for kind in ("certify", "count"):
            lat = [s * 1e6 for r in rounds for k, s in r.latencies if k == kind]
            out[f"{kind}_p50_us"] = (statistics.median(lat), "us", len(lat))
            out[f"{kind}_p99_us"] = (percentile(lat, 99), "us", len(lat))
    return out


def per_layer(tracer, untraced, traced) -> dict:
    metrics = layer_metrics(tracer.spans, tracer.candidates, [(r.start, r.end) for r in traced])
    metrics["cli.bytes_out"] = sum(r.bytes_out for r in traced) / len(traced)
    # as many traced as untraced rounds, of other inputs but the same mix
    metrics["trace.overhead"] = sum(r.wall for r in traced) / sum(r.wall for r in untraced)
    return metrics


PER_LAYER_UNITS = {"trace.overhead": "ratio", "cli.bytes_out": "bytes"}


def layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("yield", "_ratio", "_per_certify")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program(ROOT)
    workload = WORKLOADS[args.workload]()
    env = environment(args.seed, workload)
    if workload.threads > env["nproc"]:
        raise SystemExit(f"error: {workload.name} needs {workload.threads} threads but nproc is {env['nproc']}")
    checker = Checker.load()
    program = Program()

    setup_raw, setup = setup_times(SETUP_REPEATS)
    workload.warm_up(program)
    tracer = Tracer() if args.trace else None
    untraced, traced = measure(workload, program, checker, args.seed, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rounds = untraced + traced
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    if workload.name == "queries":
        n, oracle = workload.oracle_failures(program, args.seed)
        attempted += n
        failures += oracle

    e2e = end_to_end(workload, untraced, setup_raw, setup, rss_mb, len(failures), attempted)
    record = {"environment": env, "attempted": attempted, "failed": len(failures), "failures": failures[:20]}
    print(f"# {json.dumps(env, sort_keys=True)}")
    print(f"# {workload.name}: {len(untraced)} rounds, {attempted} operations, {len(failures)} failed")
    for name, (value, unit, n) in e2e.items():
        print(f"{workload.name:10} {name:16} {value:14.6g} {unit:10} n={n}")
    record["end_to_end"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()}
    record["rounds_raw_s"] = [r.wall for r in untraced]
    record["rounds_s"] = [r.scaled for r in untraced]
    record["setup_samples_raw_s"] = setup_raw
    if tracer is not None:
        layers = per_layer(tracer, untraced, traced)
        for name, value in layers.items():
            print(f"{workload.name:10} {name:32} {value:14.6g} {layer_unit(name)}")
        record["per_layer"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        record["traced_rounds"] = len(traced)
        metrics = record["per_layer"]
    else:
        metrics = {k: record["end_to_end"][k] for k in END_TO_END_UNITS}
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    if len(rounds) > workload.distinct_rounds():
        print(f"warning: {len(rounds)} rounds but only {workload.distinct_rounds()} with distinct inputs; "
              "later rounds repeat inputs", file=sys.stderr)
    if e2e["probe_jump_share"][0] > MAX_JUMP_SHARE:
        print(f"warning: {e2e['probe_jump_share'][0]:.0%} of the speed probes ran over {PROBE_JUMP}x slower "
              "than the probe before them; wall_s may read a slowdown left behind by the calls as a gain: "
              "check that wall_raw_s moves with wall_s", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        with gzip.open(OUT_DIR / f"{stem}-spans.jsonl.gz", "wt") as f:
            for sp in tracer.spans:
                f.write(json.dumps(sp) + "\n")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
