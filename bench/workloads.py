"""The four workloads and the closed loop that measures them.

Every workload is a closed loop with one caller: a call starts when the
previous one has returned. Work is grouped into rounds, and a round is
the unit of ``wall_s``:

* density: two ``cli.main(["density", ...])`` calls at limit about
  10^7, one s = 0 row and one s = 1 row, at ``--threads 1``;
* listing: ``qa`` at about 10^7 and ``ma`` at about 10^6 for one s = 0
  row and one s = 1 row, JSON into an in-memory sink, at ``--threads 2``;
* enumerate: ``enumerate-m`` at bound about 10^6 for one s = 0 row and
  one s = 1 row;
* queries: one pass of 1000 ``certify`` and 1000 ``fast_count`` library
  calls, interleaved in seeded order.

No input repeats within a run (see ``inputs.OFFSETS``).

Only the program calls are timed; checking their outputs happens after
each round, outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from dataclasses import dataclass, field
from time import perf_counter

import inputs
from checks import Checker


class Program:
    """The cubictwist modules the workloads call into.

    Functions are looked up on the module at every call, so a traced
    round goes through the wrappers a Tracer installed.
    """

    def __init__(self) -> None:
        self.cli = importlib.import_module("cubictwist.cli")
        self.certify = importlib.import_module("cubictwist.certify")
        self.curve_count = importlib.import_module("cubictwist.curve_count")

    def run_cli(self, argv: list[str]) -> str:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cubictwist {' '.join(argv)} exited with {code}")
        return sink.getvalue()


# The speed of a shared host drifts: on the 2-vCPU machine this was
# written on, the same loop ran up to 40% slower for minutes at a time,
# which swamps the changes the benchmark is meant to show. A fixed
# pure-Python loop timed between measured calls estimates the current
# speed, and times are scaled to the speed at which the loop takes
# PROBE_NOMINAL_S. The probe does not touch cubictwist, so the scaling
# removes host drift and keeps program changes. Anything a call leaves
# running (a thread holding the interpreter lock, say) would slow the
# probe after it and read as a gain, so a probe slower than PROBE_JUMP
# times the one before it is counted as a jump and the share of jumps
# is reported. Host noise alone makes up to about half the probes of a
# run jumps; a slowdown left by every call makes nearly all of them.
PROBE_LOOPS = 200_000
PROBE_NOMINAL_S = 0.010
PROBE_JUMP = 1.25
QUERIES_PER_PROBE = 250


def probe() -> float:
    """Best of three timings of a fixed loop: the machine's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i
        best = min(best, perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor from raw to nominal-speed seconds, from the probes around a measurement."""
    return PROBE_NOMINAL_S * 2 / (before + after)


@dataclass
class Round:
    wall: float  # measured seconds in program calls
    scaled: float  # the same at nominal machine speed
    start: float
    end: float
    probes: int = 0  # probes after a call
    probe_jumps: int = 0
    items: int = 0
    bytes_out: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    latencies: list[tuple[str, float]] = field(default_factory=list)  # nominal-speed seconds


def _timed(fn, *args):
    """(result or exception, seconds)."""
    t0 = perf_counter()
    try:
        out = fn(*args)
    except (Exception, SystemExit) as exc:  # a failed operation, counted by the caller
        out = exc
    return out, perf_counter() - t0


def timed_calls(calls, probe_every: int) -> tuple[Round, list[tuple[object, float, float]]]:
    """Run (fn, args) calls in order, timing each, as one round.

    Returns the round with its timings, and (result or exception,
    seconds, speed scale) per call in the order given. With
    probe_every > 0 the machine speed is probed before the first call
    and after every probe_every calls, outside the call timings; with 0
    there are no probes and every scale is 1.
    """
    results, pending, probes, jumps = [], [], 0, 0
    before = probe() if probe_every else 0.0
    start = perf_counter()
    for j, (fn, args) in enumerate(calls, 1):
        pending.append(_timed(fn, *args))
        if probe_every and (j % probe_every == 0 or j == len(calls)):
            after = probe()
            probes += 1
            jumps += after > PROBE_JUMP * before
            speed = scale(before, after)
            results += [(out, secs, speed) for out, secs in pending]
            pending, before = [], after
    end = perf_counter()
    results += [(out, secs, 1.0) for out, secs in pending]
    rnd = Round(
        wall=sum(secs for _, secs, _ in results),
        scaled=sum(secs * speed for _, secs, speed in results),
        start=start,
        end=end,
        probes=probes,
        probe_jumps=jumps,
        attempted=len(results),
    )
    return rnd, results


class CliWorkload:
    """Rounds of ``cli.main`` calls, one s = 0 and one s = 1 row each."""

    name = ""
    threads = 1
    unit = ""
    s0_rows = inputs.S0_ROWS

    def argvs(self, a: int, offset: int) -> list[tuple[str, int, list[str]]]:
        """(kind, limit or bound, argv) of each call for row a."""
        raise NotImplementedError

    def check(self, checker: Checker, kind: str, a: int, limit: int, text: str) -> tuple[str | None, int]:
        raise NotImplementedError

    def warm_up(self, program: Program) -> None:
        raise NotImplementedError

    def distinct_rounds(self) -> int:
        return inputs.distinct_rounds(self.name, self.s0_rows)

    def run_round(self, program: Program, checker: Checker, seed: int, i: int, probing: bool) -> Round:
        calls = [(a, call) for a, offset in inputs.round_pairs(seed, self.name, i, self.s0_rows)
                 for call in self.argvs(a, offset)]
        rnd, results = timed_calls([(program.run_cli, (argv,)) for _, (_, _, argv) in calls], int(probing))
        for (a, (kind, limit, _)), (out, secs, speed) in zip(calls, results):
            rnd.latencies.append((kind, secs * speed))
            if isinstance(out, BaseException):
                rnd.failures.append(f"{kind} a={a} limit={limit}: {out!r}")
                continue
            try:
                failure, items = self.check(checker, kind, a, limit, out)
            except (ValueError, KeyError, TypeError) as exc:  # malformed output
                failure, items = f"{kind} a={a} limit={limit}: {exc!r}", 0
            if failure:
                rnd.failures.append(failure)
            else:
                rnd.items += items
                rnd.bytes_out += len(out.encode())
        return rnd


class Density(CliWorkload):
    name = "density"
    unit = "primes"

    def argvs(self, a, offset):
        limit = inputs.DENSITY_LIMIT + offset
        return [("density", limit, ["density", "--a", str(a), "--limit", str(limit),
                                    "--threads", "1", "--format", "json"])]

    def check(self, checker, kind, a, limit, text):
        return checker.density(a, limit, text)

    def warm_up(self, program):
        program.run_cli(["density", "--a", "-1", "--limit", "100000", "--format", "json"])


class Listing(CliWorkload):
    name = "listing"
    threads = 2
    unit = "records"

    def argvs(self, a, offset):
        return [
            (which, limit + offset, [which, "--a", str(a), "--limit", str(limit + offset),
                                     "--threads", str(self.threads), "--format", "json"])
            for which, limit in (("qa", inputs.QA_LIMIT), ("ma", inputs.MA_LIMIT))
        ]

    def check(self, checker, kind, a, limit, text):
        return checker.listing(kind, a, limit, text)

    def warm_up(self, program):
        program.run_cli(["qa", "--a", "-1", "--limit", "2200000", "--threads", str(self.threads),
                         "--format", "json"])


class Enumerate(CliWorkload):
    name = "enumerate"
    unit = "m"
    s0_rows = inputs.ENUMERATE_S0_ROWS

    def argvs(self, a, offset):
        bound = inputs.ENUMERATE_BOUND + offset
        return [("enumerate-m", bound, ["enumerate-m", "--a", str(a), "--bound", str(bound),
                                        "--threads", "1", "--format", "json"])]

    def check(self, checker, kind, a, limit, text):
        return checker.enumerate(a, limit, text)

    def warm_up(self, program):
        program.run_cli(["enumerate-m", "--a", "-1", "--bound", "10000", "--format", "json"])


class Queries:
    """Passes of interleaved certify and fast_count library calls.

    The library API is called directly: ``cli.main`` would add about
    3 ms of argparse to a 0.1 ms certify.
    """

    name = "queries"
    threads = 1
    unit = "queries"

    def __init__(self) -> None:
        self.certify_pool = inputs.certify_pool()
        self.count_pool = inputs.count_pool()

    def warm_up(self, program):
        certify_in, count_in = inputs.warm_up_queries()
        for a, m in certify_in:
            program.certify.certify(a, m)
        for a, ell in count_in:
            program.curve_count.fast_count(a, ell)

    def distinct_rounds(self) -> int:
        return inputs.query_passes()

    def run_round(self, program: Program, checker: Checker, seed: int, i: int, probing: bool) -> Round:
        calls = inputs.query_pass(seed, i)
        certify_mod, curve_count = program.certify, program.curve_count

        # looked up per call, so a traced round goes through the wrappers
        def do_certify(k):
            return certify_mod.certify(*self.certify_pool[k])

        def do_count(k):
            return curve_count.fast_count(*self.count_pool[k])

        rnd, results = timed_calls(
            [(do_certify if kind == "certify" else do_count, (k,)) for kind, k in calls],
            QUERIES_PER_PROBE if probing else 0,
        )
        for (kind, k), (out, secs, speed) in zip(calls, results):
            rnd.latencies.append((kind, secs * speed))
            if isinstance(out, BaseException):
                failure = f"{kind} pool[{k}]: {out!r}"
            elif kind == "certify":
                failure = checker.certify(k, out)
            else:
                failure = checker.count(k, self.count_pool[k][1], out)
            if failure:
                rnd.failures.append(failure)
            else:
                rnd.items += 1
        return rnd

    def oracle_failures(self, program: Program, seed: int) -> tuple[int, list[str]]:
        """Small-ell fast counts against the O(ell) naive oracle."""
        failures = []
        cases = inputs.small_count_checks(seed)
        for a, ell in cases:
            fast, _ = _timed(program.curve_count.fast_count, a, ell)
            naive, _ = _timed(program.curve_count.naive_count, a, ell)
            if isinstance(fast, BaseException) or isinstance(naive, BaseException):
                failures.append(f"count a={a} ell={ell}: {fast!r} / {naive!r}")
            elif (fast.count, fast.trace) != (naive.count, naive.trace):
                failures.append(f"fast_count({a}, {ell}) = {fast.count} but naive_count = {naive.count}")
        return len(cases), failures


WORKLOADS = {wl.name: wl for wl in (Density, Listing, Enumerate, Queries)}
