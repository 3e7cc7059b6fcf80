"""Run-time tracing of cubictwist's layers, from outside the program.

``Tracer.install`` replaces each traced function with a wrapper that
records a span (id, name, start, end, parent, size, thread) in memory;
``Tracer.uninstall`` puts the originals back. No source file changes.

Wrapping rules:

* Modules are taken from ``sys.modules`` through
  ``importlib.import_module``, never as attributes of the package:
  ``cubictwist.certify`` is the *function*, because ``__init__``
  rebinds the name.
* A name brought in with ``from .x import y`` is a second binding of
  the same function in the caller's namespace, so calls through it
  would miss a wrapper set only on ``x``. ``install`` therefore
  rebinds every attribute of every loaded ``cubictwist`` module that
  is the original function object (``admissible.primes_in_segment``,
  ``curve_count.solve_norm_equation``,
  ``local_kummer.is_unit_cube_mod_w_power``, ``certify.factorize``,
  ``local_kummer.factorize``, ...).
* Under ``--threads 2`` sieve spans run on worker threads. A span
  opened on a thread with no open span takes as parent the innermost
  span open on the main thread, the call that started the pool, so it
  still counts as that call's descendant. But a worker span overlaps
  its parent's own work (the filter runs on while segments are sieved,
  and the sieve mostly waits for the interpreter lock), so it is not
  taken out of the parent's self time. What is taken out is the time
  the parent is blocked on the pool: while installed, the tracer also
  wraps ``concurrent.futures.Future.result``, which only the sieve
  pool uses, and records each call as a ``sieve.wait`` span on the
  waiting thread. Self time is a span's duration minus the *union* of
  its children *on its own thread* (wait spans included), not the sum,
  since those children can nest or touch.
* ``ff_arith`` is not wrapped: its calls are sub-microsecond ``pow``
  kernels, so a wrapper would measure itself. Their time lands in the
  self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from concurrent.futures import Future
from threading import get_ident
from time import perf_counter

# (module, function, size of the result recorded on the span)
SPAN_TARGETS = (
    ("cli", "main", None),
    ("sieve", "simple_sieve", None),
    ("sieve", "primes_in_segment", len),
    ("admissible", "generate_Qa", len),
    ("admissible", "generate_Ma", len),
    ("admissible", "empirical_density", lambda rep: rep.primes_in_qa),
    ("admissible", "enumerate_m", len),
    ("admissible", "in_Ma", None),
    ("certify", "certify", lambda rep: int(rep.conclusion.value == "Certified")),
    ("local_kummer", "selmer_stability_report", None),
    ("eisenstein", "is_unit_cube_mod_w_power", None),
    ("eisenstein", "solve_norm_equation", None),
    ("factorint", "factorize", None),
    ("curve_count", "fast_count", None),
    ("curve_count", "naive_count", None),
)

# The per-prime filter runs ~10^5 times per call; it is counted, not
# spanned. A call counts as a candidate only when the innermost span open
# on the main thread is a bulk generator whose first filter stage it is.
FIRST_STAGE = {
    "admissible.generate_Qa": "_qa_conditions",
    "admissible.empirical_density": "_qa_conditions",
    "admissible.generate_Ma": "_ma_conditions",
}
COUNT_TARGETS = (("admissible", "_qa_conditions"), ("admissible", "_ma_conditions"))
BULK = tuple(FIRST_STAGE)

ID, NAME, START, END, PARENT, SIZE, THREAD = range(7)
PACKAGE = "cubictwist"
WAIT = "sieve.wait"


class Tracer:
    """Wraps cubictwist functions and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._candidates = [0]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple[int, str]] = []
        self._main_ident = threading.main_thread().ident
        self._patched: list[tuple[object, str, object]] = []

    def module(self, name: str):
        return importlib.import_module(f"{PACKAGE}.{name}")

    def _stack(self) -> list[tuple[int, str]]:
        if get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[tuple[int, str]]) -> int | None:
        if stack:
            return stack[-1][0]
        if stack is not self._main_stack:
            try:
                return self._main_stack[-1][0]
            except IndexError:
                return None
        return None

    def _span_wrapper(self, name: str, fn, size):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            stack.append((sid, name))
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, size(result) if size and result is not None else None,
                              get_ident()))

        return wrapper

    def _wait_wrapper(self, fn):
        spans, ids = self.spans, self._ids

        # Not pushed on the stack: a wait has no children, and worker spans
        # opened meanwhile belong to the call that started the pool.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((next(ids), WAIT, t0, perf_counter(), parent, None, get_ident()))

        return wrapper

    def _count_wrapper(self, fname: str, fn):
        main_stack, tally = self._main_stack, self._candidates
        callers = {name for name, first in FIRST_STAGE.items() if first == fname}

        # Runs once per candidate prime, so it does the least it can: the
        # bulk generators run their filter on the main thread.
        @functools.wraps(fn)
        def wrapper(*args):
            if main_stack and main_stack[-1][1] in callers:
                tally[0] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        replace = {}
        for mod, fname, size in SPAN_TARGETS:
            fn = getattr(self.module(mod), fname)
            replace[id(fn)] = (fn, self._span_wrapper(f"{mod}.{fname}", fn, size))
        for mod, fname in COUNT_TARGETS:
            fn = getattr(self.module(mod), fname)
            replace[id(fn)] = (fn, self._count_wrapper(fname, fn))
        prefix = PACKAGE + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        self._patched.append((Future, "result", Future.result))
        Future.result = self._wait_wrapper(Future.result)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    @property
    def candidates(self) -> int:
        """First-stage filter calls made by the bulk generators."""
        return self._candidates[0]


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of [start, end] intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its same-thread children's intervals."""
    thread = {sp[ID]: sp[THREAD] for sp in spans}
    children = defaultdict(list)
    for sp in spans:
        if sp[PARENT] is not None and thread.get(sp[PARENT]) == sp[THREAD]:
            children[sp[PARENT]].append((sp[START], sp[END]))
    return {
        sp[ID]: (sp[END] - sp[START]) - union_length(children.get(sp[ID], ()), sp[START], sp[END])
        for sp in spans
    }


def _has_ancestor(sp, by_id, name: str) -> bool:
    parent = sp[PARENT]
    while parent is not None:
        anc = by_id.get(parent)
        if anc is None:
            return False
        if anc[NAME] == name:
            return True
        parent = anc[PARENT]
    return False


def layer_metrics(spans, candidates: int, rounds: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer metrics, averaged per traced round (ratios from totals).

    ``rounds`` are the [start, end] wall intervals of the traced rounds;
    wall time inside them that no top-level span covers is unattributed.
    """
    n = max(len(rounds), 1)
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp[NAME]].append(sp)
    by_id = {sp[ID]: sp for sp in spans}
    selft = self_times(spans)

    def busy(*names):
        return union_length([(sp[START], sp[END]) for nm in names for sp in by_name[nm]]) / n

    def self_s(*names):
        return sum(selft[sp[ID]] for nm in names for sp in by_name[nm]) / n

    def calls(name):
        return len(by_name[name])

    def size(*names):
        return sum(sp[SIZE] or 0 for nm in names for sp in by_name[nm])

    def ratio(num, den):
        return num / den if den else 0.0

    members = size(*BULK)
    certifies = calls("certify.certify")
    factorize_in_certify = sum(
        1 for sp in by_name["factorint.factorize"] if _has_ancestor(sp, by_id, "certify.certify")
    )
    fallbacks = sum(
        1 for sp in by_name["curve_count.naive_count"] if _has_ancestor(sp, by_id, "curve_count.fast_count")
    )
    top = [(sp[START], sp[END]) for sp in spans if sp[PARENT] is None]
    unattributed = sum((r1 - r0) - union_length(top, r0, r1) for r0, r1 in rounds)
    return {
        "sieve.busy_s": busy("sieve.simple_sieve", "sieve.primes_in_segment"),
        "sieve.segments": calls("sieve.primes_in_segment") / n,
        "sieve.primes": size("sieve.primes_in_segment") / n,
        "sieve.wait_s": busy(WAIT),
        "admissible.filter_self_s": self_s(*BULK),
        "admissible.candidates": candidates / n,
        "admissible.members": members / n,
        "admissible.yield": ratio(members, candidates),
        "admissible.enumerate_self_s": self_s("admissible.enumerate_m"),
        "admissible.m_values": size("admissible.enumerate_m") / n,
        "admissible.in_Ma_busy_s": busy("admissible.in_Ma"),
        "cli.self_s": self_s("cli.main"),
        "certify.busy_s": busy("certify.certify"),
        "certify.self_s": self_s("certify.certify"),
        "certify.certified_ratio": ratio(size("certify.certify"), certifies),
        "local_kummer.stability_busy_s": busy("local_kummer.selmer_stability_report"),
        "eisenstein.unit_cube_calls": calls("eisenstein.is_unit_cube_mod_w_power") / n,
        "eisenstein.unit_cube_busy_s": busy("eisenstein.is_unit_cube_mod_w_power"),
        "eisenstein.norm_calls": calls("eisenstein.solve_norm_equation") / n,
        "eisenstein.norm_busy_s": busy("eisenstein.solve_norm_equation"),
        "factorint.calls": calls("factorint.factorize") / n,
        "factorint.busy_s": busy("factorint.factorize"),
        "factorint.calls_per_certify": ratio(factorize_in_certify, certifies),
        "curve_count.fast_count_busy_s": busy("curve_count.fast_count"),
        "curve_count.naive_fallbacks": fallbacks / n,
        "trace.unattributed_s": unattributed / n,
    }
