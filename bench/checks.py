"""Correctness gate: recorded reference results plus independent oracles.

Results are compared as library values (prime lists, m lists, check
names, counts), not as raw bytes, except that the ``qa``/``ma`` JSON
schema is frozen, so their output bytes must also match. The reference
file holds results for every (row, limit) pair and every query in the
pools, so the outputs of any seed are checked.

The oracles do not use the reference:

* pi(limit) for the density sieve total, from pi(10^7) = 664579 and
  this benchmark's own primality test on (10^7, limit];
* every enumerated m is = 1 mod 9, and the list is strictly ascending;
* prime listings are strictly ascending and match their count field;
* every point count obeys the Hasse bound and count = ell + 1 - trace;
* ``naive_count`` agrees with ``fast_count`` on a few small ell.

Each check returns None when the output is right and a reason when it
is not.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import inputs

REFERENCE_PATH = Path(__file__).with_name("reference.json")
PI_BASE = (10**7, 664579)  # pi(10^7)


def digest(values) -> str:
    """Short SHA-256 of a sequence of integers (or of bytes)."""
    data = values if isinstance(values, bytes) else ",".join(map(str, values)).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def pools_digest() -> str:
    return digest([x for pair in inputs.certify_pool() + inputs.count_pool() for x in pair])


def reference_inputs() -> dict:
    return {
        "density_limit": inputs.DENSITY_LIMIT,
        "qa_limit": inputs.QA_LIMIT,
        "ma_limit": inputs.MA_LIMIT,
        "enumerate_bound": inputs.ENUMERATE_BOUND,
        "limit_step": inputs.LIMIT_STEP,
        "offsets": inputs.OFFSETS,
    }


def key(a: int, limit: int) -> str:
    """Reference key of one CLI call."""
    return f"{a}:{limit}"


@functools.cache
def prime_pi(limit: int) -> int:
    """pi(limit) for limit >= 10^7, counted up from pi(10^7)."""
    base, pi = PI_BASE
    if limit < base:
        raise ValueError(f"prime_pi is counted up from {base}")
    return pi + sum(map(inputs.is_prime, range(base + 1, limit + 1)))


def density_result(text: str) -> tuple[int, int]:
    res = json.loads(text)["result"]
    return res["primes_total"], res["primes_in_qa"]


def listing_result(text: str) -> tuple[int, str, str]:
    """(record count, digest of the ell list, digest of the output bytes)."""
    res = json.loads(text)["result"]
    ells = [p["ell"] for p in res["primes"]]
    if res["count"] != len(ells) or any(x >= y for x, y in zip(ells, ells[1:])):
        raise ValueError("prime list not ascending or count field wrong")
    return len(ells), digest(ells), digest(text.encode())


def enumerate_result(text: str) -> tuple[int, str]:
    values = json.loads(text)["result"]["m_values"]
    if any(m % 9 != 1 for m in values) or any(x >= y for x, y in zip(values, values[1:])):
        raise ValueError("m list not ascending or some m != 1 mod 9")
    return len(values), digest(values)


def certify_result(report, check_names: list[str]) -> str:
    """Conclusion initial plus the indices of the failed checks, e.g. "N2.4"."""
    idx = []
    for name in report.failed_checks:
        if name not in check_names:
            check_names.append(name)
        idx.append(str(check_names.index(name)))
    return report.conclusion.value[0] + ".".join(idx)


def count_oracle(ell: int, data) -> str | None:
    if data.count != ell + 1 - data.trace:
        return f"count {data.count} != ell + 1 - trace at ell={ell}"
    if data.trace * data.trace > 4 * ell:
        return f"trace {data.trace} breaks the Hasse bound at ell={ell}"
    return None


class Checker:
    """Compares workload outputs against the recorded reference."""

    def __init__(self, reference: dict) -> None:
        self.ref = reference
        self.check_names = list(reference["queries"]["check_names"])

    @classmethod
    def load(cls) -> "Checker":
        ref = json.loads(REFERENCE_PATH.read_text())
        if ref["inputs"] != reference_inputs():
            raise RuntimeError(f"{REFERENCE_PATH.name} was recorded for other input sizes")
        if ref["queries"]["pools"] != pools_digest():
            raise RuntimeError(f"{REFERENCE_PATH.name} was recorded for other query pools")
        return cls(ref)

    def density(self, a: int, limit: int, text: str) -> tuple[str | None, int]:
        total, members = density_result(text)
        if total != prime_pi(limit):
            return f"density a={a} limit={limit}: primes_total {total} != pi(limit)", total
        want = tuple(self.ref["density"][key(a, limit)])
        if (total, members) != want:
            return f"density a={a} limit={limit}: {(total, members)} != {want}", total
        return None, total

    def listing(self, which: str, a: int, limit: int, text: str) -> tuple[str | None, int]:
        got = listing_result(text)
        want = tuple(self.ref[which][key(a, limit)])
        if got[:2] != want[:2]:
            return f"{which} a={a} limit={limit}: prime list {got[:2]} != {want[:2]}", got[0]
        if got[2] != want[2]:
            return f"{which} a={a} limit={limit}: JSON bytes changed", got[0]
        return None, got[0]

    def enumerate(self, a: int, bound: int, text: str) -> tuple[str | None, int]:
        got = enumerate_result(text)
        want = tuple(self.ref["enumerate"][key(a, bound)])
        if got != want:
            return f"enumerate-m a={a} bound={bound}: {got} != {want}", got[0]
        return None, got[0]

    def certify(self, k: int, report) -> str | None:
        got = certify_result(report, self.check_names)
        want = self.ref["queries"]["certify"][k]
        return None if got == want else f"certify pool[{k}]: {got} != {want}"

    def count(self, k: int, ell: int, data) -> str | None:
        bad = count_oracle(ell, data)
        if bad:
            return bad
        want = self.ref["queries"]["count"][k]
        return None if data.trace == want else f"count pool[{k}]: trace {data.trace} != {want}"
