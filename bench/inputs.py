"""Seeded inputs for the benchmark workloads.

Everything here comes from ``random.Random`` and a prime list built in
this file, never from cubictwist: the program under test receives only
the generated inputs and has no say in choosing them. String seeds are
hashed by ``random`` with SHA-512, so a seed gives the same inputs in
every interpreter, whatever ``PYTHONHASHSEED`` is.
"""

from __future__ import annotations

import functools
import random

# Coefficients with Sel_3(E_a/K) = 0 in the embedded 3-descent table,
# split by s, the number of primes q | a with q = 1 mod 3. Every s = 0
# row keeps all primes = 1 mod 18 past the cube test, every s = 1 row
# one third of them, so rows of one class cost about the same.
S0_ROWS = (-17, -16, -10, -9, -8, -6, -5, -1, 6, 8, 20)
S1_ROWS = (-14, 7, 13, 14)
ROWS = S0_ROWS + S1_ROWS
# a = -k^2 with k made of 2 and 3: Legendre(a, ell) = Legendre(-1, ell)
# and 2, 3 impose no cube condition, so these rows share Q_a and
# enumerate the same m values. Over all s = 0 rows the cost of
# enumerate-m at 10^6 ranges over +-13%, more than the few rounds of
# one run can average out.
ENUMERATE_S0_ROWS = (-16, -9, -1)

DENSITY_LIMIT = 10**7
QA_LIMIT = 10**7
MA_LIMIT = 10**6
ENUMERATE_BOUND = 10**6

# No input repeats within a run, so a cache kept across calls in the
# long-lived benchmark process cannot pay off; a user of the CLI runs
# one call per process and would never see such a gain. Each CLI call
# therefore takes a (row, offset) pair not yet used in the run: the
# limit or bound is the nominal one plus offset * LIMIT_STEP, which
# changes the work by at most 0.2%. OFFSETS gives the number of
# offsets per workload, sized so that a 25 s run at 1.5 times the speed
# of the baseline host still uses each pair at most once (the s = 1
# class, with four rows, runs out first). A longer run wraps around.
LIMIT_STEP = 1000
OFFSETS = {"density": 16, "listing": 4, "enumerate": 5}

# Query pools. A run walks a seeded permutation of each pool, so its
# queries are distinct for the first POOL_SIZE / PER_PASS passes (a 25 s
# run makes about ten) and recorded reference results cover the
# queries of every seed.
CERTIFY_POOL_SIZE = 16000
COUNT_POOL_SIZE = 16000
CERTIFY_PER_PASS = 1000
COUNT_PER_PASS = 1000
WARM_UP_QUERIES = 20
SMALL_COUNT_CHECKS = 4
M_RANGE_CAP = 1 << 64
ELL_RANGE = (5 * 10**6, 2 * 10**7)


def _small_primes(n: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


SMALL_PRIMES = _small_primes(1000)
# The factors of certified-shape twist parameters: a cubefree product
# of primes = 1 mod 18 is = 1 mod 9 and prime to 3, and three of them
# squared stay below 1000**6 < 2**64, inside the certifier's range.
PRIMES_1_MOD_18 = tuple(p for p in SMALL_PRIMES if p % 18 == 1)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as witnesses.

    Deterministic below 3.3 * 10**24, far above the ell range drawn here.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in SMALL_PRIMES[:12]:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def cli_pairs(workload: str, rows: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every (a, offset) a CLI workload can give a call, in a fixed order."""
    return [(a, j * LIMIT_STEP) for a in rows for j in range(OFFSETS[workload])]


def distinct_rounds(workload: str, s0_rows: tuple[int, ...] = S0_ROWS) -> int:
    """Rounds of a CLI workload before a (row, offset) pair repeats."""
    return OFFSETS[workload] * min(len(s0_rows), len(S1_ROWS))


def round_pairs(seed: int, workload: str, i: int, s0_rows: tuple[int, ...] = S0_ROWS) -> list[tuple[int, int]]:
    """The (a, offset) of round i: one s = 0 row, then one s = 1 row.

    Each round takes one row of each class, so every round costs about
    the same. The seed orders the pairs of each class; round i takes
    the i-th of each, so no pair repeats before ``distinct_rounds``.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for rows in (s0_rows, S1_ROWS):
        pairs = cli_pairs(workload, rows)
        rng.shuffle(pairs)
        out.append(pairs[i % len(pairs)])
    return out


def _certify_m(rng: random.Random) -> int:
    kind = rng.random()
    if kind < 0.45:  # certified shape: 1 to 3 primes = 1 mod 18, exponent 1 or 2
        m = 1
        for p in rng.sample(PRIMES_1_MOD_18, rng.randint(1, 3)):
            m *= p ** rng.randint(1, 2)
        return m
    if kind < 0.98:  # every residue mod 9; reaches the wild-place classification
        return rng.randrange(2, 1 << 32)
    return rng.randrange(M_RANGE_CAP, 4 * M_RANGE_CAP)  # refused by the range cap


@functools.cache
def certify_pool() -> list[tuple[int, int]]:
    """The (a, m) queries a queries run samples its certify calls from.

    Cached, since it takes about 0.3 s; callers must not change it.
    """
    rng = random.Random("certify-pool")
    return [(rng.choice(ROWS), _certify_m(rng)) for _ in range(CERTIFY_POOL_SIZE)]


def _ell_1_mod_3(rng: random.Random) -> int:
    lo, hi = ELL_RANGE
    while True:
        ell = rng.randrange(lo, hi) // 6 * 6 + 1
        if is_prime(ell):
            return ell


@functools.cache
def count_pool() -> list[tuple[int, int]]:
    """The (a, ell) queries a queries run samples its fast_count calls from.

    Only ell = 1 mod 3: at ell = 2 mod 3 the count is a constant-time
    shortcut that would dilute the latency percentiles. Cached like
    ``certify_pool``.
    """
    rng = random.Random("count-pool")
    return [(rng.choice(ROWS), _ell_1_mod_3(rng)) for _ in range(COUNT_POOL_SIZE)]


def query_passes() -> int:
    """Passes of a queries run before a pool query repeats."""
    return min(CERTIFY_POOL_SIZE // CERTIFY_PER_PASS, COUNT_POOL_SIZE // COUNT_PER_PASS)


def query_pass(seed: int, i: int) -> list[tuple[str, int]]:
    """Pass i of a queries run: pool indices of its calls, interleaved.

    Pass i takes the i-th slice of a seeded permutation of each pool, so
    no query repeats before ``query_passes`` passes.
    """
    rng = random.Random(f"queries:{seed}")
    j = i % query_passes()
    calls = []
    for kind, size, per_pass in (("certify", CERTIFY_POOL_SIZE, CERTIFY_PER_PASS),
                                 ("count", COUNT_POOL_SIZE, COUNT_PER_PASS)):
        order = list(range(size))
        rng.shuffle(order)
        calls += [(kind, k) for k in order[j * per_pass : (j + 1) * per_pass]]
    random.Random(f"queries:{seed}:{i}").shuffle(calls)
    return calls


def warm_up_queries() -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(certify, count) inputs for the untimed warm-up, none of them in a pool."""
    rng = random.Random("warm-up")
    certify, count = set(certify_pool()), set(count_pool())
    certify_in = [q for q in ((rng.choice(ROWS), _certify_m(rng)) for _ in range(2 * WARM_UP_QUERIES))
                  if q not in certify]
    count_in = [q for q in ((rng.choice(ROWS), _ell_1_mod_3(rng)) for _ in range(2 * WARM_UP_QUERIES))
                if q not in count]
    return certify_in[:WARM_UP_QUERIES], count_in[:WARM_UP_QUERIES]


def small_count_checks(seed: int) -> list[tuple[int, int]]:
    """A few (a, ell) with small ell = 1 mod 3 for the naive-count oracle."""
    rng = random.Random(f"small-count:{seed}")
    ells = [p for p in SMALL_PRIMES if p % 3 == 1 and p > 100]
    return [(rng.choice(ROWS), rng.choice(ells)) for _ in range(SMALL_COUNT_CHECKS)]
