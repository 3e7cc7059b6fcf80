import numpy as np

from cubictwist.sieve import SEGMENT_SIZE, primes_in_segment, segment_bounds, simple_sieve


def reference_primes(n):
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags)


def segments(limit, segment_size=SEGMENT_SIZE):
    """Primes <= limit, one array per segment, as the library sieves them."""
    base = simple_sieve(int(limit**0.5))
    return [primes_in_segment(lo, hi, base) for lo, hi in segment_bounds(limit, segment_size)]


def primes_up_to(limit, segment_size=SEGMENT_SIZE):
    parts = segments(limit, segment_size)
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def test_simple_sieve_matches_reference():
    for n in (2, 3, 10, 97, 1000, 10_000):
        assert np.array_equal(simple_sieve(n), reference_primes(n))


def test_primes_up_to_small_limits():
    assert primes_up_to(1).size == 0
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(3).tolist() == [2, 3]
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_segmented_equals_simple():
    # force many tiny segments so boundaries get exercised
    got = primes_up_to(50_000, segment_size=97)
    assert np.array_equal(got, reference_primes(50_000))


def test_segment_bounds_cover_exactly():
    for limit in (2, 3, 10, 1000, 12345):
        for size in (7, 100, SEGMENT_SIZE):
            bounds = segment_bounds(limit, size)
            assert bounds[0][0] == 2
            assert bounds[-1][1] == limit + 1
            for (lo1, hi1), (lo2, hi2) in zip(bounds, bounds[1:]):
                assert hi1 == lo2
                assert lo1 < hi1


def test_primes_in_segment_boundaries():
    base = simple_sieve(300)
    # segment starting and ending on primes
    seg = primes_in_segment(89, 98, base)
    assert seg.tolist() == [89, 97]
    assert primes_in_segment(90, 97, base).tolist() == []
    assert primes_in_segment(2, 3, base).tolist() == [2]


def test_iter_prime_segments_concatenation():
    joined = primes_up_to(10_000, segment_size=informative_size())
    assert np.array_equal(joined, reference_primes(10_000))


def informative_size():
    return 64  # smaller than sqrt(10000)^2 so several segments occur


def test_prime_count_known_values():
    for limit, pi in ((10, 4), (1000, 168), (10**6, 78498)):
        assert sum(len(seg) for seg in segments(limit)) == pi
