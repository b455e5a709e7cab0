from fractions import Fraction

import pytest

from oracles import brute_elementary_segments, random_transitive_sft
from thermoshift import (InvalidArgumentError, PotentialLC, ResourceLimitError,
                         Sft, birkhoff_average, elementary_orbits, recode_to_one_step)


def _segments(orbits):
    return {tuple(o.segment) for o in orbits}


@pytest.mark.parametrize("rows,k", [
    ([[1, 1], [1, 1]], 1),
    ([[1, 1], [1, 1]], 2),
    ([[1, 1], [1, 0]], 2),
    ([[1, 0, 1], [0, 1, 1], [1, 1, 1]], 2),
    ([[1, 1], [1, 0]], 4),
    ([[1, 1], [1, 1]], 3),
])
def test_enumeration_matches_word_search(rows, k):
    sft = Sft.from_matrix(rows)
    orbits = elementary_orbits(sft, k)
    # an elementary orbit visits pairwise distinct k-blocks, so its period
    # is bounded by the recoded state count
    max_period = max(o.period for o in orbits)
    expected = brute_elementary_segments(sft.transition, k, max_period)
    assert _segments(orbits) == expected
    longer = brute_elementary_segments(sft.transition, k, max_period + 2)
    assert longer == expected


def test_long_ring_is_one_orbit():
    # the single cycle is longer than the default recursion limit
    n = 1100
    ring = Sft.from_matrix([[1 if j == (i + 1) % n else 0 for j in range(n)]
                            for i in range(n)])
    orbits = elementary_orbits(ring, 1)
    assert len(orbits) == 1
    assert orbits[0].period == n
    assert orbits[0].segment == tuple(range(n))


def test_segments_are_canonical_rotations():
    for o in elementary_orbits(Sft.full(2), 2):
        seg = tuple(o.segment)
        n = len(seg)
        rotations = [tuple(seg[(r + j) % n] for j in range(n)) for r in range(n)]
        assert seg == min(rotations)
        assert len(o.cylinders) == o.period
        assert o.state_cycle[0] in o.cylinders


def test_segments_are_least_rotations_on_random_shifts(rng):
    # the census reads each segment from its circuit's least state, with
    # no search: check it against a brute-force least rotation, and the
    # state cycle against the k-blocks read off the segment
    for _ in range(12):
        sft = random_transitive_sft(rng)
        for k in range(1, 6 - sft.d):       # windows whose census stays small
            states = recode_to_one_step(sft, k).states
            for o in elementary_orbits(sft, k):
                seg, n = o.segment, o.period
                assert seg == min(seg[r:] + seg[:r] for r in range(n))
                assert [states[s] for s in o.state_cycle] == [
                    tuple(seg[(i + j) % n] for j in range(k)) for i in range(n)]


def test_birkhoff_average_exact():
    sft = Sft.full(2)
    phi = PotentialLC.from_matrix(sft, [[1, 0], [0, 0]])
    orbits = {tuple(o.segment): o for o in elementary_orbits(sft, 2)}
    assert birkhoff_average(orbits[(0,)], phi) == (Fraction(1),)
    assert birkhoff_average(orbits[(1,)], phi) == (Fraction(0),)
    assert birkhoff_average(orbits[(0, 1)], phi) == (Fraction(0),)
    assert birkhoff_average(orbits[(0, 0, 1)], phi) == (Fraction(1, 3),)


def test_birkhoff_rejects_wider_potential():
    sft = Sft.full(2)
    wide = PotentialLC.from_block_values(
        sft, 3, {b: 0 for b in
                 ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                  (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))})
    orbit = elementary_orbits(sft, 2)[0]
    with pytest.raises(InvalidArgumentError):
        birkhoff_average(orbit, wide)


def test_cap_enforced():
    with pytest.raises(ResourceLimitError):
        elementary_orbits(Sft.full(3), 2, cap=10)
