import random
import tracemalloc
from functools import lru_cache

import pytest

from isoresidual.cli import _listing_text, _report_json
from isoresidual.exactarith import GaussianRational
from isoresidual.partitions import (
    _CACHED_STRUCTURES,
    _partitions_by_size,
    enumerate_partitions,
    zero_sum_plan,
)
from isoresidual.profiles import (
    ResidueTuple,
    all_vanishing_structures,
    canonical_mask,
    full_mask,
    identically_zero_structure,
    indices_from_mask,
    realize_residues,
    structure_from_generators,
    trivial_structure,
    vanishing_subsets,
)

from helpers import iter_set_partitions, subset_sum

BELL = [1, 1, 2, 5, 15, 52, 203, 877]


@lru_cache(maxsize=None)
def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def rgs_partitions(n):
    """All set partitions of {1..n} via restricted growth strings; an
    implementation independent of the pivot enumeration."""

    def rec(prefix, top):
        if len(prefix) == n:
            yield prefix
            return
        for value in range(top + 2):
            yield from rec(prefix + [value], max(top, value))

    for rgs in rec([], -1):
        blocks = {}
        for i, value in enumerate(rgs):
            blocks[value] = blocks.get(value, 0) | (1 << i)
        yield tuple(sorted(blocks.values(), key=lambda m: m & -m))


class TestIterSetPartitions:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_bell_numbers(self, n):
        assert sum(1 for _ in iter_set_partitions(full_mask(n))) == BELL[n]

    def test_blocks_ordered_by_smallest_element(self):
        for partition in iter_set_partitions(full_mask(4)):
            lows = [block & -block for block in partition]
            assert lows == sorted(lows)

    def test_matches_growth_string_enumeration(self):
        for n in range(1, 7):
            left = set(iter_set_partitions(full_mask(n)))
            right = set(rgs_partitions(n))
            assert left == right


class TestEnumeratePartitions:
    def test_trivial_structure(self):
        parts = enumerate_partitions(trivial_structure(5))
        assert parts == {1: [(full_mask(5),)]}

    def test_forced_complement(self):
        parts = enumerate_partitions(structure_from_generators(4, [0b0011]))
        assert parts[1] == [(full_mask(4),)]
        assert parts[2] == [(0b0011, 0b1100)]
        assert max(parts) == 2

    def test_identically_zero_three_poles(self):
        parts = enumerate_partitions(identically_zero_structure(3))
        assert {s: len(p) for s, p in parts.items()} == {1: 1, 2: 3, 3: 1}
        assert sum(len(p) for p in parts.values()) == BELL[3]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_stirling_counts_for_zero_structure(self, n):
        parts = enumerate_partitions(identically_zero_structure(n))
        for s in range(1, n + 1):
            assert len(parts.get(s, [])) == stirling2(n, s)

    def test_each_partition_once(self):
        for n in range(2, 6):
            for structure in all_vanishing_structures(n):
                seen = [p for parts in enumerate_partitions(structure).values() for p in parts]
                assert len(seen) == len(set(seen))

    def test_against_filtered_brute_force(self):
        for n in range(2, 6):
            for structure in all_vanishing_structures(n):
                full = full_mask(n)
                qualifying = set()
                for partition in rgs_partitions(n):
                    if all(
                        part == full
                        or canonical_mask(part, n) in structure.closure
                        for part in partition
                    ):
                        qualifying.add(partition)
                produced = {
                    p
                    for parts in enumerate_partitions(structure).values()
                    for p in parts
                }
                assert produced == qualifying

    def test_parts_sum_to_zero_under_realization(self):
        for n in range(2, 6):
            for structure in all_vanishing_structures(n):
                if structure.is_identically_zero():
                    continue
                rho = realize_residues(structure, 0)
                for parts in enumerate_partitions(structure).values():
                    for partition in parts:
                        for part in partition:
                            assert not subset_sum(rho, part)

    def test_partitions_sorted(self):
        for n in range(2, 6):
            for structure in all_vanishing_structures(n):
                for parts in enumerate_partitions(structure).values():
                    assert parts == sorted(parts)

    def test_caches_are_bounded(self):
        for cached in (zero_sum_plan, _partitions_by_size):
            assert cached.cache_info().maxsize is not None
            assert cached.cache_info().maxsize >= 64


def dense_structures():
    """Seeded structures at n = 6..9, each spanned by n-3 or n-2 random
    singletons and pairs, as in a dense batch."""
    rng = random.Random(11)
    for n in range(6, 10):
        for rank in (n - 3, n - 2):
            subsets = [rng.sample(range(n), rng.choice((1, 2))) for _ in range(rank)]
            yield structure_from_generators(n, [sum(1 << i for i in s) for s in subsets])


class TestListingText:
    """The report's listing text, built from the plan, against the JSON of
    the tuple listing."""

    @staticmethod
    def assert_listing_text(structure):
        text = _listing_text(structure)
        listing = enumerate_partitions(structure)
        assert sorted(text) == sorted(listing)
        for s, partitions in listing.items():
            assert text[s] == _report_json(
                [[list(indices_from_mask(p)) for p in partition] for partition in partitions]
            )

    def test_every_structure_to_five_poles(self):
        for n in range(2, 6):
            for structure in all_vanishing_structures(n):
                self.assert_listing_text(structure)

    def test_dense_structures(self):
        structures = list(dense_structures())
        assert {structure.n for structure in structures} == {6, 7, 8, 9}
        for structure in structures:
            self.assert_listing_text(structure)

    def test_identically_zero_seven_poles(self):
        self.assert_listing_text(identically_zero_structure(7))

    def test_cache_is_bounded(self):
        assert _listing_text.cache_info().maxsize == _CACHED_STRUCTURES


def reference_plan(structure):
    """The plan's moves, parts and counts by the plain walk over every
    submask that holds the lowest remaining pole, counting partitions by a
    memoized recursion of its own.  A set's moves are its parts, each
    leading to ``remaining ^ part``."""
    full = full_mask(structure.n)
    qualifying = {full} | structure.closure | {m ^ full for m in structure.closure}
    moves = {}
    stack = [full]
    while stack:
        remaining = stack.pop()
        if not remaining or remaining in moves:
            continue
        pivot = remaining & -remaining
        rest = remaining ^ pivot
        found = []
        sub = rest
        while True:
            if pivot | sub in qualifying:
                found.append(pivot | sub)
            if not sub:
                break
            sub = (sub - 1) & rest
        moves[remaining] = tuple(sorted(found))
        stack.extend(remaining ^ part for part in found)
    moves = dict(sorted(moves.items()))

    @lru_cache(maxsize=None)
    def by_parts(remaining):
        if not remaining:
            return {0: 1}
        counts = {}
        for part in moves[remaining]:
            for s, c in by_parts(remaining ^ part).items():
                counts[s + 1] = counts.get(s + 1, 0) + c
        return counts

    parts = tuple(sorted({part for out in moves.values() for part in out}))
    return moves, parts, tuple(sorted(by_parts(full).items()))


def sparse_rho_structures():
    """Vanishing structures of seeded integer residues at n = 12..16, in one
    to five zero-sum groups over shuffled poles."""
    rng = random.Random(12)
    for n in range(12, 17):
        for groups in range(1, 6):
            poles = rng.sample(range(n), n)
            cuts = sorted(rng.sample(range(1, n), groups - 1))
            values = [0] * n
            for start, stop in zip([0] + cuts, cuts + [n]):
                xs = [rng.randint(-10**6, 10**6) for _ in range(stop - start - 1)]
                for pole, x in zip(poles[start:stop], xs + [-sum(xs)]):
                    values[pole] = x
            yield vanishing_subsets(
                ResidueTuple(tuple(GaussianRational(x) for x in values))
            )


class TestZeroSumPlan:
    """The plan, whichever source each set's moves come from, against the
    plain walk."""

    @staticmethod
    def assert_plan(structure):
        plan = zero_sum_plan(structure)
        moves, parts, counts = reference_plan(structure)
        assert {out.typecode for out in plan.moves.values()} == {"H"}
        assert [(r, tuple(out)) for r, out in plan.moves.items()] == list(moves.items())
        assert plan.parts == parts
        assert plan.counts == counts

    def test_every_structure_to_five_poles(self):
        for n in range(2, 6):
            for structure in all_vanishing_structures(n):
                self.assert_plan(structure)

    def test_dense_structures(self):
        for structure in dense_structures():
            self.assert_plan(structure)

    def test_identically_zero_eight_poles(self):
        self.assert_plan(identically_zero_structure(8))

    def test_sparse_rho_tuples_to_max_poles(self):
        structures = list(sparse_rho_structures())
        assert {structure.n for structure in structures} == set(range(12, 17))
        assert {structure.rank for structure in structures} == set(range(5))
        for structure in structures:
            self.assert_plan(structure)
            # The whole pole set always qualifies; at n = 16 it is the top
            # of the 16-bit range the moves are stored in.
            full = full_mask(structure.n)
            assert full in zero_sum_plan(structure).moves[full]

    def test_plan_holds_under_16_bytes_per_move(self):
        # One array('H') of parts per set: 2 bytes a move plus a header.
        structure = identically_zero_structure(12)
        zero_sum_plan.cache_clear()
        tracemalloc.start()
        try:
            plan = zero_sum_plan(structure)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        moves = sum(map(len, plan.moves.values()))
        assert (len(plan.moves), moves) == (2048, 90621)
        assert held < 16 * moves
