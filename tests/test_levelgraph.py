import json
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from isoresidual import counting, levelgraph
from isoresidual import profiles as profiles_module
from isoresidual._linalg import kernel_contains, kernel_reduce
from isoresidual.counting import count_closed_form, count_one_vanishing
from isoresidual.exactarith import GaussianRational
from isoresidual.levelgraph import (
    TwoLevelGraph,
    boundary_graphs,
    count_recursive,
    induced_structures,
    twist,
)
from isoresidual.partitions import enumerate_partitions, zero_sum_plan
from isoresidual.profiles import (
    OrderProfile,
    ResidueTuple,
    all_vanishing_structures,
    canonical_mask,
    full_mask,
    identically_zero_structure,
    indices_from_mask,
    mask_from_indices,
    structure_from_generators,
    structure_kernel,
    trivial_structure,
    vanishing_subsets,
)

from helpers import iter_set_partitions

MU_3 = OrderProfile(2, (1, 1, 2))
MU_4 = OrderProfile(4, (2, 2, 1, 1))


def blocks_of(strata):
    return sorted(tuple(indices_from_mask(b) for b in blocks) for blocks in strata)


def block_masks(level):
    """A compiled level's strata as block-mask tuples, the form the
    references give."""
    table, strata = level
    return [tuple(sum(1 << i for i in table[i][0]) for i in stratum) for stratum, _ in strata]


class TestTwoLevelGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelGraph(4, (0b0011, 0b0110))  # overlap
        with pytest.raises(ValueError):
            TwoLevelGraph(4, (0b0011,))  # single component
        with pytest.raises(ValueError):
            TwoLevelGraph(4, (0b0011, 0b0100))  # does not cover
        with pytest.raises(ValueError):
            TwoLevelGraph(4, (0b1100, 0b0011))  # wrong order


class TestTwist:
    def test_mixed_orders(self):
        assert twist(TwoLevelGraph(4, (0b0011, 0b1100)), MU_4) == 3

    def test_single_simple_pole_kills(self):
        assert twist(TwoLevelGraph(4, (0b1011, 0b0100)), MU_4) == 0

    def test_three_poles(self):
        assert twist(TwoLevelGraph(3, (0b011, 0b100)), MU_3) == 1


def rigid_strata_by_walk(previous, new_subset):
    """Reference for boundary_graphs: every set partition into at least two
    blocks whose block sums, with the previous structure, span the new
    condition, kept when its bottom is rigid."""
    n = previous.n
    new_subset = canonical_mask(new_subset, n)
    base = structure_kernel(previous)
    out = []
    for blocks in iter_set_partitions(full_mask(n)):
        if len(blocks) < 2:
            continue
        kernel = base
        for block in blocks:
            kernel = kernel_reduce(kernel, block)
        if not kernel_contains(kernel, new_subset):
            continue
        graph = TwoLevelGraph(n, blocks)
        # Unwrapped, so the walk's many non-rigid graphs stay out of the cache.
        if induced_structures.__wrapped__(graph, previous).bottom_dim == 1:
            out.append(blocks)
    return out


def strata_by_listing(previous, new_subset):
    """Reference for the order of boundary_graphs: the enlarged structure's
    listing, partitions into at least two parts in listing order, kept when
    a part's canonical mask lies outside the previous closure."""
    n = previous.n
    current = structure_from_generators(n, previous.generators + (canonical_mask(new_subset, n),))
    return [
        partition
        for s, partitions in enumerate_partitions(current).items()
        if s >= 2
        for partition in partitions
        if any(canonical_mask(part, n) not in previous.closure for part in partition)
    ]


def assert_strata_match(steps):
    for previous, new_subset in steps:
        strata = block_masks(boundary_graphs(previous, new_subset))
        where = ([indices_from_mask(g) for g in previous.generators], indices_from_mask(new_subset))
        assert strata == strata_by_listing(previous, new_subset), where
        assert len(set(strata)) == len(strata)
        assert set(strata) == set(rigid_strata_by_walk(previous, new_subset)), where


class TestBoundaryGraphs:
    def test_three_poles_single_condition(self):
        # the singletons {1}|{2}|{3} span the condition too, but their node
        # residues range over a plane: not rigid
        graphs = block_masks(boundary_graphs(trivial_structure(3), 0b100))
        assert blocks_of(graphs) == [((1, 2), (3,))]

    def test_four_poles_pair_condition(self):
        graphs = block_masks(boundary_graphs(trivial_structure(4), 0b0011))
        assert blocks_of(graphs) == [((1, 2), (3, 4))]

    def test_previous_structure_enters_the_span(self):
        # {1}|{2,3}|{4} spans the new condition on {1,3}, which is
        # 2*{1} + {2,3} - {1,2} modulo the total sum, but its node residues
        # (x, y - x, -y) range over a plane; only the new zero-sum partition
        # {1,3}|{2,4} is rigid
        previous = structure_from_generators(4, [0b0011])
        graphs = block_masks(boundary_graphs(previous, 0b0101))
        assert blocks_of(graphs) == [((1, 3), (2, 4))]
        walked = rigid_strata_by_walk(previous, 0b0101)
        assert blocks_of(walked) == [((1, 3), (2, 4))]
        assert induced_structures(TwoLevelGraph(4, (0b0001, 0b0110, 0b1000)), previous).bottom_dim == 2

    def test_rejects_dependent_condition(self):
        with pytest.raises(ValueError):
            boundary_graphs(structure_from_generators(4, [0b0011]), 0b1100)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_canonical_step_matches_the_walk(self, n):
        steps = {
            (structure_from_generators(n, s.generators[:k]), s.generators[k])
            for s in all_vanishing_structures(n)
            for k in range(s.rank)
        }
        assert_strata_match(steps)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_strata_count_is_the_plan_count_difference(self, n):
        # |P(V_k)| - |P(V_{k-1})| over the zero-sum partitions P: the
        # one-part partition is in both, and every other new one is a stratum.
        def partition_count(structure):
            return sum(count for _, count in zero_sum_plan(structure).counts)

        steps = {
            (structure_from_generators(n, s.generators[:k]), s.generators[k])
            for s in all_vanishing_structures(n)
            for k in range(s.rank)
        }
        for previous, new_subset in steps:
            current = structure_from_generators(n, previous.generators + (new_subset,))
            _, strata = boundary_graphs(previous, new_subset)
            assert len(strata) == (
                partition_count(current) - partition_count(previous)
            )
        assert len(steps) == {2: 1, 3: 4, 4: 17, 5: 116, 6: 1787}[n]  # 1925 in all

    @pytest.mark.parametrize("n", range(3, 6))
    def test_every_generator_order_matches_the_walk(self, n):
        steps = set()
        for structure in all_vanishing_structures(n):
            if structure.rank > 3:
                continue
            for order in permutations(structure.generators):
                for k in range(len(order)):
                    steps.add((structure_from_generators(n, order[:k]), order[k]))
        assert_strata_match(steps)


class TestInducedStructures:
    def test_rigid_trivial_bottom(self):
        graph = TwoLevelGraph(3, (0b011, 0b100))
        induced = induced_structures(graph, trivial_structure(3))
        assert induced.bottom_dim == 1
        assert induced.bottom.is_trivial()
        assert induced.tops[0].is_trivial() and induced.tops[1] is None

    def test_nodes_forced_to_zero(self):
        graph = TwoLevelGraph(4, (0b0011, 0b1100))
        induced = induced_structures(graph, structure_from_generators(4, [0b0011]))
        assert induced.bottom_dim == 0
        assert induced.bottom.is_identically_zero()

    def test_non_rigid_bottom(self):
        graph = TwoLevelGraph(4, (0b0001, 0b0010, 0b1100))
        induced = induced_structures(graph, trivial_structure(4))
        assert induced.bottom_dim == 2
        assert induced.bottom.is_trivial()

    def test_non_subset_rigidity_detected(self):
        # previous conditions r1+r2 = 0 and r1+r3 = 0 on five poles force the
        # node residues of {1,4,5}|{2}|{3} onto the line (2,-1,-1), which no
        # subset-sum relation detects
        previous = structure_from_generators(5, [0b00011, 0b00101])
        graph = TwoLevelGraph(5, (0b11001, 0b00010, 0b00100))
        induced = induced_structures(graph, previous)
        assert induced.bottom_dim == 1
        assert induced.bottom.is_trivial()

    def test_top_inherits_block_sum_consequences(self):
        previous = structure_from_generators(4, [0b0001])
        graph = TwoLevelGraph(4, (0b1101, 0b0010))
        induced = induced_structures(graph, previous)
        top = induced.tops[0]
        # pole 1 keeps residue zero inside the component {1, 3, 4}
        assert top.rank == 1 and top.contains(0b001)


def image_rank(rows):
    """Rank over Q of integer rows, by Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col] / work[rank][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def induced_by_images(graph, previous):
    """Reference for induced_structures: the bottom from the image of the
    admissible tuples under the block sums, with the direction's own
    vanishing subsets when the image is a line."""
    m = len(graph.blocks)
    base = structure_kernel(previous)
    images = [
        tuple(sum(row[i - 1] for i in indices_from_mask(block)) for block in graph.blocks)
        for row in base
    ]
    bottom_dim = image_rank(images)
    if bottom_dim == 0:
        bottom = identically_zero_structure(m)
    elif bottom_dim == 1:
        direction = next(image for image in images if any(image))
        bottom = vanishing_subsets(
            ResidueTuple(tuple(GaussianRational(Fraction(x)) for x in direction))
        )
    else:
        bottom = structure_from_generators(m, [
            local
            for local in range(1, full_mask(m), 2)
            if all(sum(image[j] for j in range(m) if local >> j & 1) == 0 for image in images)
        ])
    top_kernel = base
    for block in graph.blocks:
        top_kernel = kernel_reduce(top_kernel, block)
    tops = []
    for block in graph.blocks:
        poles = indices_from_mask(block)
        if len(poles) == 1:
            tops.append(None)
            continue
        tops.append(structure_from_generators(len(poles), [
            local
            for local in range(1, full_mask(len(poles)), 2)
            if kernel_contains(
                top_kernel,
                sum(1 << (p - 1) for j, p in enumerate(poles) if local >> j & 1),
            )
        ]))
    return bottom, bottom_dim, tuple(tops)


def scanned_top_closures(graph, previous):
    """Each top's closure by testing every canonical local mask against
    the kernel that the block sums cut, with no zero-sum finder."""
    top_kernel = structure_kernel(previous)
    for block in graph.blocks:
        top_kernel = kernel_reduce(top_kernel, block)
    closures = []
    for block in graph.blocks:
        poles = indices_from_mask(block)
        if len(poles) == 1:
            closures.append(None)
            continue
        closures.append(frozenset(
            local
            for local in range(1, full_mask(len(poles)), 2)
            if kernel_contains(
                top_kernel, sum(1 << (p - 1) for j, p in enumerate(poles) if local >> j & 1)
            )
        ))
    return closures


class TestInducedByImages:
    def test_every_stratum_up_to_five_poles(self):
        pairs = 0
        for n in range(2, 6):
            for previous in all_vanishing_structures(n):
                for blocks in iter_set_partitions(full_mask(n)):
                    if len(blocks) < 2:
                        continue
                    graph = TwoLevelGraph(n, blocks)
                    induced = induced_structures.__wrapped__(graph, previous)
                    got = (induced.bottom, induced.bottom_dim, induced.tops)
                    assert got == induced_by_images(graph, previous), (
                        [indices_from_mask(g) for g in previous.generators],
                        [indices_from_mask(b) for b in blocks],
                    )
                    pairs += 1
        assert pairs == 6241  # 5967 of them at five poles

    def test_tops_of_five_or_more_poles(self):
        # From a top of five poles on, the zero-sum finder's high half holds
        # two poles or more, which no stratum up to five poles reaches.  The
        # reference builds its structures through that finder too, so each
        # top's closure is also checked against a scan of its local masks.
        pairs = 0
        for n in range(6, 9):
            rng = random.Random(n)
            structures = [
                structure_from_generators(
                    n, [rng.randrange(1, full_mask(n), 2) for _ in range(rank)]
                )
                for rank in (1, 2, 3)
            ]
            for _ in range(2):  # integer residues in [-2, 2]: many coincident sums
                values = [rng.randint(-2, 2) for _ in range(n - 1)]
                structures.append(vanishing_subsets(ResidueTuple(
                    tuple(GaussianRational(Fraction(x)) for x in values + [-sum(values)])
                )))
            for previous in structures:
                for blocks in iter_set_partitions(full_mask(n)):
                    if len(blocks) < 2 or max(b.bit_count() for b in blocks) < 5:
                        continue
                    graph = TwoLevelGraph(n, blocks)
                    induced = induced_structures.__wrapped__(graph, previous)
                    got = (induced.bottom, induced.bottom_dim, induced.tops)
                    assert got == induced_by_images(graph, previous), (
                        [indices_from_mask(g) for g in previous.generators],
                        [indices_from_mask(b) for b in blocks],
                    )
                    assert [top and top.closure for top in induced.tops] == scanned_top_closures(
                        graph, previous
                    )
                    pairs += 1
        assert pairs == 5 * (6 + 49 + 344)


class TestCountRecursive:
    def test_one_vanishing_three_poles(self):
        structure = structure_from_generators(3, [0b100])
        assert count_recursive(MU_3, structure) == 1

    def test_one_vanishing_four_poles(self):
        structure = structure_from_generators(4, [0b0011])
        assert count_recursive(MU_4, structure) == 9

    def test_rank_two_four_poles(self):
        structure = structure_from_generators(4, [0b0011, 0b0101])
        assert count_recursive(MU_4, structure) == 5

    def test_trivial_is_general_count(self):
        assert count_recursive(MU_4, trivial_structure(4)) == 12

    def test_identically_zero(self):
        assert count_recursive(MU_4, identically_zero_structure(4)) == 0

    def test_forced_zero_at_simple_pole(self):
        profile = OrderProfile(1, (1, 1, 1))
        structure = structure_from_generators(3, [0b001])
        assert count_recursive(profile, structure) == 0

    def test_generator_order_independence(self):
        profile = OrderProfile.from_pole_orders((2, 2, 2, 2, 2))
        structure = structure_from_generators(5, [0b00001, 0b00011, 0b00101])
        expected = count_closed_form(profile, structure).total
        assert expected == 6
        for order in permutations(structure.generators):
            assert count_recursive(profile, structure, generator_order=order) == 6

    def test_order_must_generate_structure(self):
        structure = structure_from_generators(4, [0b0011, 0b0101])
        # Twice: the second call finds the order's program cached.
        for _ in range(2):
            with pytest.raises(ValueError):
                count_recursive(MU_4, structure, generator_order=(0b0011,))
        # An order that generates more than the structure.
        with pytest.raises(ValueError):
            count_recursive(MU_4, structure, generator_order=(0b0011, 0b0101, 0b0001))
        # A dependent condition ({2,4} is the complement of {1,3}) is
        # refused before any program is built.
        with pytest.raises(ValueError, match="already hold"):
            count_recursive(MU_4, structure, generator_order=(0b0011, 0b0101, 0b1010))

    def test_order_is_checked_before_the_zero_structure_counts_zero(self):
        profile = OrderProfile.from_pole_orders((2, 2, 2, 2))
        zero = identically_zero_structure(4)
        with pytest.raises(ValueError, match="does not generate"):
            count_recursive(profile, zero, generator_order=(0b0011,))
        assert count_recursive(profile, zero, generator_order=(0b0100, 0b0011, 0b0101)) == 0

    def test_a_refused_order_compiles_no_program(self):
        structure = structure_from_generators(5, [0b00011, 0b00101])
        misses = levelgraph._program.cache_info().misses
        for order in ((0b00011,), (0b00011, 0b00101, 0b11000), (0b00011, 0b00101, 0b00110)):
            with pytest.raises(ValueError):
                count_recursive(OrderProfile.from_pole_orders((2,) * 5), structure, generator_order=order)
        assert levelgraph._program.cache_info().misses == misses

    def test_trace_does_not_change_the_total(self):
        profiles = [OrderProfile.from_pole_orders(b) for b in ((2, 1, 3, 1, 2), (1, 1, 1, 1, 1))]
        for structure in all_vanishing_structures(5):
            for profile in profiles:
                trace = []
                total = count_recursive(profile, structure, trace=trace)
                assert total == count_recursive(profile, structure)
                if structure.is_identically_zero():
                    assert total == 0 and trace == []  # counted before any level
                    continue
                assert [level["level"] for level in trace] == list(range(1, structure.rank + 1))
                if trace:
                    assert trace[-1]["running_total"] == str(total)

    def test_trace_twist_is_the_graph_twist(self):
        for n in range(2, 6):
            profiles = [
                OrderProfile.from_pole_orders(b)
                for b in ((1,) * n, tuple(1 + i % 2 for i in range(n)), (3,) + (1,) * (n - 1))
            ]
            for structure in all_vanishing_structures(n):
                for profile in profiles:
                    trace = []
                    count_recursive(profile, structure, trace=trace)
                    for term in (t for level in trace for t in level["terms"]):
                        blocks = tuple(mask_from_indices(b, n) for b in term["blocks"])
                        assert term["twist"] == str(twist(TwoLevelGraph(n, blocks), profile))

    def test_trace_is_json_ready(self):
        trace = []
        structure = structure_from_generators(4, [0b0011, 0b0101])
        total = count_recursive(MU_4, structure, trace=trace)
        payload = json.loads(json.dumps(trace))
        assert len(payload) == 2
        assert payload[-1]["running_total"] == str(total)
        terms = [t for level in payload for t in level["terms"]]
        assert terms
        # every listed stratum is rigid and carries its term
        assert all(t["bottom_dim"] == 1 and "term" in t for t in terms)
        assert not any("skipped" in t for t in terms)

    def test_pole_count_mismatch(self):
        with pytest.raises(ValueError):
            count_recursive(MU_3, trivial_structure(4))


class TestProgramOncePerStructure:
    STRUCTURE = structure_from_generators(5, [0b00011, 0b00101])

    def test_a_second_profile_adds_no_cache_miss(self):
        compiled = (levelgraph._program, boundary_graphs, levelgraph._bottom)
        # Cleared first, so the first profile compiles what it reads.
        for cache in compiled + (levelgraph._recursive_total,):
            cache.cache_clear()
        count_recursive(OrderProfile.from_pole_orders((2, 2, 2, 2, 2)), self.STRUCTURE)
        induced = induced_structures.cache_info().misses
        misses = [cache.cache_info().misses for cache in compiled]
        assert all(misses)
        count_recursive(OrderProfile.from_pole_orders((3, 2, 4, 2, 5)), self.STRUCTURE)
        assert induced_structures.cache_info().misses == induced
        assert [cache.cache_info().misses for cache in compiled] == misses

    def test_a_program_extends_its_prefix(self):
        # Every canonical sequence up to five poles, every order of a
        # rank-3 structure, and the dense chain at eight poles.
        sequences = [(n, s.generators) for n in range(2, 6) for s in all_vanishing_structures(n)]
        rank_three = structure_from_generators(5, [0b00001, 0b00011, 0b00101])
        sequences += [(5, order) for order in permutations(rank_three.generators)]
        sequences.append((8, dense_chain(8)[1].generators))
        for n, generators in sequences:
            if not generators:
                continue
            reached, levels = levelgraph._program(n, generators)
            prefix_reached, prefix = levelgraph._program(n, generators[:-1])
            assert len(levels) == len(prefix) + 1
            assert all(level is shared for level, shared in zip(levels, prefix))
            assert levels[-1] is boundary_graphs(prefix_reached, generators[-1])
            assert reached is structure_from_generators(n, prefix_reached.generators + generators[-1:])

    def test_an_equal_step_is_compiled_once(self):
        # The orders (a, b, c) and (b, a, c) share their third step, from
        # the span of a and b by c: both hold that step's one level object,
        # and once (b, a) is compiled, (b, a, c) compiles nothing new.
        a, b, c = structure_from_generators(5, [0b00001, 0b00011, 0b00101]).generators
        compiled = (boundary_graphs, levelgraph._bottom)
        for cache in compiled + (levelgraph._program,):
            cache.cache_clear()
        _, first = levelgraph._program(5, (a, b, c))
        levelgraph._program(5, (b, a))
        misses = [cache.cache_info().misses for cache in compiled]
        programs = levelgraph._program.cache_info().misses
        _, second = levelgraph._program(5, (b, a, c))
        assert levelgraph._program.cache_info().misses == programs + 1
        assert len(first[2][1]) > 0 and second[2] is first[2]
        assert [cache.cache_info().misses for cache in compiled] == misses

    def test_a_top_is_looked_up_once_per_block_and_level(self):
        # A top sub-count is looked up on its block's first use in a level,
        # and a zero bottom still skips the tops: the dense chain computes
        # its 910 sub-counts and no more, in fewer hits than the 34,979 of
        # one top lookup per stratum.
        levelgraph._recursive_total.cache_clear()
        count_recursive(*dense_chain(9))
        info = levelgraph._recursive_total.cache_info()
        assert info.misses == 910
        assert info.hits < 34979

    def test_bottoms_are_keyed_by_primitive_node_vector(self):
        # The dense chain at eight poles meets 26 primitive node vectors;
        # keyed by the raw block sums, the bottoms would miss 51 times.
        for cache in (levelgraph._bottom, boundary_graphs, levelgraph._program,
                      levelgraph._recursive_total):
            cache.cache_clear()
        count_recursive(*dense_chain(8))
        assert levelgraph._bottom.cache_info().misses == 26

    def test_a_second_profile_does_no_mask_work(self, monkeypatch):
        # Orders >= 2 make every term nonzero, so the first profile builds
        # the program of every sub-count the second one needs.
        first = OrderProfile.from_pole_orders((2, 3, 2, 2, 2))
        count_recursive(first, self.STRUCTURE)

        def refuse(*args, **kwargs):
            raise AssertionError("mask work in the per-profile loop")

        for name in ("mask_dot", "indices_from_mask", "trivial_structure",
                     "structure_from_generators", "canonical_mask"):
            for module in (levelgraph, profiles_module):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        second = OrderProfile.from_pole_orders((4, 2, 3, 5, 2))
        got = count_recursive(second, self.STRUCTURE)
        monkeypatch.undo()
        assert got == count_closed_form(second, self.STRUCTURE).total


class TestRecursionStandsAlone:
    def test_never_consults_the_closed_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the recursion called the closed form")

        # Cleared first, so a cached closed-form total cannot hide a call.
        counting._count_total.cache_clear()
        levelgraph._recursive_total.cache_clear()
        monkeypatch.setattr(counting, "count_closed_form", refuse)
        monkeypatch.setattr(counting, "_count_total", refuse)
        assert count_recursive(MU_4, structure_from_generators(4, [0b0011])) == 9
        assert count_recursive(MU_4, structure_from_generators(4, [0b0011, 0b0101])) == 5
        assert count_recursive(MU_4, trivial_structure(4)) == 12

    def test_lists_no_partitions(self, monkeypatch):
        # The strata come from a walk over the plan: no listing of V_k and
        # no graph object per stratum.
        def refuse(*args):
            raise AssertionError("the recursion listed partitions or built a graph")

        # Cleared first, so a cached program or count cannot hide a listing.
        for cache in (levelgraph._program, boundary_graphs, levelgraph._recursive_total):
            cache.cache_clear()
        monkeypatch.setattr("isoresidual.partitions.enumerate_partitions", refuse)
        monkeypatch.setattr("isoresidual.partitions._partitions_by_size", refuse)
        monkeypatch.setattr(levelgraph, "TwoLevelGraph", refuse)
        profile, structure = dense_chain(8)
        assert count_recursive(profile, structure) == count_closed_form(profile, structure).total

    @pytest.mark.parametrize("n, subset", [(12, 0b111), (12, 0b101001), (16, 0b11), (16, 0b1010101)])
    def test_one_vanishing_up_to_sixteen_poles(self, n, subset):
        profile = OrderProfile.from_pole_orders(tuple(1 + i % 3 for i in range(n)))
        start = time.perf_counter()
        got = count_recursive(profile, structure_from_generators(n, [subset]))
        assert time.perf_counter() - start < 1
        assert got == count_one_vanishing(profile, subset)

    @pytest.mark.parametrize("generators", [(0b11, 0b11100), (0b11, 0b101)])
    def test_rank_two_at_sixteen_poles(self, generators):
        profile = OrderProfile.from_pole_orders(tuple(1 + i % 3 for i in range(16)))
        structure = structure_from_generators(16, generators)
        start = time.perf_counter()
        got = count_recursive(profile, structure)
        assert time.perf_counter() - start < 1
        assert got == count_closed_form(profile, structure).total


def dense_chain(n):
    """Orders 2, ..., 2, 1, 1 and the singleton vanishings 1..n-2: every
    residue but the last two is zero, rank n - 2, one short of the zero
    tuple."""
    profile = OrderProfile.from_pole_orders((2,) * (n - 2) + (1, 1))
    return profile, structure_from_generators(n, [1 << i for i in range(n - 2)])


class TestOneStructurePerSpan:
    def test_every_path_shares_the_cached_structure(self):
        assert structure_from_generators(4, [0b0011]) is structure_from_generators(4, [0b1100])
        assert trivial_structure(6) is trivial_structure(6)
        _, structure = dense_chain(8)
        _, levels = levelgraph._program(8, structure.generators)
        tops = [top for table, _ in levels for _, top in table if top is not None]
        bottoms = [bottom for _, strata in levels for _, bottom in strata]
        shared = tops + bottoms
        assert len(bottoms) == 876 and len(shared) > len(bottoms)
        for s in shared:
            assert s is structure_from_generators(s.n, s.closure)


def assert_program_matches_the_reference(n, generators):
    """Every stratum of the program: its tops and bottom are the very
    objects the general induced_structures gives, whose bottom_dim is 1."""
    _, levels = levelgraph._program(n, generators)
    strata = 0
    for k, level in enumerate(levels):
        previous = levelgraph._program(n, generators[:k])[0]
        table, compiled = level
        # Each distinct block once, and every one in some stratum.
        used = {i for stratum, _ in compiled for i in stratum}
        assert len({poles for poles, _ in table}) == len(table) == len(used)
        for blocks, (stratum, bottom) in zip(block_masks(level), compiled):
            graph = TwoLevelGraph(n, blocks)
            # Unwrapped, so the reference fills no cache of its own.
            want = induced_structures.__wrapped__(graph, previous)
            tops = [table[i][1] for i in stratum]
            assert want.bottom_dim == 1
            assert bottom is want.bottom
            assert len(tops) == len(want.tops)
            assert all(top is ref for top, ref in zip(tops, want.tops)), (
                [indices_from_mask(g) for g in generators[:k + 1]], blocks
            )
            strata += 1
    return strata


class TestProgramAgainstInducedStructures:
    def test_every_structure_up_to_five_poles(self):
        strata = sum(
            assert_program_matches_the_reference(n, structure.generators)
            for n in range(2, 6)
            for structure in all_vanishing_structures(n)
        )
        assert strata == 590

    def test_dense_chain_at_eight_poles(self):
        _, structure = dense_chain(8)
        assert assert_program_matches_the_reference(8, structure.generators) == 876


class TestRecursionPastSixPoles:
    """The recursion against the closed form beyond the structures
    all_vanishing_structures enumerates."""

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_dense_chain(self, n):
        profile, structure = dense_chain(n)
        assert count_recursive(profile, structure) == count_closed_form(profile, structure).total

    # Seeds whose residues give ranks 5 to 8 and nonzero counts.
    @pytest.mark.parametrize("n, seed", [
        (9, 2), (9, 6), (9, 14), (9, 38), (10, 1), (10, 2), (10, 9), (10, 14),
    ])
    def test_seeded_integer_residues(self, n, seed):
        rng = random.Random(seed)
        values = [rng.randint(-3, 3) for _ in range(n - 1)]
        structure = vanishing_subsets(ResidueTuple(
            tuple(GaussianRational(Fraction(x)) for x in values + [-sum(values)])
        ))
        profile = OrderProfile.from_pole_orders(tuple(rng.randint(1, 3) for _ in range(n)))
        assert 5 <= structure.rank <= 8
        want = count_closed_form(profile, structure).total
        assert want and count_recursive(profile, structure) == want
