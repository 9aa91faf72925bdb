import json
from itertools import permutations

import pytest

from isoresidual.counting import count_closed_form
from isoresidual.levelgraph import (
    TwoLevelGraph,
    boundary_graphs,
    count_recursive,
    induced_structures,
    twist,
)
from isoresidual.profiles import (
    OrderProfile,
    identically_zero_structure,
    indices_from_mask,
    structure_from_generators,
    trivial_structure,
)

MU_3 = OrderProfile(2, (1, 1, 2))
MU_4 = OrderProfile(4, (2, 2, 1, 1))


def blocks_of(graphs):
    return sorted(
        tuple(indices_from_mask(b) for b in graph.blocks) for graph in graphs
    )


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


class TestBoundaryGraphs:
    def test_three_poles_single_condition(self):
        graphs = boundary_graphs(trivial_structure(3), 0b100)
        assert blocks_of(graphs) == [((1,), (2,), (3,)), ((1, 2), (3,))]

    def test_four_poles_pair_condition(self):
        graphs = boundary_graphs(trivial_structure(4), 0b0011)
        assert blocks_of(graphs) == [
            ((1,), (2,), (3,), (4,)),
            ((1,), (2,), (3, 4)),
            ((1, 2), (3,), (4,)),
            ((1, 2), (3, 4)),
        ]

    def test_previous_structure_enters_the_span(self):
        # {1}|{2,3}|{4} qualifies because the new condition on {1,3} is
        # 2*{1} + {2,3} - {1,2} modulo the total sum
        previous = structure_from_generators(4, [0b0011])
        graphs = boundary_graphs(previous, 0b0101)
        assert ((1,), (2, 3), (4,)) in blocks_of(graphs)

    def test_rejects_dependent_condition(self):
        with pytest.raises(ValueError):
            boundary_graphs(structure_from_generators(4, [0b0011]), 0b1100)


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
        with pytest.raises(ValueError):
            count_recursive(MU_4, structure, generator_order=(0b0011,))

    def test_trace_is_json_ready(self):
        trace = []
        structure = structure_from_generators(4, [0b0011, 0b0101])
        total = count_recursive(MU_4, structure, trace=trace)
        payload = json.loads(json.dumps(trace))
        assert len(payload) == 2
        assert payload[-1]["running_total"] == str(total)
        terms = [t for level in payload for t in level["terms"]]
        assert any("term" in t for t in terms)
        assert any(t.get("skipped") for t in terms)

    def test_pole_count_mismatch(self):
        with pytest.raises(ValueError):
            count_recursive(MU_3, trivial_structure(4))
