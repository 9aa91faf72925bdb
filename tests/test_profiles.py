from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from isoresidual._linalg import (
    kernel_contains,
    kernel_reduce,
    mask_dot,
    ones_kernel,
    pole_indices,
)
from isoresidual import exactarith, oracle, profiles
from isoresidual.counting import count_closed_form
from isoresidual.exactarith import GaussianRational, scaled_to_gaussian_integers
from isoresidual.profiles import (
    MAX_ENUMERATED_POLES,
    MAX_POLES,
    OrderProfile,
    _greedy_generators,
    _span_closure,
    _zero_sum_closure,
    ResidueTuple,
    VanishingStructure,
    all_vanishing_structures,
    canonical_mask,
    full_mask,
    identically_zero_structure,
    indices_from_mask,
    mask_from_indices,
    realize_residues,
    structure_from_generators,
    structure_kernel,
    trivial_structure,
    vanishing_subsets,
)

from helpers import is_refinement, subset_sum


def gr(x):
    return GaussianRational(Fraction(x))


def residues(*values):
    return ResidueTuple(tuple(gr(v) for v in values))


def half_residues():
    """(1/2 + i, -1, 1/2 - i): scaled by 2 to the rows (1, -2, 1), (2, 0, -2)."""
    return ResidueTuple((GaussianRational(Fraction(1, 2), 1), gr(-1), GaussianRational(Fraction(1, 2), -1)))


class TestOrderProfile:
    def test_basic(self):
        profile = OrderProfile(4, (2, 2, 1, 1))
        assert profile.n == 4
        assert profile.order_sum(0b0011) == 4
        assert profile.order_sum(0b1100) == 2

    def test_from_pole_orders(self):
        assert OrderProfile.from_pole_orders((1, 1, 2)) == OrderProfile(2, (1, 1, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            OrderProfile(3, (1, 1, 2))  # a must be sum(b) - 2
        with pytest.raises(ValueError):
            OrderProfile(0, (2,))  # at least two poles
        with pytest.raises(ValueError):
            OrderProfile(0, (2, 0))  # positive orders


class TestResidueTuple:
    def test_sum_must_vanish(self):
        with pytest.raises(ValueError, match=r"residues must sum to zero \(got 3\)"):
            residues(1, 1, 1)

    def test_rows_are_derived(self):
        rho = half_residues()
        assert rho.rows == ((1, -2, 1), (2, 0, -2))
        assert "rows" not in repr(rho)
        again = ResidueTuple(rho.values)
        assert again == rho and hash(again) == hash(rho) == hash((rho.values,))

    def test_subset_sum(self):
        rho = residues(1, -1, 2, -2)
        assert subset_sum(rho, 0b0011) == gr(0)
        assert subset_sum(rho, 0b0101) == gr(3)

    def test_is_zero(self):
        assert residues(0, 0).is_zero()
        assert not residues(1, -1).is_zero()


class TestMasks:
    def test_round_trip(self):
        assert indices_from_mask(mask_from_indices((1, 3), 4)) == (1, 3)

    def test_one_walk_lists_and_sums(self):
        row = tuple(range(3, 3 + MAX_POLES))
        for mask in (*range(1 << 7), full_mask(MAX_POLES), 0b1010 << 12):
            bits = tuple(i for i in range(MAX_POLES) if mask >> i & 1)
            assert pole_indices(mask) == bits
            assert indices_from_mask(mask) == tuple(i + 1 for i in bits)
            assert mask_dot(row, mask) == sum(row[i] for i in bits)

    def test_canonical_contains_pole_one(self):
        assert canonical_mask(0b0011, 4) == 0b0011
        assert canonical_mask(0b1100, 4) == 0b0011
        with pytest.raises(ValueError):
            canonical_mask(0, 4)
        with pytest.raises(ValueError):
            canonical_mask(full_mask(4), 4)


class TestVanishingSubsets:
    def test_one_pair(self):
        structure = vanishing_subsets(residues(1, -1, 2, -2))
        assert structure.closure == frozenset({0b0011})
        assert structure.rank == 1

    def test_two_pairs(self):
        structure = vanishing_subsets(residues(1, -1, 1, -1))
        assert structure.closure == frozenset({0b0011, 0b1001})
        assert structure.rank == 2

    def test_zero_tuple(self):
        structure = vanishing_subsets(residues(0, 0, 0))
        assert structure.closure == frozenset({0b001, 0b011, 0b101})
        assert structure.rank == 2
        assert structure.is_identically_zero()

    def test_gaussian_values(self):
        # residues (i, -i, 0): the pair {1,2} and the singleton {3} are
        # complements, hence one and the same condition
        rho = ResidueTuple((GaussianRational(0, Fraction(1)),
                            GaussianRational(0, Fraction(-1)), gr(0)))
        structure = vanishing_subsets(rho)
        assert structure.contains(0b100) and structure.contains(0b011)
        assert structure.rank == 1


class TestStructureFromGenerators:
    def test_single_pair(self):
        structure = structure_from_generators(4, [0b0011])
        assert structure.closure == frozenset({0b0011})

    def test_span_does_not_include_third_pairing(self):
        # {1,4}/{2,3} is not a rational combination of {1,2}, {1,3} and the
        # total sum; solving the 3-variable system by hand shows no solution.
        structure = structure_from_generators(4, [0b0011, 0b0101])
        assert structure.closure == frozenset({0b0011, 0b0101})
        assert structure.rank == 2

    def test_singletons_force_zero_tuple(self):
        structure = structure_from_generators(3, [0b001, 0b010])
        assert structure.rank == 2
        assert structure.closure == frozenset({0b001, 0b011, 0b101})

    def test_complement_representative_accepted(self):
        assert structure_from_generators(4, [0b1100]) == structure_from_generators(
            4, [0b0011]
        )

    def test_pole_count_bounds(self):
        with pytest.raises(ValueError):
            structure_from_generators(MAX_POLES + 1, [0b1])
        with pytest.raises(ValueError):
            structure_from_generators(1, [])


def all_structures_up_to(n_max):
    for n in range(2, n_max + 1):
        yield from all_vanishing_structures(n)


class TestClosureLaws:
    def test_closure_idempotence(self):
        for structure in all_structures_up_to(5):
            again = structure_from_generators(structure.n, structure.closure)
            assert again == structure
            assert (again.generators, again.rank) == (structure.generators, structure.rank)

    def test_equality_and_hash_read_the_closure_alone(self):
        structure = structure_from_generators(4, [0b0011, 0b0101])
        reordered = VanishingStructure(4, (0b0101, 0b0011), structure.closure, 2)
        assert reordered == structure and hash(reordered) == hash(structure)
        assert structure != structure_from_generators(4, [0b0011])

    def test_complement_stability(self):
        for structure in all_structures_up_to(5):
            full = full_mask(structure.n)
            for mask in range(1, full):
                assert structure.contains(mask) == structure.contains(mask ^ full)

    def test_rank_counts_independent_conditions(self):
        for structure in all_structures_up_to(5):
            kernel = structure_kernel(structure)
            assert structure.rank == structure.n - 1 - len(kernel)

    def test_generators_sorted_and_minimal(self):
        for structure in all_structures_up_to(5):
            keys = [(g.bit_count(), g) for g in structure.generators]
            assert keys == sorted(keys)
            assert structure.rank == len(structure.generators)


class TestRealizeResidues:
    def test_round_trip_all_structures(self):
        for structure in all_structures_up_to(5):
            if structure.is_identically_zero():
                continue
            for seed in (0, 1, 2):
                rho = realize_residues(structure, seed)
                assert vanishing_subsets(rho).closure == structure.closure

    def test_deterministic(self):
        structure = structure_from_generators(4, [0b0011])
        assert realize_residues(structure, 7) == realize_residues(structure, 7)

    def test_identically_zero_gives_zero_tuple(self):
        rho = realize_residues(identically_zero_structure(4), 0)
        assert rho.is_zero()

    def test_two_pair_pattern(self):
        # conditions r1+r2 = 0 and r1+r3 = 0 with total sum force
        # (t, -t, -t, t)
        structure = structure_from_generators(4, [0b0011, 0b0101])
        rho = realize_residues(structure, 0)
        r = rho.values
        assert r[1] == -r[0] and r[2] == -r[0] and r[3] == r[0]
        assert r[0]

    def test_trivial_structure_generic(self):
        rho = realize_residues(trivial_structure(3), 5)
        assert vanishing_subsets(rho).rank == 0

    @pytest.mark.parametrize(
        "generators", [(), (0b11, 0b1100, 0b110000)], ids=["trivial", "three-pairs"]
    )
    def test_round_trip_at_max_poles(self, generators):
        structure = structure_from_generators(MAX_POLES, generators)
        rho = realize_residues(structure, 0)
        assert vanishing_subsets(rho).closure == structure.closure


class TestRefinement:
    def test_trivial_refines_everything(self):
        for structure in all_vanishing_structures(4):
            assert is_refinement(trivial_structure(4), structure)

    def test_strict_containment(self):
        small = structure_from_generators(4, [0b0011])
        big = structure_from_generators(4, [0b0011, 0b0101])
        assert is_refinement(small, big)
        assert not is_refinement(big, small)

    def test_incomparable(self):
        left = structure_from_generators(4, [0b0011])
        right = structure_from_generators(4, [0b0101])
        assert not is_refinement(left, right)
        assert not is_refinement(right, left)

    def test_pole_count_mismatch(self):
        with pytest.raises(ValueError):
            is_refinement(trivial_structure(3), trivial_structure(4))


class TestStructureEnumeration:
    def test_counts(self):
        # n=3 by hand: the trivial structure, one structure per canonical
        # subset ({1}, {1,2}, {1,3}), and the identically-zero structure.
        assert len(all_vanishing_structures(2)) == 2
        assert len(all_vanishing_structures(3)) == 5
        assert len(all_vanishing_structures(4)) == 18

    def test_all_distinct_and_closed(self):
        structures = all_vanishing_structures(4)
        assert len({s.closure for s in structures}) == len(structures)

    def test_refused_above_the_limit(self):
        assert MAX_ENUMERATED_POLES == 6
        with pytest.raises(ValueError, match="up to 6 poles"):
            all_vanishing_structures(MAX_ENUMERATED_POLES + 1)


def greedy_by_definition(n, closure):
    """The closure's greedy independent subfamily in canonical order, each
    mask tested against every kernel row."""
    kernel = ones_kernel(n)
    gens = []
    for mask in sorted(closure, key=lambda m: (m.bit_count(), m)):
        if not kernel_contains(kernel, mask):
            gens.append(mask)
            kernel = kernel_reduce(kernel, mask)
    return tuple(gens)


def span_closure_by_definition(n, gens):
    """Closure, generators, rank and kernel of a generator set, the closure
    by kernel_contains over every canonical mask."""
    kernel = ones_kernel(n)
    for mask in gens:
        kernel = kernel_reduce(kernel, mask)
    closure = frozenset(m for m in range(1, full_mask(n), 2) if kernel_contains(kernel, m))
    canonical = greedy_by_definition(n, closure)
    return closure, canonical, len(canonical), kernel


def span_closure_read(n, gens):
    """Closure, generators, rank and kernel, read off a fresh (uncached)
    _span_closure call's structure and kernel."""
    structure, kernel = _span_closure.__wrapped__(n, frozenset(gens))
    return structure.closure, structure.generators, structure.rank, kernel


class TestPackedSpanClosure:
    """The packed span closure and the early-stopping greedy generators
    against their definitions."""

    def test_every_structure_up_to_five_poles(self):
        for structure in all_structures_up_to(5):
            n = structure.n
            for gens in (structure.generators, structure.closure):
                assert span_closure_read(n, gens) == span_closure_by_definition(n, gens)

    def test_generators_of_every_structure_up_to_six_poles(self):
        for structure in all_structures_up_to(6):
            n, closure = structure.n, structure.closure
            want = greedy_by_definition(n, closure)
            assert structure.generators == want
            assert _greedy_generators(n, closure, len(want)) == want
            # Stopping only when the kernel is empty finds the same masks.
            assert _greedy_generators(n, closure, n - 1) == want

    @pytest.mark.parametrize("n", [2, 3, 7, MAX_POLES])
    def test_identically_zero_kernel_is_empty(self, n):
        gens = frozenset(1 << i for i in range(n - 1))
        closure, canonical, rank, kernel = span_closure_read(n, gens)
        assert kernel == () and rank == n - 1
        assert closure == frozenset(range(1, full_mask(n), 2))
        assert (closure, canonical, rank, kernel) == span_closure_by_definition(n, gens)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_packed_span_closure_matches_definition(data):
    n = data.draw(st.integers(2, MAX_POLES))
    gens = data.draw(st.lists(st.integers(1, full_mask(n) - 1), max_size=min(n, 6)))
    gens = frozenset(canonical_mask(m, n) for m in gens)
    assert span_closure_read(n, gens) == span_closure_by_definition(n, gens)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vanishing_structure_matches_realization(data):
    n = data.draw(st.integers(2, 5))
    gens = data.draw(
        st.lists(st.integers(1, full_mask(n) - 1), min_size=0, max_size=3)
    )
    structure = structure_from_generators(n, gens)
    if structure.is_identically_zero():
        return
    rho = realize_residues(structure, data.draw(st.integers(0, 100)))
    for mask in range(1, full_mask(n)):
        expected = structure.contains(mask)
        assert (subset_sum(rho, mask) == gr(0)) == expected


def _cancelling(draw, count, cancel):
    """count rationals with denominators up to 10^6; they sum to zero when
    cancel is set."""
    values = [
        Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 10**6)))
        for _ in range(count - 1 if cancel else count)
    ]
    return values + [-sum(values)] if cancel else values


@st.composite
def grouped_residues(draw):
    """Residues on n = 2..10 poles in groups whose real parts, imaginary
    parts, both or neither cancel, or whose imaginary parts are minus the
    real ones (so every subset sum has re = -im); the last pole balances
    the total."""
    n = draw(st.integers(2, 10))
    values = []
    while len(values) < n - 1:
        size = draw(st.integers(1, n - 1 - len(values)))
        kind = draw(st.sampled_from(["both", "re", "im", "neither", "mirror"]))
        re = _cancelling(draw, size, kind in ("both", "re"))
        if kind == "mirror":
            im = [-x for x in re]
        else:
            im = _cancelling(draw, size, kind in ("both", "im"))
        values += [GaussianRational(x, y) for x, y in zip(re, im)]
    total = sum(values, gr(0))
    return ResidueTuple(tuple(values) + (-total,))


@settings(max_examples=80, deadline=None)
@given(grouped_residues())
def test_vanishing_subsets_matches_direct_scan(rho):
    expected = frozenset(
        m for m in range(1, full_mask(rho.n), 2) if subset_sum(rho, m) == gr(0)
    )
    assert rho.rows == tuple(zip(*scaled_to_gaussian_integers(rho.values)))
    assert_structure_by_definition(vanishing_subsets(rho), expected)


def assert_structure_by_definition(structure, closure):
    """The structure has this closure, and its generators and rank are the
    closure's greedy subfamily by definition."""
    want = greedy_by_definition(structure.n, closure)
    assert structure.closure == closure
    assert (structure.generators, structure.rank) == (want, len(want))


@st.composite
def grouped_integers(draw):
    """Small integers on n = 2..16 poles, laid in groups over a shuffled pole
    order so that groups straddle the split between low and high poles; a
    group sums to zero or not, small values add chance zero sums, and the
    last pole of the order balances the total."""
    n = draw(st.integers(2, MAX_POLES))
    order = draw(st.permutations(range(n)))
    values = [0] * n
    start = 0
    while start < n - 1:
        size = draw(st.integers(1, n - 1 - start))
        group = [draw(st.integers(-3, 3)) for _ in range(size)]
        if draw(st.booleans()):
            group[-1] -= sum(group)
        for pole, x in zip(order[start:start + size], group):
            values[pole] = x
        start += size
    values[order[-1]] = -sum(values)
    return values


@settings(max_examples=60, deadline=None)
@given(grouped_integers())
@example([0] * MAX_POLES)
@example([0, 0])
@example([1, -1])
@example([1, 2, 3, -3, -1, -2])  # {1,5} and {2,6} cross the split at n = 6
@example([2, 1, 5, 3, -2, -1, -8])  # and at odd n = 7
def test_zero_sum_closure_matches_brute_force(values):
    n = len(values)
    expected = frozenset(
        m
        for m in range(1, full_mask(n), 2)
        if sum(x for i, x in enumerate(values) if m >> i & 1) == 0
    )
    assert _zero_sum_closure(values) == expected
    # As residues, up to 16 poles and through the rank n - 1 stop.
    assert_structure_by_definition(vanishing_subsets(residues(*values)), expected)


def test_zero_sum_closure_of_the_zero_tuple_at_max_poles():
    closure = _zero_sum_closure([0] * MAX_POLES)
    assert len(closure) == 2 ** (MAX_POLES - 1) - 1
    assert closure == frozenset(range(1, full_mask(MAX_POLES), 2))


def test_residues_are_scaled_once(monkeypatch):
    rho = half_residues()
    profile = OrderProfile.from_pole_orders((3, 2, 2))
    want = count_closed_form(profile, vanishing_subsets(rho)).total

    def refuse(values):
        raise AssertionError("residues scaled a second time")

    for module in (exactarith, profiles, oracle):
        monkeypatch.setattr(module, "scaled_to_gaussian_integers", refuse, raising=False)
    assert vanishing_subsets(rho) == trivial_structure(3)
    assert oracle.oracle_count(profile, rho) == want
