import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from isoresidual import counting, verification
from isoresidual.counting import (
    DegreeFitReport,
    check_monotonicity,
    check_polynomial_degree,
    count_closed_form,
    count_general,
    count_one_vanishing,
    count_two_nonzero,
    degenerate_simple_poles,
    zero_identity_value,
)
from isoresidual.errors import InterpolationMismatch, NegativeResult, NonIntegralResult
from isoresidual.exactarith import falling_f
from isoresidual.levelgraph import count_recursive
from isoresidual.partitions import iter_set_partitions
from isoresidual.profiles import (
    OrderProfile,
    all_vanishing_structures,
    canonical_mask,
    full_mask,
    identically_zero_structure,
    structure_from_generators,
    trivial_structure,
)

MU_3 = OrderProfile(2, (1, 1, 2))
MU_4 = OrderProfile(4, (2, 2, 1, 1))


class TestClosedForm:
    def test_generic_three_poles(self):
        # ground truth from elimination: p^2 + 2p - 1 has two simple roots
        assert count_closed_form(MU_3, trivial_structure(3)).total == 2

    def test_one_vanishing_three_poles(self):
        # ground truth from elimination: the single root p = 1/2
        structure = structure_from_generators(3, [0b100])
        assert count_closed_form(MU_3, structure).total == 1

    def test_one_vanishing_four_poles(self):
        structure = structure_from_generators(4, [0b0011])
        breakdown = count_closed_form(MU_4, structure)
        assert breakdown.total == 9
        assert [value for _, value, _ in breakdown.per_s] == [12, -3]

    def test_rank_two_four_poles(self):
        structure = structure_from_generators(4, [0b0011, 0b0101])
        breakdown = count_closed_form(MU_4, structure)
        assert breakdown.total == 5
        assert [value for _, value, _ in breakdown.per_s] == [12, -7]

    def test_identically_zero_structure(self):
        assert count_closed_form(MU_4, identically_zero_structure(4)).total == 0

    def test_breakdown_consistency(self):
        breakdown = count_closed_form(MU_4, identically_zero_structure(4))
        assert sum(value for _, value, _ in breakdown.per_s) == breakdown.total
        assert breakdown.max_parts == max(s for s, _, _ in breakdown.per_s)

    def test_first_term_is_general_count(self):
        for profile in (MU_3, MU_4, OrderProfile.from_pole_orders((3, 2, 2, 1, 1))):
            breakdown = count_closed_form(
                profile, identically_zero_structure(profile.n)
            )
            assert breakdown.per_s[0][1] == count_general(profile)

    def test_pole_count_mismatch(self):
        with pytest.raises(ValueError):
            count_closed_form(MU_3, trivial_structure(4))


class TestSpecialCases:
    def test_count_general(self):
        assert count_general(MU_3) == 2
        assert count_general(OrderProfile(1, (1, 1, 1))) == 1

    def test_count_general_rejects_a_fraction(self, monkeypatch):
        # A typed error, not an assert: it must hold under python -O too.
        monkeypatch.setattr(counting, "falling_f", lambda a, n: Fraction(1, 2))
        with pytest.raises(NonIntegralResult):
            count_general(MU_3)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_all_simple_poles_factorial(self, n):
        profile = OrderProfile.from_pole_orders((1,) * n)
        expected = 1
        for k in range(2, n - 1):
            expected *= k
        assert count_general(profile) == expected

    def test_one_vanishing_formula(self):
        assert count_one_vanishing(MU_3, 0b100) == 1
        assert count_one_vanishing(MU_4, 0b0011) == 9

    def test_one_vanishing_complement_invariance(self):
        for subset in range(1, full_mask(4)):
            assert count_one_vanishing(MU_4, subset) == count_one_vanishing(
                MU_4, subset ^ full_mask(4)
            )

    def test_two_nonzero(self):
        assert count_two_nonzero(MU_4, 3, 4) == 2
        assert count_two_nonzero(MU_3, 1, 2) == 1

    def test_two_nonzero_simple_pole_elsewhere(self):
        profile = OrderProfile.from_pole_orders((1, 2, 2))
        assert count_two_nonzero(profile, 2, 3) == 0

    def test_two_nonzero_validation(self):
        with pytest.raises(ValueError):
            count_two_nonzero(MU_4, 2, 2)


class TestZeroIdentity:
    def test_three_simple_poles_term_by_term(self):
        profile = OrderProfile(1, (1, 1, 1))
        assert zero_identity_value(profile) == 0
        breakdown = count_closed_form(profile, identically_zero_structure(3))
        assert [value for _, value, _ in breakdown.per_s] == [1, -3, 2]

    def test_two_poles(self):
        profile = OrderProfile(0, (1, 1))
        assert zero_identity_value(profile) == 0
        breakdown = count_closed_form(profile, identically_zero_structure(2))
        assert [value for _, value, _ in breakdown.per_s] == [1, -1]

    def test_mixed_orders(self):
        assert zero_identity_value(MU_4) == 0

    @pytest.mark.parametrize("b", [(2, 1, 3, 1, 1, 2, 4, 1, 2, 1, 3), (1,) * 6 + (2,) * 6])
    def test_eleven_and_twelve_poles(self, b):
        # Bell(12) = 4213597 partitions: out of reach one by one.
        assert zero_identity_value(OrderProfile.from_pole_orders(b)) == 0


class TestDegenerateSimplePoles:
    def test_reports_forced_zero_at_simple_pole(self):
        profile = OrderProfile(1, (1, 1, 1))
        structure = structure_from_generators(3, [0b001])
        assert degenerate_simple_poles(profile, structure) == (1,)
        assert count_closed_form(profile, structure).total == 0

    def test_silent_for_higher_order(self):
        structure = structure_from_generators(3, [0b100])
        assert degenerate_simple_poles(MU_3, structure) == ()


class TestMonotonicity:
    def test_chain(self):
        trivial = trivial_structure(4)
        one = structure_from_generators(4, [0b0011])
        two = structure_from_generators(4, [0b0011, 0b0101])
        zero = identically_zero_structure(4)
        assert check_monotonicity(MU_4, trivial, one)
        assert check_monotonicity(MU_4, one, two)
        assert check_monotonicity(MU_4, two, zero)

    def test_rejects_non_refinement(self):
        with pytest.raises(ValueError):
            check_monotonicity(
                MU_4,
                structure_from_generators(4, [0b0011]),
                structure_from_generators(4, [0b0101]),
            )

    def test_rejects_equal_structures(self):
        with pytest.raises(ValueError):
            check_monotonicity(MU_4, trivial_structure(4), trivial_structure(4))


class TestPolynomialDegree:
    def test_trivial_three_poles(self):
        report = check_polynomial_degree(trivial_structure(3), 3)
        assert report.total_degree == 1
        assert report.top_component_nonzero
        assert report.points_verified == 3**3 - 4

    def test_one_vanishing_three_poles(self):
        report = check_polynomial_degree(structure_from_generators(3, [0b100]), 3)
        assert report.total_degree == 1
        assert report.top_component_nonzero

    def test_four_poles_rank_two(self):
        structure = structure_from_generators(4, [0b0011, 0b0101])
        report = check_polynomial_degree(structure, 3)
        assert report.total_degree == 2
        assert report.top_component_nonzero
        assert report.max_variable_degree <= 2

    def test_rejects_identically_zero(self):
        with pytest.raises(ValueError):
            check_polynomial_degree(identically_zero_structure(3), 3)

    # Every structure the degree sweep builds up to six poles, by its
    # canonical generators, with the report of the rational fit that the
    # forward differences replaced: (monomials, points verified, total
    # degree, top component nonzero, max variable degree) at b_range n - 1.
    SWEEP_REPORTS = [
        (3, (), (4, 4, 1, True, 1)),
        (3, (1,), (4, 4, 1, True, 1)),
        (4, (), (15, 66, 2, True, 2)),
        (4, (1,), (15, 66, 2, True, 2)),
        (4, (3,), (15, 66, 2, True, 2)),
        (4, (3, 5), (15, 66, 2, True, 2)),
        (4, (1, 3), (15, 66, 2, True, 1)),
        (5, (), (56, 968, 3, True, 3)),
        (5, (1,), (56, 968, 3, True, 3)),
        (5, (3,), (56, 968, 3, True, 3)),
        (5, (3, 5), (56, 968, 3, True, 3)),
        (5, (1, 3, 5), (56, 968, 3, True, 1)),
        (6, (), (210, 15415, 4, True, 4)),
        (6, (1,), (210, 15415, 4, True, 4)),
        (6, (3,), (210, 15415, 4, True, 4)),
        (6, (3, 5), (210, 15415, 4, True, 4)),
        (6, (1, 3, 5, 9), (210, 15415, 4, True, 1)),
    ]

    def test_sweep_reports_are_pinned(self, monkeypatch):
        built = []

        def record(structure, b_range):
            built.append((structure.n, structure.generators))
            return DegreeFitReport(structure.n, b_range, 0, 0, structure.n - 2, True, 0)

        monkeypatch.setattr(verification, "check_polynomial_degree", record)
        assert verification.check_degree_interpolation(n_max=6).passed
        assert built == [(n, gens) for n, gens, _ in self.SWEEP_REPORTS]

    @pytest.mark.parametrize("n, gens, fields", SWEEP_REPORTS)
    def test_sweep_report(self, n, gens, fields):
        report = check_polynomial_degree(structure_from_generators(n, gens), n - 1)
        assert report == DegreeFitReport(n, n - 1, *fields)

    @pytest.mark.parametrize(
        "poly, total, top, per_variable",
        [
            (lambda b: 3 * b[0] * b[1] - b[2] + 7, 2, True, 1),
            (lambda b: b[3] ** 2 - 4 * b[0] * b[2] + b[1], 2, True, 2),
            (lambda b: 5 * b[0] - 2, 1, False, 1),
            (lambda b: 9, 0, False, 0),
        ],
    )
    @pytest.mark.parametrize("b_range", [3, 5])
    def test_reads_off_a_known_polynomial(self, monkeypatch, poly, total, top, per_variable, b_range):
        monkeypatch.setattr(counting, "_count_value", lambda profile, _: poly(profile.b))
        report = check_polynomial_degree(trivial_structure(4), b_range)
        assert (report.total_degree, report.top_component_nonzero) == (total, top)
        assert report.max_variable_degree == per_variable
        assert report.points_verified == b_range**4 - 15

    def test_a_term_past_degree_n_minus_2_is_a_mismatch(self, monkeypatch):
        def count(profile, _):
            b = profile.b
            return 3 * b[0] * b[1] - b[2] + 7 + b[0] * b[2] * b[3]

        monkeypatch.setattr(counting, "_count_value", count)
        with pytest.raises(InterpolationMismatch, match=r"\(1, 0, 1, 1\)"):
            check_polynomial_degree(trivial_structure(4), 3)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            check_polynomial_degree(trivial_structure(5), 3)


def qualifying_partitions(structure):
    """Every set partition whose parts all lie in the closure or are the
    whole pole set."""
    n = structure.n
    full = full_mask(n)
    return [
        partition
        for partition in iter_set_partitions(full)
        if all(
            part == full or canonical_mask(part, n) in structure.closure
            for part in partition
        )
    ]


def brute_force_terms(profile, partitions):
    """Per-s terms of the closed form, summed partition by partition."""
    inner, sizes = {}, {}
    for partition in partitions:
        term = 1
        for part in partition:
            term *= falling_f(profile.order_sum(part) - 1, part.bit_count() + 1)
        s = len(partition)
        inner[s] = inner.get(s, 0) + term
        sizes[s] = sizes.get(s, 0) + 1
    a = profile.a
    return [
        (
            s,
            (Fraction(1, a + 1) if s == 1 else (-1) ** (s - 1) * (a + 1) ** (s - 2))
            * inner[s],
            sizes[s],
        )
        for s in sorted(inner)
    ]


class TestSubsetRecursion:
    """The per-s sums of the closed form against a partition-by-partition
    brute force."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_every_structure_small(self, n):
        for structure in all_vanishing_structures(n):
            partitions = qualifying_partitions(structure)
            for b in product(range(1, 4), repeat=n):
                profile = OrderProfile.from_pole_orders(b)
                terms = count_closed_form(profile, structure).per_s
                assert list(terms) == brute_force_terms(profile, partitions)
                assert all(type(value) is Fraction for _, value, _ in terms)

    @pytest.mark.parametrize("n", range(6, 10))
    def test_seeded_dense_structures(self, n):
        rng = random.Random(f"dense {n}")
        for rank in (n - 3, n - 2):
            gens = []
            while structure_from_generators(n, gens).rank < rank:
                gens.append(sum(1 << i for i in rng.sample(range(n), rng.choice((1, 2, 3)))))
            structure = structure_from_generators(n, gens)
            profile = OrderProfile.from_pole_orders([rng.randint(1, 4) for _ in range(n)])
            terms = count_closed_form(profile, structure).per_s
            assert list(terms) == brute_force_terms(profile, qualifying_partitions(structure))


def permute_mask(mask, perm):
    out = 0
    for i, target in enumerate(perm):
        if (mask >> i) & 1:
            out |= 1 << target
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_total_matches_the_exact_terms(data):
    n = data.draw(st.integers(2, 8))
    b = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    gens = data.draw(st.lists(st.integers(1, full_mask(n) - 1), max_size=n - 1))
    profile = OrderProfile.from_pole_orders(b)
    structure = structure_from_generators(n, gens)
    breakdown = count_closed_form(profile, structure)
    total = counting._count_total.__wrapped__(profile, structure)
    assert type(total) is int
    assert total == breakdown.total == sum(value for _, value, _ in breakdown.per_s)


class TestIntegerTotal:
    def test_horner_in_minus_a_plus_one(self):
        # a = 2: (a+1) N = 6 - 3*3 + 9*1 = 6, so N = 2.
        assert counting._integer_total(2, [0, 6, 3, 1]) == 2

    def test_checks_are_kept(self):
        with pytest.raises(NonIntegralResult, match="7/3"):
            counting._integer_total(2, [0, 7])
        with pytest.raises(NegativeResult, match="-1"):
            counting._integer_total(2, [0, 0, 1])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabeling_equivariance(data):
    n = data.draw(st.integers(2, 6))
    b = tuple(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    gens = data.draw(st.lists(st.integers(1, full_mask(n) - 1), max_size=3))
    perm = data.draw(st.permutations(range(n)))

    profile = OrderProfile.from_pole_orders(b)
    structure = structure_from_generators(n, gens)

    permuted_b = [0] * n
    for i, target in enumerate(perm):
        permuted_b[target] = b[i]
    permuted_profile = OrderProfile.from_pole_orders(permuted_b)
    permuted_structure = structure_from_generators(
        n, [permute_mask(g, perm) for g in gens]
    )

    assert (
        count_closed_form(profile, structure).total
        == count_closed_form(permuted_profile, permuted_structure).total
    )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_recursion_relabeling_equivariance(data):
    n = data.draw(st.integers(2, 5))
    b = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    gens = data.draw(st.lists(st.integers(1, full_mask(n) - 1), max_size=2))
    perm = data.draw(st.permutations(range(n)))

    profile = OrderProfile.from_pole_orders(b)
    structure = structure_from_generators(n, gens)
    permuted_b = [0] * n
    for i, target in enumerate(perm):
        permuted_b[target] = b[i]
    permuted = structure_from_generators(n, [permute_mask(g, perm) for g in gens])

    assert count_recursive(profile, structure) == count_recursive(
        OrderProfile.from_pole_orders(permuted_b), permuted
    )
