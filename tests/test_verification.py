"""The sweeps fail when what they check is wrong.

Each test first runs a small sweep as it is, which must pass, then patches
the function the sweep checks so that it gives one wrong answer, and asserts
that the sweep fails and names what went wrong.
"""

from fractions import Fraction

from isoresidual import verification
from isoresidual.exactarith import GaussianRational
from isoresidual.profiles import structure_from_generators, trivial_structure


def test_recursion_sweep_catches_a_wrong_generator_order(monkeypatch):
    assert verification.check_recursion_equivalence(4, 2).passed
    count_recursive = verification.count_recursive

    def wrong_off_the_canonical_order(profile, structure, *, generator_order=None, trace=None):
        got = count_recursive(profile, structure, generator_order=generator_order, trace=trace)
        if generator_order is not None and tuple(generator_order) != structure.generators:
            got += 1
        return got

    monkeypatch.setattr(verification, "count_recursive", wrong_off_the_canonical_order)
    result = verification.check_recursion_equivalence(4, 2)
    assert not result.passed
    assert result.failures and all("order=" in failure for failure in result.failures)


def test_monotonicity_sweep_catches_a_count_that_does_not_drop(monkeypatch):
    assert verification.check_monotonic_vanishing(4, 2).passed
    count_total = verification._count_total
    pair = structure_from_generators(4, [0b0011])

    def flat_at_the_pair(profile, structure):
        # {1,2} counts as many as the trivial structure when every order is >= 2.
        if structure == pair and min(profile.b) >= 2:
            structure = trivial_structure(4)
        return count_total(profile, structure)

    monkeypatch.setattr(verification, "_count_total", flat_at_the_pair)
    result = verification.check_monotonic_vanishing(4, 2)
    assert not result.passed
    assert result.failures and all("not strict" in failure for failure in result.failures)


def test_oracle_sweep_catches_a_count_on_the_zero_tuple(monkeypatch):
    assert verification.check_oracle_equivalence(4, 1).passed
    oracle_count = verification.oracle_count
    zero = GaussianRational(Fraction(0))

    def one_on_the_zero_tuple(profile, residues):
        if all(value == zero for value in residues.values):
            return 1
        return oracle_count(profile, residues)

    monkeypatch.setattr(verification, "oracle_count", one_on_the_zero_tuple)
    result = verification.check_oracle_equivalence(4, 1)
    assert not result.passed
    assert result.failures == ["zero residue tuple: oracle is not 0"]
