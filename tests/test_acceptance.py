"""Acceptance gate: every verification sweep at its full stated bounds.

Each criterion is one test so the pytest -v report reads as one pass/fail
line per criterion; the sweep summary (instances checked, runtime, first
counterexample if any) is printed as well.
"""

from isoresidual import verification


def _assert_clean(result, checked):
    # The check count is pinned, so a sweep that quietly skips part of its
    # range fails here even when everything it still checks passes.
    print(result.summary())
    assert result.passed, result.summary()
    assert (result.checked, result.failure_count) == (checked, 0), result.summary()


def test_criterion_1_general_residue_law():
    # closed form == falling_f(a, n) on the trivial structure,
    # all labeled order tuples, n <= 8, b_i <= 5, exact
    _assert_clean(verification.check_general_residue_law(n_max=8, b_max=5), 488_275)


def test_criterion_2_one_vanishing_law():
    # closed form == subtraction formula for every canonical subset,
    # n <= 7, b_i <= 4, exact
    _assert_clean(verification.check_one_vanishing_law(n_max=7, b_max=4), 11_319)


def test_criterion_3_zero_identity():
    # the alternating sum over all set partitions vanishes,
    # n <= 7, b_i <= 5, exact
    _assert_clean(verification.check_zero_identity(n_max=7, b_max=5), 786)


def test_criterion_4_two_nonzero_identity():
    # all-but-two-zero residues count (n-2)! prod(b_k - 1),
    # n <= 7, b_i <= 4, all pairs, exact
    _assert_clean(verification.check_two_nonzero_identity(n_max=7, b_max=4), 4_620)


def test_criterion_5_recursion_equivalence():
    # boundary recursion == closed form on every span-closed structure,
    # n <= 6, b_i <= 4, plus generator-order independence for rank <= 3
    _assert_clean(verification.check_recursion_equivalence(n_max=6, b_max=4), 159_434)


def test_criterion_6_oracle_equivalence():
    # symbolic elimination == closed form for n = 3, sum b <= 10,
    # 20 seeded generic tuples plus every one-vanishing structure,
    # including the anchor instances 2 / 1 / 0 for orders (1, 1, 2)
    _assert_clean(verification.check_oracle_equivalence(sum_b_max=10, seeds=20), 2_763)


def test_criterion_7_monotonicity_and_vanishing():
    # counts never increase under refinement; strictly decrease and vanish
    # only at the identically-zero structure when all b_i >= 2 (with simple
    # poles the strict claims provably fail; see the degenerate carve-outs),
    # including the named chain 12 > 9 > 5 > 0
    _assert_clean(verification.check_monotonic_vanishing(n_max=6, b_max=4), 157_495)


def test_criterion_7_degree_interpolation():
    # the count is an exact polynomial of total degree n - 2 in the pole
    # orders; every Newton coefficient past degree n - 2 of the grid values
    # vanishes and the top component does not, n <= 6
    _assert_clean(verification.check_degree_interpolation(n_max=6), 17)


def test_criterion_8_multiplier_bridge():
    # generic multiplier tuples count (n-2)! maps for n = 3, 4; parabolic
    # and index-constraint rejections fire
    _assert_clean(verification.check_multiplier_bridge(), 23)
