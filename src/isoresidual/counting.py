"""Closed-form counts of single-zero differentials with fixed residues.

The count for a profile (a; b_1..b_n) and a vanishing structure V is the
alternating sum over partitions of the pole set into s zero-sum parts

    N = sum_s (-1)^(s-1) (a+1)^(s-2) sum_{partitions} prod_parts falling_f(b_J - 1, |J| + 1)

where b_J is the total pole order of a part.  The s = 1 term carries the
rational factor 1/(a+1) but always collapses to the integer falling_f(a, n);
the total is summed in ints as (a+1) N and divided once, the per-s terms of
a breakdown are exact Fractions, and a total that is not a nonnegative
integer raises NonIntegralResult or NegativeResult.

The inner sums are not taken partition by partition.  Each partition is
built by removing the zero-sum part that holds the lowest remaining pole, so
the sums by part count s obey a recursion over the remaining pole set; the
structure's ``partitions.zero_sum_plan`` holds the reachable sets and their
moves, and a profile only supplies the weight of each part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from operator import sub

from .errors import InterpolationMismatch, NegativeResult, NonIntegralResult
from .exactarith import falling_f
from .partitions import sums_by_part_count, zero_sum_plan
from .profiles import (
    Mask,
    OrderProfile,
    VanishingStructure,
    canonical_mask,
    identically_zero_structure,
    is_refinement,
    mask_from_indices,
    pole_indices,
)

__all__ = [
    "CountBreakdown",
    "count_closed_form",
    "count_general",
    "count_one_vanishing",
    "count_two_nonzero",
    "zero_identity_value",
    "check_monotonicity",
    "check_polynomial_degree",
    "DegreeFitReport",
    "degenerate_simple_poles",
]


@dataclass(frozen=True, slots=True)
class CountBreakdown:
    """Total count plus the signed contribution of each part count s."""

    total: int
    per_s: tuple[tuple[int, Fraction, int], ...]  # (s, term value, #partitions)
    max_parts: int


def _check_match(profile: OrderProfile, structure: VanishingStructure):
    if profile.n != structure.n:
        raise ValueError(
            f"profile has {profile.n} poles but structure has {structure.n}"
        )


def _weighted_sums(profile: OrderProfile, plan) -> list[int]:
    """Entry s: the inner sum over the partitions into s zero-sum parts.
    Each part's weight reads the pole orders at its cached pole indices."""
    b = profile.b
    weight = {}
    for part in plan.parts:
        poles = pole_indices(part)
        weight[part] = falling_f(sum(map(b.__getitem__, poles)) - 1, len(poles) + 1)
    return sums_by_part_count(plan.moves, weight)


def _formula_terms(a: int, counts, inner) -> list[tuple[int, Fraction, int]]:
    """Per-s terms of the alternating sum, as exact Fractions."""
    terms = []
    for s, size in counts:
        if s == 1:
            value = Fraction(inner[s], a + 1)
        else:
            value = Fraction((-1) ** (s - 1) * (a + 1) ** (s - 2) * inner[s])
        terms.append((s, value, size))
    return terms


def _integer_total(a: int, inner) -> int:
    """The alternating sum in ints: Horner in -(a+1) gives

        (a+1) N = inner[1] + sum_{s>=2} (-1)^(s-1) (a+1)^(s-1) inner[s],

    and one divmod gives N.  Raises NonIntegralResult or NegativeResult if
    N fails to be a nonnegative integer; both would indicate an internal
    bug."""
    scaled = 0
    for value in reversed(inner[1:]):
        scaled = scaled * -(a + 1) + value
    total, remainder = divmod(scaled, a + 1)
    if remainder:
        raise NonIntegralResult(f"count {Fraction(scaled, a + 1)} is not an integer")
    if total < 0:
        raise NegativeResult(f"count {total} is negative")
    return total


def count_closed_form(profile: OrderProfile, structure: VanishingStructure) -> CountBreakdown:
    """Exact count of differentials of the given profile whose residue tuple
    has exactly this vanishing structure, with the exact term of each part
    count s.

    Raises NonIntegralResult or NegativeResult if the alternating sum fails
    to be a nonnegative integer; both would indicate an internal bug.
    """
    _check_match(profile, structure)
    plan = zero_sum_plan(structure)
    inner = _weighted_sums(profile, plan)
    terms = _formula_terms(profile.a, plan.counts, inner)
    return CountBreakdown(
        _integer_total(profile.a, inner), tuple(terms), max(s for s, _, _ in terms)
    )


def _count_value(profile: OrderProfile, structure: VanishingStructure) -> int:
    """The total, with no per-s Fractions and no memo: the degree grid looks
    no point up twice."""
    _check_match(profile, structure)
    return _integer_total(profile.a, _weighted_sums(profile, zero_sum_plan(structure)))


# The memoized total, for the recursion and the verification sweeps.
_count_total = lru_cache(maxsize=1 << 17)(_count_value)


def count_general(profile: OrderProfile) -> int:
    """Count for residues with no vanishing partial sums: falling_f(a, n)."""
    out = falling_f(profile.a, profile.n)
    if not isinstance(out, int):
        raise NonIntegralResult(f"count {out} is not an integer")
    return out


def count_one_vanishing(profile: OrderProfile, subset: Mask) -> int:
    """Count for residues with exactly one vanishing partial sum.

    The correction subtracts the product of the counts of the two pole
    groups cut out by the subset; it is symmetric under complement.
    """
    subset = canonical_mask(subset, profile.n)
    b_sub = profile.order_sum(subset)
    size = subset.bit_count()
    return count_general(profile) - falling_f(b_sub - 1, size + 1) * falling_f(
        profile.a - b_sub + 1, profile.n - size + 1
    )


def count_two_nonzero(profile: OrderProfile, i: int, j: int) -> int:
    """Count when every residue vanishes except an opposite pair at poles
    i and j: (n-2)! times the product of (b_k - 1) over the other poles.

    Zero whenever some other pole is simple, since a simple pole cannot
    carry a zero residue.
    """
    if i == j:
        raise ValueError("the two poles carrying residues must be distinct")
    pair = mask_from_indices((i, j), profile.n)
    out = 1
    for k in range(2, profile.n - 1):  # (n-2)!
        out *= k
    for idx in range(1, profile.n + 1):
        if not (pair >> (idx - 1)) & 1:
            out *= profile.b[idx - 1] - 1
    return out


def zero_identity_value(profile: OrderProfile) -> Fraction:
    """Value of the alternating sum over all set partitions of the poles.

    This is the formula evaluated on the identically-zero structure; it is
    expected to vanish identically (the zero residue tuple admits no
    differential) and the cancellation is a nontrivial identity worth
    checking, so the raw rational value is returned unasserted.
    """
    plan = zero_sum_plan(identically_zero_structure(profile.n))
    terms = _formula_terms(profile.a, plan.counts, _weighted_sums(profile, plan))
    return sum(value for _, value, _ in terms)


def degenerate_simple_poles(profile: OrderProfile, structure: VanishingStructure) -> tuple[int, ...]:
    """Poles forced to carry a zero residue despite being simple.

    Such configurations admit no differential at all; the closed form
    consistently evaluates to zero on them, but callers may want to warn.
    """
    _check_match(profile, structure)
    out = []
    for i in range(1, profile.n + 1):
        if profile.b[i - 1] == 1 and structure.contains(1 << (i - 1)):
            out.append(i)
    return tuple(out)


def check_monotonicity(
    profile: OrderProfile,
    structure: VanishingStructure,
    refinement: VanishingStructure,
) -> bool:
    """True iff the count strictly drops from a structure to a strictly
    finer one (more vanishing conditions, fewer differentials)."""
    _check_match(profile, structure)
    if not is_refinement(structure, refinement) or structure.closure == refinement.closure:
        raise ValueError("second structure must strictly refine the first")
    return (
        count_closed_form(profile, structure).total
        > count_closed_form(profile, refinement).total
    )


@dataclass(frozen=True, slots=True)
class DegreeFitReport:
    """Outcome of the exact degree check of the count in b_1..b_n.

    monomials counts the coefficients of degree <= n - 2 and points_verified
    the rest of the grid's coefficients, each checked to be zero."""

    n: int
    b_range: int
    monomials: int
    points_verified: int
    total_degree: int
    top_component_nonzero: bool
    max_variable_degree: int


def _newton_coefficients(values: list[int], size: int, n: int) -> list[int]:
    """Forward differences at the origin of a table on {0..size-1}^n, listed
    in product order: entry alpha is the coefficient of prod C(x_i, alpha_i)
    in the table's Newton interpolant, in the same order.

    Each pass differences along the slowest axis, block by block, and then
    moves that axis to the fastest place; n passes restore the order."""
    table = values
    for _ in range(n):
        step = len(table) // size
        blocks = [table[i * step:(i + 1) * step] for i in range(size)]
        for k in range(1, size):
            blocks[k:] = [list(map(sub, hi, lo)) for lo, hi in zip(blocks[k - 1:], blocks[k:])]
        table = [x for column in zip(*blocks) for x in column]
    return table


def check_polynomial_degree(structure: VanishingStructure, b_range: int) -> DegreeFitReport:
    """Check that the count is a polynomial of total degree <= n - 2 in the
    pole orders on the grid [1, b_range]^n.

    Integer forward differences of the grid values, each counted once and
    kept out of the memo, give the exact Newton coefficients c_alpha of
    prod C(b_i - 1, alpha_i), alpha in {0..b_range-1}^n, and the grid
    values come from a polynomial of total degree <= n - 2 exactly when
    every c_alpha with |alpha| > n - 2 is zero; InterpolationMismatch is
    raised otherwise.  The binomial basis keeps the total degree, the top
    homogeneous component and the degree in each variable, so the report
    reads them off the nonzero alpha.  The coefficients checked to vanish
    are all but the C(2n - 2, n) of degree <= n - 2.
    """
    if structure.is_identically_zero():
        raise ValueError("the identically-zero structure has no nonzero count")
    n = structure.n
    degree = n - 2
    if b_range < n - 1:
        raise ValueError(f"b_range must be at least {n - 1} to pin the fit")
    values = [
        _count_value(OrderProfile.from_pole_orders(point), structure)
        for point in product(range(1, b_range + 1), repeat=n)
    ]
    coefficients = _newton_coefficients(values, b_range, n)
    nonzero = [
        alpha
        for alpha, c in zip(product(range(b_range), repeat=n), coefficients)
        if c
    ]
    for alpha in nonzero:
        if sum(alpha) > degree:
            raise InterpolationMismatch(
                f"the count has a nonzero Newton coefficient at exponents "
                f"{alpha}, of total degree {sum(alpha)} > {degree}"
            )
    monomials = comb(n + degree, n)
    return DegreeFitReport(
        n=n,
        b_range=b_range,
        monomials=monomials,
        points_verified=b_range**n - monomials,
        total_degree=max(map(sum, nonzero), default=0),
        top_component_nonzero=any(sum(alpha) == degree for alpha in nonzero),
        max_variable_degree=max(map(max, nonzero), default=0),
    )
