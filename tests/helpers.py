"""Brute-force references and checks the tests hold the package to.  No
package path calls them: the package sums and lists zero-sum partitions
through its plan, and finds vanishing subsets from integer rows."""

from fractions import Fraction

from isoresidual.counting import count_closed_form
from isoresidual.exactarith import GaussianRational
from isoresidual.profiles import (
    Mask,
    OrderProfile,
    ResidueTuple,
    VanishingStructure,
    indices_from_mask,
)


def iter_set_partitions(mask: Mask):
    """Yield every partition of the bits of mask into nonempty blocks, each
    partition given with its blocks ordered by smallest element."""
    if mask == 0:
        yield ()
        return
    pivot = mask & -mask
    rest = mask ^ pivot
    sub = rest
    while True:
        block = pivot | sub
        for tail in iter_set_partitions(mask ^ block):
            yield (block,) + tail
        if sub == 0:
            break
        sub = (sub - 1) & rest


def subset_sum(rho: ResidueTuple, mask: Mask) -> GaussianRational:
    """The sum of rho's residues at the poles of mask."""
    total = GaussianRational(Fraction(0))
    for i in indices_from_mask(mask):
        total = total + rho.values[i - 1]
    return total


def is_refinement(structure: VanishingStructure, other: VanishingStructure) -> bool:
    """True iff every vanishing of the first also holds in the second."""
    if structure.n != other.n:
        raise ValueError("structures must have the same pole count")
    return structure.closure <= other.closure


def check_monotonicity(
    profile: OrderProfile,
    structure: VanishingStructure,
    refinement: VanishingStructure,
) -> bool:
    """True iff the count strictly drops from a structure to a strictly
    finer one (more vanishing conditions, fewer differentials)."""
    if not is_refinement(structure, refinement) or structure.closure == refinement.closure:
        raise ValueError("second structure must strictly refine the first")
    return (
        count_closed_form(profile, structure).total
        > count_closed_form(profile, refinement).total
    )
