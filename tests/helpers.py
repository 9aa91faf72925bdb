"""Brute-force references the tests check the package against.  No package
path calls them: the package sums and lists zero-sum partitions through its
plan, and finds vanishing subsets from integer rows."""

from fractions import Fraction

from isoresidual.exactarith import GaussianRational
from isoresidual.profiles import Mask, ResidueTuple, indices_from_mask


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
