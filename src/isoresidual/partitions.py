"""Partitions of the pole set into zero-sum parts.

A part qualifies when it lies in the ambient vanishing structure's closure
(in either representative) or is the whole pole set; membership is decided
by the structure alone, so abstract structures with no realized residues
work the same way.

Every zero-sum partition is reached by removing, over and over, the
qualifying part that holds the lowest remaining pole.  ``zero_sum_plan``
works out once per structure which remaining sets this reaches and the moves
out of each, so a sum over all partitions is a dynamic programme over those
sets (the set-partition recursion of Bjorklund, Husfeldt and Koivisto, *Set
partitioning via inclusion-exclusion*, SIAM J. Comput. 2009), and only a
listing visits each partition.  A move is the part it removes, leading to
``remaining ^ part``, and a set's moves are one 16-bit ``array('H')``.  They
cost the fewer of its lowest pole's qualifying masks and its 2^(|R|-1)
submasks that hold that pole, so a sparse plan grows with its closure, not 2^n.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

from .profiles import Mask, VanishingStructure, full_mask

ZeroSumPartition = tuple[Mask, ...]

# Plans and listings kept, one per structure: well above the few dozen a
# batch over a shared pool of structures meets, and a bound on a long batch
# over distinct dense ones, whose listing has a Bell number of entries.
_CACHED_STRUCTURES = 128


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


def _qualifying_masks(structure: VanishingStructure) -> frozenset:
    full = full_mask(structure.n)
    closure = structure.closure
    return closure | {full} | {mask ^ full for mask in closure}


@dataclass(frozen=True, slots=True)
class ZeroSumPlan:
    """The nonempty pole sets left over on the way to a zero-sum partition,
    children first (a child is a proper subset, so a smaller mask).  Each
    maps to its moves as one ``array('H')``: every qualifying part of it that
    holds its lowest pole, in increasing order, each leading to the set
    ``remaining ^ part``.  Building it costs, per reachable set, the shorter
    of two candidate lists: the qualifying masks with the same lowest pole,
    or the set's submasks that hold that pole."""

    moves: dict[Mask, array]
    parts: tuple[Mask, ...]  # every part some move removes
    counts: tuple[tuple[int, int], ...]  # (s, partitions into s parts), s ascending


def sums_by_part_count(moves, weight) -> list[int]:
    """Entry s: the sum, over the zero-sum partitions of the whole pole set
    into s parts, of the product of ``weight[part]`` over their parts."""
    sums = {0: [1]}
    for remaining, parts in moves.items():
        acc = [0] * (remaining.bit_count() + 1)
        for part in parts:
            w = weight[part]
            for s, value in enumerate(sums[remaining ^ part], 1):
                acc[s] += w * value
        sums[remaining] = acc
    return acc  # the whole pole set comes last


@lru_cache(maxsize=_CACHED_STRUCTURES)
def zero_sum_plan(structure: VanishingStructure) -> ZeroSumPlan:
    """The structure's plan.  A part of a remaining set that holds its lowest
    pole p has lowest pole p too, so a set's moves are the qualifying masks
    with lowest pole p that are its subsets, or the walk over its submasks
    that hold p, whichever list is shorter: a sparse structure costs its
    qualifying masks per reachable set, a dense one no more than the walk.
    Both lists run in increasing order of the part."""
    qualifying = _qualifying_masks(structure)
    by_pivot: dict[Mask, list[Mask]] = {}
    for mask in sorted(qualifying):
        by_pivot.setdefault(mask & -mask, []).append(mask)
    found: dict[Mask, array] = {}
    stack = [full_mask(structure.n)]
    while stack:
        remaining = stack.pop()
        if not remaining or remaining in found:
            continue
        pivot = remaining & -remaining
        group = by_pivot[pivot]
        if len(group) < 1 << (remaining.bit_count() - 1):
            out = [part for part in group if part | remaining == remaining]
        else:
            # The walk, inline: listing every submask first and filtering
            # that list was about 10% slower on dense structures.
            out = []
            rest = remaining ^ pivot
            sub = 0
            while True:
                part = pivot | sub
                if part in qualifying:
                    out.append(part)
                sub = (sub - rest) & rest  # the next submask of rest up
                if not sub:
                    break
        found[remaining] = array("H", out)
        stack.extend(remaining ^ part for part in out)
    moves = {remaining: found[remaining] for remaining in sorted(found)}
    parts = tuple(sorted(set().union(*moves.values())))
    by_s = sums_by_part_count(moves, dict.fromkeys(parts, 1))
    return ZeroSumPlan(moves, parts, tuple((s, c) for s, c in enumerate(by_s) if c))


@lru_cache(maxsize=_CACHED_STRUCTURES)
def _partitions_by_size(structure: VanishingStructure):
    # Parts boxed once per move, not once per partition, so partitions share
    # them; moves in increasing order of the part list the partitions sorted.
    moves = {remaining: tuple(parts) for remaining, parts in zero_sum_plan(structure).moves.items()}

    def expand(remaining: Mask) -> list[ZeroSumPartition]:
        if not remaining:
            return [()]
        return [
            (part,) + tail for part in moves[remaining] for tail in expand(remaining ^ part)
        ]

    by_size: dict[int, list[ZeroSumPartition]] = {}
    for partition in expand(full_mask(structure.n)):
        by_size.setdefault(len(partition), []).append(partition)
    return tuple((size, tuple(parts)) for size, parts in sorted(by_size.items()))


def enumerate_partitions(structure: VanishingStructure) -> dict[int, list[ZeroSumPartition]]:
    """All partitions of the pole set into zero-sum parts, grouped by part
    count s.  The single-part partition is always present (total sum), so
    the maximum s is ``max(result)``.  Parts are ordered by smallest
    element and the partitions of each size sorted, for diffable output."""
    return {size: list(parts) for size, parts in _partitions_by_size(structure)}
