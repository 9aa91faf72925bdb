"""Partitions of the pole set into zero-sum parts.

A part qualifies when it lies in the ambient vanishing structure's closure
(in either representative) or is the whole pole set; membership is decided
by the structure alone, so abstract structures with no realized residues
work the same way.
"""

from __future__ import annotations

from functools import lru_cache

from .profiles import Mask, VanishingStructure, full_mask

ZeroSumPartition = tuple[Mask, ...]


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


def _expand(remaining: Mask, qualifying) -> list[ZeroSumPartition]:
    # The part containing the smallest uncovered pole is chosen among the
    # qualifying submasks, so each partition is produced exactly once.
    if remaining == 0:
        return [()]
    out = []
    pivot = remaining & -remaining
    rest = remaining ^ pivot
    sub = rest
    while True:
        part = pivot | sub
        if part in qualifying:
            for tail in _expand(remaining ^ part, qualifying):
                out.append((part,) + tail)
        if sub == 0:
            break
        sub = (sub - 1) & rest
    return out


@lru_cache(maxsize=None)
def _partitions_by_size(structure: VanishingStructure):
    qualifying = _qualifying_masks(structure)
    by_size: dict[int, list[ZeroSumPartition]] = {}
    for partition in _expand(full_mask(structure.n), qualifying):
        by_size.setdefault(len(partition), []).append(partition)
    return tuple(
        (size, tuple(sorted(parts))) for size, parts in sorted(by_size.items())
    )


def enumerate_partitions(structure: VanishingStructure) -> dict[int, list[ZeroSumPartition]]:
    """All partitions of the pole set into zero-sum parts, grouped by part
    count s.  The single-part partition is always present (total sum), so
    the maximum s is ``max(result)``.  Parts are ordered by smallest
    element and the partitions of each size sorted, for diffable output."""
    return {size: list(parts) for size, parts in _partitions_by_size(structure)}
