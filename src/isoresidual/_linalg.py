"""Small exact linear algebra helpers.

Subset-sum conditions are linear forms with 0/1 coefficients, so the span of
a family of index subsets (always taken together with the all-ones vector)
is tracked through its orthogonal complement: an integer row basis of the
kernel.  Adding a subset to the span intersects the kernel with the
subset's orthogonal hyperplane, which needs nothing but integer row
combinations.  Membership of a subset in the span is a handful of integer
dot products.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

Kernel = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def pole_indices(mask: int) -> tuple[int, ...]:
    """0-based indices of the set bits of a mask, lowest first, for reading
    a row at them; cached, and a mask has at most MAX_POLES bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_dot(row, mask: int) -> int:
    """Dot product of an integer row with the indicator vector of mask."""
    total = 0
    for i in pole_indices(mask):
        total += row[i]
    return total


def ones_kernel(width: int) -> Kernel:
    """Basis of the orthogonal complement of the all-ones vector: the
    sum-zero subspace, spanned by e_i - e_width."""
    rows = []
    for i in range(width - 1):
        row = [0] * width
        row[i] = 1
        row[width - 1] = -1
        rows.append(tuple(row))
    return tuple(rows)


def _normalize(row) -> tuple[int, ...]:
    g = 0
    for x in row:
        g = gcd(g, x)
    if g > 1:
        row = [x // g for x in row]
    lead = next((x for x in row if x), 0)
    if lead < 0:
        row = [-x for x in row]
    return tuple(row)


def kernel_reduce(kernel: Kernel, mask: int) -> Kernel:
    """Kernel of the span enlarged by the subset mask.

    If the mask already lies in the span the kernel is returned unchanged;
    otherwise one dimension is eliminated.
    """
    dots = [mask_dot(row, mask) for row in kernel]
    pivot = next((i for i, t in enumerate(dots) if t), None)
    if pivot is None:
        return kernel
    pivot_row = kernel[pivot]
    pivot_dot = dots[pivot]
    out = []
    for i, row in enumerate(kernel):
        if i == pivot:
            continue
        t = dots[i]
        if t == 0:
            out.append(row)
        else:
            out.append(
                _normalize([pivot_dot * x - t * y for x, y in zip(row, pivot_row)])
            )
    return tuple(out)


# Test-only: kept here while perfbench/tracing.py patches it by name.
def kernel_contains(kernel: Kernel, mask: int) -> bool:
    """True iff the subset's indicator lies in the span the kernel encodes."""
    return all(mask_dot(row, mask) == 0 for row in kernel)

