"""Exact reference totals for the batch workloads, independent of the program.

The closed form sums, over the partitions of the pole set into zero-sum
parts, ``(-1)^(s-1) (a+1)^(s-2)`` times the product of the part weights
``falling_f(b_J - 1, |J| + 1)``.  Since ``(-1)^(s-1) (a+1)^(s-2) =
-(a+1)^-2 * (-(a+1))^s``, the sum factors through the part that holds the
lowest remaining pole, and a memoized recursion over the remaining mask gives
it without listing any partition.  The zero-sum parts come from exact integer
subset sums, so nothing here shares code with the ``isoresidual`` package.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def null_space(n: int, subsets) -> list[list[int]]:
    """Integer basis of the residue vectors whose sum over every given subset
    mask, and over all poles, is zero."""
    rows = [[Fraction((m >> i) & 1) for i in range(n)] for m in subsets]
    rows.append([Fraction(1)] * n)
    pivots = []
    rank = 0
    for col in range(n):
        pick = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pick is None:
            continue
        rows[rank], rows[pick] = rows[pick], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][free]
        scale = lcm(*(x.denominator for x in vec))
        basis.append([int(x * scale) for x in vec])
    return basis


def zero_sum_masks(n: int, vectors) -> list[int]:
    """Nonempty masks whose subset sum vanishes for every integer vector."""
    size = 1 << n
    vanishing = bytearray(b"\x01") * size
    for vec in vectors:
        sums = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            total = sums[mask ^ low] + vec[low.bit_length() - 1]
            sums[mask] = total
            if total:
                vanishing[mask] = 0
    return [m for m in range(1, size) if vanishing[m]]


def closed_form_total(b, parts) -> int:
    """Closed-form count for pole orders b whose zero-sum subsets are parts."""
    n = len(b)
    full = (1 << n) - 1
    scale = -(sum(b) - 1)  # -(a + 1)
    by_low: dict[int, list[tuple[int, int]]] = {}
    for part in set(parts) | {full}:
        order = sum(b[i] for i in range(n) if part >> i & 1)
        weight = 1
        for j in range(part.bit_count() - 1):
            weight *= order - 1 - j
        by_low.setdefault(part & -part, []).append((part, scale * weight))
    memo = {0: 1}

    def sum_over(mask: int) -> int:
        if mask not in memo:
            memo[mask] = sum(
                w * sum_over(mask ^ part)
                for part, w in by_low.get(mask & -mask, ())
                if part & mask == part
            )
        return memo[mask]

    total = Fraction(-sum_over(full), scale * scale)
    if total.denominator != 1 or total < 0:
        raise ArithmeticError(f"reference total {total} is not a count")
    return int(total)


def batch_totals(requests) -> list[str]:
    """Reference total of every request of a batch file, as decimal strings."""
    out = []
    for request in requests:
        b = request["b"]
        n = len(b)
        if "rho" in request:
            values = [_gaussian(text) for text in request["rho"]]
            scale = lcm(*(x.denominator for v in values for x in v))
            vectors = [[int(v[k] * scale) for v in values] for k in (0, 1)]
        else:
            vectors = null_space(n, _parse_vanishings(request["vanishings"]))
        out.append(str(closed_form_total(b, zero_sum_masks(n, vectors))))
    return out


def _parse_vanishings(text: str) -> list[int]:
    masks = []
    for chunk in filter(None, text.split(";")):
        masks.append(sum(1 << (int(i) - 1) for i in chunk.split(",")))
    return masks


def _gaussian(text: str) -> tuple[Fraction, Fraction]:
    """Read the ``p/q``, ``a+bi`` residue format written by the generators."""
    if not text.endswith("i"):
        return Fraction(text), Fraction(0)
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    real, imag = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if imag in ("", "+", "-"):
        imag += "1"
    return Fraction(real), Fraction(imag)
