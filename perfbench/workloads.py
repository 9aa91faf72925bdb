"""The benchmark's workloads and the seeded generators of their inputs.

A batch file is a fixed mix of strata, so its cost hardly depends on the
seed: in batch-wide the seed picks pole orders, the poles of each zero-sum
group, the residues' numerators and the line order, in batch-dense only a
relabeling of each pooled structure.  Only the generated file
reaches the program.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from reference import null_space, zero_sum_masks

# Structures of batch-dense, independent of the seed: (n, generator masks).
# Each entry is drawn once from a fixed seed at ranks n-4..n-2, and the two
# densest shapes are added; lines that share an entry share a structure,
# which is what the partition cache keys on.
DENSE_RANKS = (-4, -3, -2)
DENSE_PER_RANK = 2
# Lines per pool entry, by pole count: the heavy n = 9, 10 structures come
# up a few times, so no single line dominates.  The counts put the median
# line among the rank n-3 and n-2 lines at n = 7, 8 (2.3 to 3 ms each on a
# 2 GHz Xeon), not on a jump between cost levels.
DENSE_LINES = {6: 3, 7: 5, 8: 7, 9: 2, 10: 1}
# (n, zero poles imposed, lines): n - 2 zero poles is all-but-two-zero (at
# n = 9, 10; the eight n = 9 lines, 40 to 70 ms each, put the tail
# percentile, p91, among lines of like cost); n - 1 forces the last pole to zero too, identically zero (at
# n = 9 only: one such line at n = 10 lists Bell(10) partitions, about 2 s
# and 5 MB of report, more than the rest of the file together).
DENSE_SPECIAL = ((9, 7, 8), (10, 8, 1), (9, 8, 1))

# batch-wide: lines per pole count.  The cost of a line doubles with each
# pole (2^n subset sums), so the counts halve from n = 11 on.  The median
# line falls inside the n = 11 stratum and the tail (p83) inside n = 12,
# not on a boundary between strata.
WIDE_LINES = {10: 20, 11: 24, 12: 8, 13: 4, 14: 2, 15: 1, 16: 1}

# A sweep's "checked" is the check count it printed at the commit that
# defined the benchmark; a run that checks fewer or more fails the difference.
WORKLOADS = {
    "batch-dense": {"kind": "batch"},
    "batch-wide": {"kind": "batch"},
    "verify-recursion": {
        "kind": "verify",
        "argv": ["verify", "recursion", "--n-max", "5", "--b-max", "3", "--json"],
        "checked": 3601,
    },
    "verify-oracle": {
        "kind": "verify",
        "argv": ["verify", "oracle", "--sum-b-max", "7", "--seeds", "3", "--json"],
        "checked": 236,
    },
}


def _rank(n: int, masks) -> int:
    return n - 1 - len(null_space(n, masks))


def dense_pool() -> list[tuple[int, tuple[int, ...]]]:
    rng = random.Random("batch-dense pool")
    pool = []
    for n in sorted(DENSE_LINES):
        for offset in DENSE_RANKS:
            for _ in range(DENSE_PER_RANK):
                gens: list[int] = []
                while _rank(n, gens) < n + offset:
                    size = rng.choice((1, 1, 2, 2, 3))
                    mask = sum(1 << i for i in rng.sample(range(n), size))
                    if _rank(n, gens + [mask]) > _rank(n, gens):
                        gens.append(mask)
                pool.append((n, tuple(gens)))
    return pool


def _relabel(mask: int, perm) -> int:
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def _vanishings(masks) -> str:
    return ";".join(
        ",".join(str(i + 1) for i in range(16) if m >> i & 1) for m in masks
    )


def batch_dense(seed: int, lines=None, special=DENSE_SPECIAL) -> list[dict]:
    """vanishings requests on a shared pool of dense structures.  The pole
    orders and the order of the lines are fixed too and the seed relabels
    the poles of each entry, so every seed costs the same time and memory."""
    lines = DENSE_LINES if lines is None else lines
    rng = random.Random(f"batch-dense {seed}")
    orders = random.Random("batch-dense orders")
    entries = [(n, gens, lines[n]) for n, gens in dense_pool() if n in lines]
    for n, zeros, count in special:
        entries.append((n, tuple(1 << i for i in range(zeros)), count))
    out = []
    for n, gens, count in entries:
        # A pole forced to zero residue gets order >= 2; at a simple pole the
        # count would be a plain 0, a weak check of the sum.
        zeros = {m for m in zero_sum_masks(n, null_space(n, gens)) if m.bit_count() == 1}
        perm = rng.sample(range(n), n)
        text = _vanishings([_relabel(m, perm) for m in gens])
        for _ in range(count):
            b = [0] * n
            for i in range(n):
                b[perm[i]] = orders.randint(2 if 1 << i in zeros else 1, 4)
            out.append({"b": b, "vanishings": text})
    # Where the heaviest lines fall sets the peak RSS (the partition cache
    # has grown by then), so the order does not follow the seed.
    random.Random("batch-dense order").shuffle(out)
    return out


def gaussian_text(re: Fraction, im: Fraction) -> str:
    """The README's residue format: ``p/q``, ``a+bi``, ``-1/3i``, ``i``."""
    if im == 0:
        return str(re)
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}i"
    if re == 0:
        return imag if im > 0 else f"-{imag}"
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def _wide_residues(rng: random.Random, shape: random.Random, n: int) -> list[str]:
    """Random groups of 2 to 5 poles, each summing to zero.  ``shape`` picks
    the group sizes and the denominators, which set the cost of the exact
    subset sums; ``rng`` picks the poles of each group and the numerators."""
    order = rng.sample(range(n), n)
    values: list = [None] * n
    start = 0
    while start < n:
        size = shape.randint(2, 4)
        if n - start - size < 2:
            size = n - start
        group = order[start:start + size]
        parts = [
            [Fraction(rng.randint(-40, 40), shape.randint(1, 9)) for _ in group[1:]]
            for _ in range(2)
        ]
        for part in parts:
            part.append(-sum(part))
        for pole, x, y in zip(group, *parts):
            values[pole] = gaussian_text(x, y)
        start += size
    return values


def batch_wide(seed: int, lines=None) -> list[dict]:
    """rho requests with distinct low-rank Gaussian-rational residues."""
    lines = WIDE_LINES if lines is None else lines
    rng = random.Random(f"batch-wide {seed}")
    out = []
    for n, count in sorted(lines.items()):
        for _ in range(count):
            # The lines of a stratum share one shape, so they cost alike and
            # the median and tail lines do not move with the seed.
            shape = random.Random(f"batch-wide shape {n}")
            out.append({
                "b": [rng.randint(1, 4) for _ in range(n)],
                "rho": _wide_residues(rng, shape, n),
            })
    rng.shuffle(out)
    return out


GENERATORS = {"batch-dense": batch_dense, "batch-wide": batch_wide}


def batch_bytes(requests) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in requests).encode()
