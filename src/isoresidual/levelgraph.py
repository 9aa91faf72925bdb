"""Boundary recursion over two-level degenerations, as a cross-check.

A two-level graph is a partition of the poles into top components
X_1..X_m (m >= 2); every marked pole sits on top, single poles forming
semistable bubbles, and the bottom component carries the zero plus one node
per top component.  Imposing the vanishing conditions of a structure one
generator at a time, the count drops by a boundary correction at each step:

    N(V_k) = N(V_{k-1}) - sum_{graphs} twist * N_bottom * prod N_top

The graphs are the rigid strata of the step, read off the zero-sum
partitions of V_k, and the counts on the right are recursive counts down to
falling_f(a, n).  The final value must agree with the closed form, with
which the recursion shares only the zero-sum partitions.

None of this depends on the pole orders, so each step (V_{k-1}, new subset)
is compiled once, in ``boundary_graphs``, into a block table.  Each distinct
block is listed once, as 0-based pole indices with its top, V_k on those
poles; each stratum as its block ids with its bottom, the zero-sum structure
of its node vector (the block sums of the step's pivot row of V_{k-1}'s
kernel), cached per primitive vector.  ``_program`` folds a generator
sequence over its steps, and a profile then runs one loop over the steps
that sums each block's orders once per step and looks up memoized
sub-counts; the same loop fills the trace when one is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from ._linalg import _normalize, kernel_reduce, mask_dot
from .counting import count_general
from .partitions import _qualifying_masks, walk_partitions, zero_sum_plan
from .profiles import (
    Mask,
    OrderProfile,
    VanishingStructure,
    canonical_mask,
    full_mask,
    indices_from_mask,
    induced_on,
    pole_indices,
    structure_from_generators,
    structure_kernel,
    trivial_structure,
)

__all__ = [
    "InducedStructures",
    "TwoLevelGraph",
    "twist",
    "boundary_graphs",
    "induced_structures",
    "count_recursive",
]


@dataclass(frozen=True, slots=True)
class TwoLevelGraph:
    """Partition of the poles into top components, ordered by smallest pole."""

    n: int
    blocks: tuple[Mask, ...]

    def __post_init__(self):
        union = 0
        for block in self.blocks:
            if union & block:
                raise ValueError("blocks must be disjoint")
            union |= block
        if union != full_mask(self.n):
            raise ValueError("blocks must cover all poles")
        if len(self.blocks) < 2:
            raise ValueError("need at least two top components")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b & -b):
            raise ValueError("blocks must be ordered by smallest pole")


def twist(graph: TwoLevelGraph, profile: OrderProfile) -> int:
    """Product over top components of (total pole order - 1), the number of
    horizontal prongs at each node; zero iff some component is one simple
    pole."""
    if profile.n != graph.n:
        raise ValueError("profile and graph disagree on the pole count")
    out = 1
    for block in graph.blocks:
        out *= profile.order_sum(block) - 1
    return out


@dataclass(frozen=True, slots=True)
class InducedStructures:
    """What a boundary stratum imposes on its pieces.

    tops holds one structure per component (None for single-pole bubbles,
    which carry no residue moduli); bottom is the vanishing structure of a
    generic point of the node residues, the previous structure restricted
    to the blocks; bottom_dim is the linear dimension of the node residue
    space.  A stratum is rigid, and contributes to the recursion, exactly
    when bottom_dim == 1 (node residues determined up to scale);
    bottom_dim == 0 means the nodes are forced to the zero tuple.
    """

    tops: tuple
    bottom: VanishingStructure
    bottom_dim: int


@lru_cache(maxsize=None)
def induced_structures(graph: TwoLevelGraph, previous: VanishingStructure) -> InducedStructures:
    """Vanishing structures inherited by the top components and the bottom.

    Top components inherit every subset condition that holds identically on
    the boundary stratum; that span includes the component sums themselves,
    which the Residue Theorem forces on each component.

    The node residues at the bottom range over the image of the admissible
    residue tuples under the per-component summation map.  A union of
    blocks vanishes at a generic point of the image exactly when it vanishes
    on all of it, that is on every admissible tuple; and each block outside
    the previous span cuts one row from the kernel, so the image's dimension
    is the number of rows the blocks cut.  ``induced_on`` reads off both.
    """
    if graph.n != previous.n:
        raise ValueError("graph and structure disagree on the pole count")
    base = structure_kernel(previous)
    top_kernel = base
    for block in graph.blocks[1:]:  # the first is the all-ones vector minus the rest
        top_kernel = kernel_reduce(top_kernel, block)
    # Single-pole components are bubbles and carry no residue moduli.
    tops = tuple(
        induced_on(graph.n, top_kernel, [1 << i for i in pole_indices(block)])
        if block.bit_count() > 1
        else None
        for block in graph.blocks
    )
    bottom = induced_on(graph.n, base, graph.blocks)
    return InducedStructures(tops, bottom, len(base) - len(top_kernel))


@lru_cache(maxsize=None)
def _bottom(node: tuple[int, ...]) -> VanishingStructure:
    """The zero-sum structure of a primitive node residue vector."""
    return induced_on(len(node), (node,), [1 << i for i in range(len(node))])


@lru_cache(maxsize=None)
def boundary_graphs(previous: VanishingStructure, new_subset: Mask) -> tuple[tuple, tuple]:
    """The rigid strata of imposing the new condition on the previous
    structure, compiled once per step (V_{k-1}, new subset) into a pair
    (blocks, strata).  blocks lists each distinct block once, as (0-based
    pole indices, the top V_k induces on them), the top None for a bubble;
    strata lists (block ids, bottom) in the listing order of
    ``enumerate_partitions``: by part count, sorted within a count.

    They are the zero-sum partitions of the enlarged structure into at
    least two parts that are not zero-sum partitions of the previous one,
    so those with a part that does not qualify for it: setting every block
    sum to zero then adds exactly one condition, the new one, so the node
    residues are pinned up to scale.

    The new subset must be independent of the previous structure.
    """
    n = previous.n
    new_subset = canonical_mask(new_subset, n)
    if new_subset in previous.closure:
        raise ValueError("the new condition must not already hold")
    current = structure_from_generators(n, previous.generators + (new_subset,))
    plan = zero_sum_plan(current)
    fresh = set(plan.parts) - _qualifying_masks(previous)  # never the whole pole set
    # The step's pivot row, which kernel_reduce eliminates: the rows before it
    # lie in V_k's kernel, so a rigid stratum's node vector is its block sums.
    pivot = next(row for row in structure_kernel(previous) if mask_dot(row, new_subset))
    # The block sums span V_k, so a block's top is V_k on its poles.
    kernel = structure_kernel(current)
    ids: dict[Mask, int] = {}
    blocks, dots, strata = [], [], []
    for partition in sorted(walk_partitions(plan, n, fresh), key=len):
        for block in partition:
            if block not in ids:
                ids[block] = len(blocks)
                poles = pole_indices(block)
                blocks.append((poles, induced_on(n, kernel, [1 << i for i in poles]) if len(poles) > 1 else None))
                dots.append(mask_dot(pivot, block))
        stratum = tuple(map(ids.__getitem__, partition))
        strata.append((stratum, _bottom(_normalize(tuple(dots[i] for i in stratum)))))
    return tuple(blocks), tuple(strata)


@lru_cache(maxsize=None)
def _program(n: int, generators: tuple[Mask, ...]) -> tuple[VanishingStructure, tuple[tuple[tuple, tuple], ...]]:
    """The recursion for one generator sequence, shared by every order
    profile: the structure the sequence reaches, and the block table of
    each of its steps, each compiled once per step (V_{k-1}, new subset) by
    ``boundary_graphs``.  A dependent generator raises ValueError."""
    if not generators:
        return trivial_structure(n), ()
    previous, levels = _program(n, generators[:-1])
    levels += (boundary_graphs(previous, generators[-1]),)
    return structure_from_generators(n, previous.generators + generators[-1:]), levels


@lru_cache(maxsize=1 << 17)
def _recursive_total(orders: tuple[int, ...], structure: VanishingStructure) -> int:
    """Memoized recursive count, for the sub-counts of the recursion; keyed
    by the pole orders, so a memo hit builds no profile."""
    return count_recursive(OrderProfile.from_pole_orders(orders), structure)


def count_recursive(
    profile: OrderProfile,
    structure: VanishingStructure,
    *,
    generator_order=None,
    trace: list | None = None,
) -> int:
    """Recount by peeling off the structure's generators one at a time and
    subtracting the boundary corrections; must equal the closed form.

    It never consults the closed form: it starts from the general-residue
    law falling_f(a, n) of Gendron-Tahar, and every bottom and top sub-count
    is a recursive count on fewer poles or of smaller rank.  Each single-pole
    component contributes (order - 1) * 1/(order - 1); the cancelled factor 1
    is used directly so that order-1 poles never reach the zero denominator,
    and with it every term is a plain integer.

    generator_order overrides the canonical generating sequence (it must
    generate the same structure); trace, if given, collects a per-level
    term table of JSON-ready dicts, one per rigid stratum.
    """
    if profile.n != structure.n:
        raise ValueError("profile and structure disagree on the pole count")
    n = profile.n
    generators = structure.generators
    if generator_order is not None:
        generators = tuple(canonical_mask(g, n) for g in generator_order)
        if structure_from_generators(n, generators).closure != structure.closure:
            raise ValueError("generator_order does not generate the structure")
        if len(generators) != structure.rank:
            raise ValueError("a condition of generator_order already holds")
    if structure.is_identically_zero():
        # The zero residue tuple admits no differential.
        return 0
    _, levels = _program(n, generators)

    # Per profile, only indexing, sums and memoized sub-counts.
    get = profile.b.__getitem__
    total = count_general(profile)
    for level, (generator, (blocks, strata)) in enumerate(zip(generators, levels), start=1):
        sums = [sum(map(get, poles)) for poles, _ in blocks]
        factors = [None] * len(blocks)  # (b_J - 1, N_top) per block, on its first use
        terms = []
        correction = 0
        for stratum, bottom in strata:
            bottom_count = term = _recursive_total(tuple(map(sums.__getitem__, stratum)), bottom)
            top_factors = []
            for i in stratum:
                if term == 0:
                    break
                poles, top = blocks[i]
                if top is None:
                    # Semistable bubble: (order-1) * falling_f(order-2, 1) == 1.
                    continue
                factor = factors[i]
                if factor is None:
                    factor = factors[i] = (sums[i] - 1, _recursive_total(tuple(map(get, poles)), top))
                term *= factor[0] * factor[1]
                top_factors.append(factor)
            correction += term
            if trace is not None:
                terms.append({
                    "blocks": [[i + 1 for i in blocks[b][0]] for b in stratum],
                    "twist": str(prod(sums[b] - 1 for b in stratum)),
                    "bottom_dim": 1,
                    "factors": [str(bottom_count)] + [f"{t}*{c}" for t, c in top_factors],
                    "term": str(term),
                })
        total -= correction
        if trace is not None:
            trace.append({
                "level": level,
                "generator": list(indices_from_mask(generator)),
                "terms": terms,
                "running_total": str(total),
            })
    return total
