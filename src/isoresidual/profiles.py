"""Order profiles, residue tuples and partial-sum vanishing structures.

Pole labels are 1-based; a subset of poles is stored as an int bitmask with
bit i-1 standing for pole i.  A subset and its complement impose the same
residue condition (the total sum already vanishes), so the canonical
representative of the pair is the one containing pole 1.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from ._linalg import Kernel, kernel_reduce, mask_dot, ones_kernel, pole_indices
from .errors import RealizationExhausted
from .exactarith import GaussianRational, scaled_to_gaussian_integers

MAX_POLES = 16

Mask = int


def full_mask(n: int) -> Mask:
    return (1 << n) - 1


def mask_from_indices(indices, n: int) -> Mask:
    mask = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"pole index {i} out of range 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def indices_from_mask(mask: Mask) -> tuple[int, ...]:
    """1-based pole labels of a mask, lowest first."""
    # From a list, not a generator: tuple() then allocates the exact size,
    # where resizing left a dense batch holding 0.6 MB more at its end.
    return tuple([i + 1 for i in pole_indices(mask)])


def canonical_mask(mask: Mask, n: int) -> Mask:
    """Representative of {subset, complement} containing pole 1."""
    full = full_mask(n)
    if not 0 < mask < full:
        raise ValueError("subset must be nonempty and proper")
    return mask if mask & 1 else mask ^ full


def _mask_sort_key(mask: Mask):
    return (mask.bit_count(), mask)


@dataclass(frozen=True, slots=True)
class OrderProfile:
    """Zero order a and positive pole orders b_1..b_n, with a = sum(b) - 2."""

    a: int
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(self.b))
        if len(self.b) < 2:
            raise ValueError("need at least two poles")
        # type() and not isinstance(): a bool is an int but not an order.
        if any(type(x) is not int or x < 1 for x in self.b):
            raise ValueError("pole orders must be positive integers")
        if type(self.a) is not int:
            raise ValueError("zero order must be an integer")
        if self.a != sum(self.b) - 2:
            raise ValueError(
                f"zero order {self.a} does not match pole orders (expected "
                f"{sum(self.b) - 2})"
            )

    @classmethod
    def from_pole_orders(cls, b) -> "OrderProfile":
        b = tuple(b)
        return cls(sum(b) - 2, b)

    @property
    def n(self) -> int:
        return len(self.b)

    def order_sum(self, mask: Mask) -> int:
        """Total pole order over a subset mask."""
        return mask_dot(self.b, mask)


@dataclass(frozen=True, slots=True)
class ResidueTuple:
    """Exact Gaussian-rational residues, one per pole, summing to zero.

    rows holds the values scaled once to Gaussian integers, as a real and
    an imaginary row: a two-row kernel whose zero-sum subsets are the
    residues' vanishing subsets.  It is derived, so equality and hashing
    read the values alone."""

    values: tuple[GaussianRational, ...]
    rows: Kernel = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 2:
            raise ValueError("need at least two residues")
        if any(not isinstance(v, GaussianRational) for v in self.values):
            raise ValueError("residues must be GaussianRational values")
        rows = tuple(zip(*scaled_to_gaussian_integers(self.values)))
        object.__setattr__(self, "rows", rows)
        if any(map(sum, rows)):
            total = sum(self.values, GaussianRational(Fraction(0)))
            try:
                got = f"got {total}"
            except ValueError:  # str() refuses a number past the digit limit
                got = f"a number has more than {sys.get_int_max_str_digits()} digits"
            raise ValueError(f"residues must sum to zero ({got})")

    @property
    def n(self) -> int:
        return len(self.values)

    def is_zero(self) -> bool:
        return not any(self.values)

    def subset_sum(self, mask: Mask) -> GaussianRational:
        total = GaussianRational(Fraction(0))
        for i in indices_from_mask(mask):
            total = total + self.values[i - 1]
        return total


@dataclass(frozen=True, slots=True)
class VanishingStructure:
    """The lattice of vanishing partial sums a residue tuple satisfies.

    closure holds every canonical nonempty proper subset whose indicator lies
    in the rational span of the generator indicators together with the
    all-ones vector; generators is the deterministic greedy independent
    subset of the closure (ordered by cardinality, then by bitmask value);
    rank == len(generators) <= n - 1.  The closure fixes the generators and
    the rank, so a structure compares and hashes on (n, closure) alone, and
    the structures built from one generator set are one shared frozen object.
    """

    n: int
    generators: tuple[Mask, ...] = field(compare=False)
    closure: frozenset[Mask]
    rank: int = field(compare=False)

    def is_trivial(self) -> bool:
        return self.rank == 0

    def is_identically_zero(self) -> bool:
        return self.rank == self.n - 1

    def contains(self, mask: Mask) -> bool:
        return canonical_mask(mask, self.n) in self.closure

    def sorted_closure(self) -> tuple[Mask, ...]:
        return tuple(sorted(self.closure, key=_mask_sort_key))


def _check_n(n: int):
    if not 2 <= n <= MAX_POLES:
        raise ValueError(f"pole count must be between 2 and {MAX_POLES}, got {n}")


def _canonical_masks(n: int):
    """All canonical nonempty proper subsets: the ones containing pole 1."""
    full = full_mask(n)
    return (m for m in range(1, full, 2))


def _packed_rows(n: int, kernel: Kernel) -> list[int]:
    """One int per pole: the kernel rows' entries at that pole as the digits
    of a balanced mixed-radix number, each row's radix beyond twice its
    absolute sum.  A subset's dot product with a row is then one digit of
    the packed subset sum, so that sum is zero exactly when every row's dot
    product is: the subset lies in the span the kernel encodes."""
    packed = [0] * n
    for row in kernel:
        radix = 2 * sum(map(abs, row)) + 1
        packed = [p * radix + x for p, x in zip(packed, row)]
    return packed


def _greedy_generators(n: int, closure, rank: int) -> tuple[Mask, ...]:
    """The closure's greedy independent subfamily in canonical order (by
    size, then mask), stopped once it holds ``rank`` masks.

    The span of the masks kept, with the all-ones vector, is held as its
    kernel rows.  A mask is new to the span exactly when ``kernel_reduce``,
    from one dot product per row, returns a new kernel; only the ``rank``
    masks kept build one."""
    kernel = ones_kernel(n)
    gens: list[Mask] = []
    for mask in sorted(closure, key=_mask_sort_key):
        reduced = kernel_reduce(kernel, mask)
        if reduced is kernel:
            continue
        gens.append(mask)
        if len(gens) == rank:
            break
        kernel = reduced
    return tuple(gens)


@lru_cache(maxsize=None)
def _span_closure(n: int, gens: frozenset) -> tuple[VanishingStructure, Kernel]:
    """The structure a generator set spans, and its kernel.  The closure is
    the packed kernel rows' zero-sum subsets, met in the middle."""
    kernel = ones_kernel(n)
    for mask in gens:
        kernel = kernel_reduce(kernel, mask)
    closure = _zero_sum_closure(_packed_rows(n, kernel))
    rank = n - 1 - len(kernel)
    return VanishingStructure(n, _greedy_generators(n, closure, rank), closure, rank), kernel


def structure_from_generators(n: int, generators) -> VanishingStructure:
    """Span closure of the given subsets (in either representative).

    Dependent generators are dropped; the stored generator list is the
    canonical greedy one, so structures with equal closures compare equal;
    every call on one generator set returns the same cached object.
    """
    _check_n(n)
    return _span_closure(n, frozenset(canonical_mask(m, n) for m in generators))[0]


def induced_on(n: int, kernel: Kernel, pieces) -> VanishingStructure:
    """Structure the kernel's span induces on disjoint pole subsets, on
    len(pieces) local labels (bit i picks pieces[i]): the zero-sum subsets
    of the pieces' packed sums.  Packing is linear and a row's radix bounds
    every subset's dot product, so a union of pieces sums to zero exactly
    when it lies in the span."""
    packed = _packed_rows(n, kernel)
    sums = [mask_dot(packed, piece) for piece in pieces]
    return structure_from_generators(len(sums), _zero_sum_closure(sums))


def structure_kernel(structure: VanishingStructure) -> Kernel:
    """Integer basis of the residue tuples satisfying the structure (the
    orthogonal complement of the generators plus the total sum)."""
    return _span_closure(structure.n, frozenset(structure.generators))[1]


def trivial_structure(n: int) -> VanishingStructure:
    return structure_from_generators(n, ())


def identically_zero_structure(n: int) -> VanishingStructure:
    """The structure of the zero residue tuple: every subset vanishes."""
    return structure_from_generators(n, [1 << i for i in range(n - 1)])


def _zero_sum_closure(packed: list[int]) -> frozenset[Mask]:
    """Canonical masks whose subset sum of ``packed`` is zero.

    Meet in the middle: the low poles (pole 1 and the next n//2) list their
    sums by doubling from pole 1, so low entry k is the canonical mask
    2k + 1; the high poles' sums, listed the same way from the empty set,
    index their masks k << low already shifted into place.  A low sum s meets
    every high mask whose sum is -s.  That costs 2^(n//2) + 2^((n-1)//2)
    sums plus one step per mask found, not 2^(n-1); the full set always
    sums to zero and is no proper subset, so it is dropped.
    """
    low = len(packed) // 2 + 1
    sums = packed[:1]
    for x in packed[1:low]:
        sums += [s + x for s in sums]
    high_sums = [0]
    for x in packed[low:]:
        high_sums += [s + x for s in high_sums]
    index: dict[int, list[Mask]] = {}
    for k, s in enumerate(high_sums):
        index.setdefault(-s, []).append(k << low)
    found = {
        2 * k + 1 | m for k, s in enumerate(sums) for m in index.get(s, ())
    }
    found.discard(full_mask(len(packed)))
    return frozenset(found)


def vanishing_subsets(residues: ResidueTuple) -> VanishingStructure:
    """Exact vanishing structure of a residue tuple.

    The closure is the zero-sum subsets of the tuple's two integer rows,
    packed and met in the middle: about 2^ceil(n/2) sums plus one step per
    vanishing subset.  The generators are the greedy independent subfamily
    in canonical order.
    """
    n = residues.n
    _check_n(n)
    closure = _zero_sum_closure(_packed_rows(n, residues.rows))
    gens = _greedy_generators(n, closure, n - 1)  # stops when the kernel is empty
    return VanishingStructure(n, gens, closure, len(gens))


def is_refinement(structure: VanishingStructure, other: VanishingStructure) -> bool:
    """True iff every vanishing of the first also holds in the second."""
    if structure.n != other.n:
        raise ValueError("structures must have the same pole count")
    return structure.closure <= other.closure


def realize_residues(structure: VanishingStructure, seed: int) -> ResidueTuple:
    """Deterministic exact rational residues with exactly this structure.

    Samples integer combinations of a kernel basis of the generator
    conditions; generic points avoid the finitely many hyperplanes that
    would create extra vanishings, so the retry loop ends quickly.  If the
    structure is identically zero only the zero tuple realizes it.
    """
    n = structure.n
    if structure.is_identically_zero():
        return ResidueTuple(tuple(GaussianRational(Fraction(0)) for _ in range(n)))
    basis = structure_kernel(structure)
    rng = random.Random(seed)
    for attempt in range(64):
        # Up by 8 per attempt, which small structures never outgrow, then
        # doubling: at 16 poles a candidate has to miss up to 2^15
        # hyperplanes, far more than a bound of 64 can.
        bound = 8 * (attempt + 1) if attempt < 8 else 64 << (attempt - 7)
        coeffs = [rng.randint(-bound, bound) for _ in basis]
        vec = [sum(c * row[i] for c, row in zip(coeffs, basis)) for i in range(n)]
        if any(vec) and _zero_sum_closure(vec) == structure.closure:
            return ResidueTuple(tuple(GaussianRational(Fraction(x)) for x in vec))
    raise RealizationExhausted(
        f"no generic residue tuple found for rank-{structure.rank} structure "
        f"on {n} poles with seed {seed}"
    )


# The most poles whose structures are all enumerated: six poles have 1788
# structures, and enumerating those on seven once ran for ten minutes and
# past 7 GB without finishing.
MAX_ENUMERATED_POLES = 6


@lru_cache(maxsize=None)
def all_vanishing_structures(n: int) -> tuple[VanishingStructure, ...]:
    """Every span-closed vanishing structure on n poles, by breadth-first
    closure of generator additions.  Exponential in n; meant for sweeps,
    and refused above MAX_ENUMERATED_POLES."""
    _check_n(n)
    if n > MAX_ENUMERATED_POLES:
        raise ValueError(
            f"structures are enumerated up to {MAX_ENUMERATED_POLES} poles, got {n}"
        )
    start = trivial_structure(n)
    seen = {start.closure: start}
    frontier = [start]
    while frontier:
        nxt = []
        for structure in frontier:
            kernel = structure_kernel(structure)
            for mask in _canonical_masks(n):
                if mask in structure.closure:
                    continue
                # Only a closure not seen yet is built into a structure.
                closure = _zero_sum_closure(_packed_rows(n, kernel_reduce(kernel, mask)))
                if closure not in seen:
                    grown = structure_from_generators(n, structure.generators + (mask,))
                    seen[closure] = grown
                    nxt.append(grown)
        frontier = nxt
    return tuple(
        sorted(
            seen.values(),
            key=lambda s: (s.rank, sorted(s.closure, key=_mask_sort_key)),
        )
    )
