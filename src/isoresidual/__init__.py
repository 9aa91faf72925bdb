"""Exact counts of meromorphic differentials on the sphere with a single
zero, prescribed pole orders and prescribed residues.

The count is computed three independent ways that cross-validate each
other: a closed formula over zero-sum partitions of the poles
(:mod:`counting`), a recursion over two-level boundary degenerations
(:mod:`levelgraph`), and, for up to three poles, literal root counting by
symbolic elimination (:mod:`oracle`).  The same machinery counts polynomial
maps with prescribed fixed-point multipliers.
"""

from .counting import (
    CountBreakdown,
    DegreeFitReport,
    check_monotonicity,
    check_polynomial_degree,
    count_closed_form,
    count_general,
    count_one_vanishing,
    count_two_nonzero,
    degenerate_simple_poles,
    zero_identity_value,
)
from .exactarith import GaussianRational, falling_f, parse_gaussian_rational
from .levelgraph import (
    InducedStructures,
    TwoLevelGraph,
    boundary_graphs,
    count_recursive,
    induced_structures,
    twist,
)
from .oracle import (
    Poly,
    count_polynomials_with_multipliers,
    multipliers_to_residues,
    oracle_count,
    residue_functions,
)
from .partitions import enumerate_partitions
from .profiles import (
    MAX_ENUMERATED_POLES,
    MAX_POLES,
    OrderProfile,
    ResidueTuple,
    VanishingStructure,
    all_vanishing_structures,
    canonical_mask,
    full_mask,
    identically_zero_structure,
    indices_from_mask,
    is_refinement,
    mask_from_indices,
    realize_residues,
    structure_from_generators,
    trivial_structure,
    vanishing_subsets,
)

__version__ = "0.1.0"

__all__ = [
    "CountBreakdown",
    "DegreeFitReport",
    "GaussianRational",
    "InducedStructures",
    "MAX_ENUMERATED_POLES",
    "MAX_POLES",
    "OrderProfile",
    "Poly",
    "ResidueTuple",
    "TwoLevelGraph",
    "VanishingStructure",
    "all_vanishing_structures",
    "boundary_graphs",
    "canonical_mask",
    "check_monotonicity",
    "check_polynomial_degree",
    "count_closed_form",
    "count_general",
    "count_one_vanishing",
    "count_polynomials_with_multipliers",
    "count_recursive",
    "count_two_nonzero",
    "degenerate_simple_poles",
    "enumerate_partitions",
    "falling_f",
    "full_mask",
    "identically_zero_structure",
    "indices_from_mask",
    "induced_structures",
    "is_refinement",
    "mask_from_indices",
    "multipliers_to_residues",
    "oracle_count",
    "parse_gaussian_rational",
    "realize_residues",
    "residue_functions",
    "structure_from_generators",
    "trivial_structure",
    "twist",
    "vanishing_subsets",
    "zero_identity_value",
]
