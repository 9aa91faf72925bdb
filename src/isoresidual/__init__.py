"""Exact counts of meromorphic differentials on the sphere with a single
zero, prescribed pole orders and prescribed residues.

The count is computed three independent ways that cross-validate each
other: a closed formula over zero-sum partitions of the poles
(:mod:`counting`), a recursion over two-level boundary degenerations
(:mod:`levelgraph`), and, for up to three poles, literal root counting by
symbolic elimination (:mod:`oracle`).  The same machinery counts polynomial
maps with prescribed fixed-point multipliers.

The public names are those of each module's ``__all__``.
"""

from . import counting, exactarith, levelgraph, oracle, profiles
from .counting import *
from .exactarith import *
from .levelgraph import *
from .oracle import *
from .profiles import *

__version__ = "0.1.0"

__all__ = sorted(
    counting.__all__ + exactarith.__all__ + levelgraph.__all__ + oracle.__all__ + profiles.__all__
)
