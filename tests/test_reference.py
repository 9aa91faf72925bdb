"""The closed form and the recursion against the benchmark's reference.

``perfbench/reference.py`` finds the zero-sum subsets by plain subset sums
over every mask and sums the closed form by its own recursion, sharing no
code with the package, so this is the one check of the closed form that
does not go through the zero-sum plan or the meet-in-the-middle finder.  It
is loaded by path, as the harness-contract test loads the tracer.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from isoresidual.counting import count_closed_form
from isoresidual.exactarith import GaussianRational
from isoresidual.levelgraph import count_recursive
from isoresidual.profiles import OrderProfile, ResidueTuple, vanishing_subsets

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = load_reference()


def seeded_case(n, k):
    """Integer residues in [-k, k], not all zero, that sum to zero, drawn
    by rejection, and pole orders in [1, 3]; a pole whose residue is zero
    is not simple, since a simple pole has a nonzero residue and the count
    would be 0."""
    rng = random.Random(f"{n}-{k}")
    while True:
        values = [rng.randint(-k, k) for _ in range(n)]
        if any(values) and sum(values) == 0:
            return values, tuple(rng.randint(1 if x else 2, 3) for x in values)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", range(7, 17))
def test_closed_form_matches_the_reference(n, k):
    values, orders = seeded_case(n, k)
    structure = vanishing_subsets(ResidueTuple(tuple(GaussianRational(Fraction(x)) for x in values)))
    profile = OrderProfile.from_pole_orders(orders)
    want = reference.closed_form_total(orders, reference.zero_sum_masks(n, [values]))
    assert want  # every seeded case counts something, so no check is 0 == 0
    assert count_closed_form(profile, structure).total == want, (values, orders)
    if n <= 10:
        assert count_recursive(profile, structure) == want, (values, orders)
