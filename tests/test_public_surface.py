"""The package's public names are those of its modules' ``__all__`` lists,
each declared once, and the names only the tests and the benchmark's tracer
use are not among them."""

import isoresidual
from isoresidual import counting, exactarith, levelgraph, oracle, profiles

MODULES = (counting, exactarith, levelgraph, oracle, profiles)
NOT_PUBLIC = {
    "InducedStructures",
    "TwoLevelGraph",
    "twist",
    "induced_structures",
    "boundary_graphs",
    "enumerate_partitions",
    "check_monotonicity",
    "is_refinement",
}


def test_no_name_is_declared_twice():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert len(isoresidual.__all__) == len(set(isoresidual.__all__))


def test_package_names_are_the_modules_names():
    assert isoresidual.__all__ == sorted(name for module in MODULES for name in module.__all__)


def test_every_name_resolves_on_the_package():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(isoresidual, name) is getattr(module, name), name


def test_test_and_tracer_names_are_not_public():
    assert NOT_PUBLIC.isdisjoint(isoresidual.__all__)
    for module in MODULES:
        assert NOT_PUBLIC.isdisjoint(module.__all__), module.__name__


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from isoresidual import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == isoresidual.__all__
