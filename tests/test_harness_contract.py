"""The names the benchmark's tracer patches must keep resolving.

``perfbench/tracing.py`` wraps package functions by module and attribute
name from outside the program, and reads ``cache_info()`` from the cached
ones.  A rename or a dropped cache would make ``--trace 1`` fail at start-up
rather than here, so this test loads the tracer by path and checks every
name it lists.  Its result hooks read fields of what some of those calls
return, so the shapes of those fields are checked here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()


def resolve(short, attr):
    return getattr(importlib.import_module(f"isoresidual.{short}"), attr)


@pytest.mark.parametrize(
    "short, attr, metric",
    TRACING_MODULE.SPANNED + TRACING_MODULE.COUNTED + TRACING_MODULE.CACHED,
)
def test_traced_name_resolves(short, attr, metric):
    assert callable(resolve(short, attr)), metric


@pytest.mark.parametrize("short, attr, metric", TRACING_MODULE.CACHED)
def test_cached_name_has_cache_info(short, attr, metric):
    info = resolve(short, attr).cache_info()
    assert info.hits >= 0 and info.misses >= 0, metric


def test_poly_gcd_is_a_staticmethod():
    poly = importlib.import_module("isoresidual.oracle").Poly
    assert isinstance(poly.__dict__["gcd"], staticmethod)


def test_induced_structures_reports_an_integer_dimension():
    # The tracer's stratum hook counts a stratum rigid when bottom_dim == 1.
    levelgraph = importlib.import_module("isoresidual.levelgraph")
    profiles = importlib.import_module("isoresidual.profiles")
    graph = levelgraph.TwoLevelGraph(3, (0b011, 0b100))
    induced = levelgraph.induced_structures(graph, profiles.trivial_structure(3))
    assert type(induced.bottom_dim) is int and induced.bottom_dim == 1


def test_closed_form_breakdown_holds_triples():
    # The tracer's summed hook unpacks per_s as (s, value, size) triples.
    counting = importlib.import_module("isoresidual.counting")
    profiles = importlib.import_module("isoresidual.profiles")
    profile = profiles.OrderProfile.from_pole_orders((2, 2, 1, 1))
    structure = profiles.structure_from_generators(4, [0b0011])
    breakdown = counting.count_closed_form(profile, structure)
    assert [(s, size) for s, _, size in breakdown.per_s] == [(1, 1), (2, 1)]


def test_cli_entry_points_are_callable():
    # The benchmark worker builds the parser at start-up and calls main per job.
    cli = importlib.import_module("isoresidual.cli")
    assert callable(cli.main) and callable(cli.build_parser)
    assert cli.build_parser().prog == "isoresidual"
