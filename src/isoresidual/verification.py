"""Verification sweeps: every law the counts must satisfy, run at desk scale.

Each check returns a SuiteResult with the number of instances checked and
the failures found (empty means the law held everywhere).  The CLI's
``verify`` command and the acceptance test suite both run these.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from itertools import combinations_with_replacement, permutations, product

from .counting import (
    check_polynomial_degree,
    count_closed_form,
    count_general,
    count_one_vanishing,
    count_two_nonzero,
    degenerate_simple_poles,
    zero_identity_value,
    _count_total,
)
from .errors import (
    IndexConstraintViolated,
    InterpolationMismatch,
    ParabolicMultiplier,
)
from .exactarith import GaussianRational
from .levelgraph import count_recursive
from .oracle import (
    count_polynomials_with_multipliers,
    multipliers_to_residues,
    oracle_count,
)
from .profiles import (
    MAX_ENUMERATED_POLES,
    OrderProfile,
    ResidueTuple,
    all_vanishing_structures,
    indices_from_mask,
    realize_residues,
    structure_from_generators,
    trivial_structure,
    vanishing_subsets,
)

__all__ = [
    "SuiteResult",
    "check_general_residue_law",
    "check_one_vanishing_law",
    "check_zero_identity",
    "check_two_nonzero_identity",
    "check_recursion_equivalence",
    "check_oracle_equivalence",
    "check_monotonic_vanishing",
    "check_degree_interpolation",
    "check_multiplier_bridge",
]

_MAX_RECORDED_FAILURES = 10
# Every generator order is peeled for structures up to this rank.
_ORDER_CHECK_RANK_MAX = 3
# Generic multiplier tuples per pole count in the bridge check.
_GENERIC_SEEDS = 5
# The most poles the degree sweep checks: seven took 70 s and 98 MB on a
# 2 GHz Xeon vCPU, and eight would evaluate 7^8, about 5.8 million counts,
# per structure.
MAX_DEGREE_POLES = 7


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    failure_count: int = 0
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        # A sweep whose bounds leave it nothing to check proves nothing.
        return self.checked > 0 and self.failure_count == 0

    def expect(self, ok: bool, describe: Callable[[], str]):
        """Count one check, and record ``describe()`` if it failed.  This is
        the only place ``checked`` grows, by one per check."""
        self.checked += 1
        if not ok:
            self.record(describe())

    def record(self, message: str):
        self.failure_count += 1
        if len(self.failures) < _MAX_RECORDED_FAILURES:
            self.failures.append(message)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = (
            f"{status}: {self.name}: {self.checked} checks, "
            f"{self.failure_count} failures ({self.seconds:.1f}s)"
        )
        if self.failures:
            line += f"\n  first counterexample: {self.failures[0]}"
        return line


def _timed(sweep):
    """Time a sweep: its result's ``seconds`` covers the whole call."""

    @wraps(sweep)
    def timed(*args, **kwargs) -> SuiteResult:
        start = time.perf_counter()
        result = sweep(*args, **kwargs)
        result.seconds = time.perf_counter() - start
        return result

    return timed


def _rat(*args) -> GaussianRational:
    return GaussianRational(Fraction(*args))


def _order_multisets(n: int, b_max: int):
    """Sorted pole-order tuples with entries in 1..b_max.

    The sweeps pairing these with every subset, pair or structure cover all
    labeled instances up to a simultaneous relabeling of poles and
    conditions, and relabeling equivariance is tested on its own.
    """
    return combinations_with_replacement(range(1, b_max + 1), n)


def _every_structure(n_max: int):
    """(n, every vanishing structure on n poles) for n = 2..n_max.  An n_max
    past MAX_ENUMERATED_POLES is refused here, before the sweep checks
    anything."""
    if n_max > MAX_ENUMERATED_POLES:
        raise ValueError(
            f"n_max is at most {MAX_ENUMERATED_POLES}, the most poles whose "
            f"structures are all enumerated; got {n_max}"
        )
    return ((n, all_vanishing_structures(n)) for n in range(2, n_max + 1))


@_timed
def check_general_residue_law(n_max: int = 8, b_max: int = 5) -> SuiteResult:
    """With no vanishing partial sums the count is falling_f(a, n), for
    every labeled order tuple in range."""
    result = SuiteResult(f"general-residue law (n<={n_max}, b<={b_max})")
    for n in range(2, n_max + 1):
        trivial = trivial_structure(n)
        for b in product(range(1, b_max + 1), repeat=n):
            profile = OrderProfile.from_pole_orders(b)
            got = count_closed_form(profile, trivial).total
            want = count_general(profile)
            result.expect(
                got == want, lambda: f"b={b}: closed form {got} != falling_f {want}"
            )
    return result


@_timed
def check_one_vanishing_law(n_max: int = 7, b_max: int = 4) -> SuiteResult:
    """With exactly one vanishing partial sum the count drops by the product
    of the two group counts, for every canonical subset and order tuple."""
    result = SuiteResult(f"one-vanishing law (n<={n_max}, b<={b_max})")
    for n in range(2, n_max + 1):
        subsets = [m for m in range(1, (1 << n) - 1, 2)]
        structures = {m: structure_from_generators(n, [m]) for m in subsets}
        for b in _order_multisets(n, b_max):
            profile = OrderProfile.from_pole_orders(b)
            for m in subsets:
                got = count_closed_form(profile, structures[m]).total
                want = count_one_vanishing(profile, m)
                result.expect(got == want, lambda: (
                    f"b={b}, subset={indices_from_mask(m)}: "
                    f"closed form {got} != correction formula {want}"
                ))
    return result


@_timed
def check_zero_identity(n_max: int = 7, b_max: int = 5) -> SuiteResult:
    """The alternating sum over all set partitions vanishes identically."""
    result = SuiteResult(f"zero identity (n<={n_max}, b<={b_max})")
    for n in range(2, n_max + 1):
        for b in _order_multisets(n, b_max):
            value = zero_identity_value(OrderProfile.from_pole_orders(b))
            result.expect(value == 0, lambda: f"b={b}: alternating sum is {value}, not 0")
    return result


@_timed
def check_two_nonzero_identity(n_max: int = 7, b_max: int = 4) -> SuiteResult:
    """All residues zero but an opposite pair: the count is
    (n-2)! prod (b_k - 1) over the zero-residue poles."""
    result = SuiteResult(f"two-nonzero identity (n<={n_max}, b<={b_max})")
    for n in range(2, n_max + 1):
        pair_structures = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                gens = [1 << (k - 1) for k in range(1, n + 1) if k not in (i, j)]
                pair_structures[(i, j)] = structure_from_generators(n, gens)
        for b in _order_multisets(n, b_max):
            profile = OrderProfile.from_pole_orders(b)
            for (i, j), structure in pair_structures.items():
                got = count_closed_form(profile, structure).total
                want = count_two_nonzero(profile, i, j)
                result.expect(got == want, lambda: (
                    f"b={b}, pair=({i},{j}): closed form {got} != product {want}"
                ))
    return result


@_timed
def check_recursion_equivalence(n_max: int = 6, b_max: int = 4) -> SuiteResult:
    """The boundary recursion reproduces the closed form on every span-closed
    structure, and is independent of the order the generators are peeled.
    The two share only the zero-sum partitions of each structure."""
    result = SuiteResult(f"recursion equivalence (n<={n_max}, b<={b_max})")
    for n, structures in _every_structure(n_max):
        profiles = [
            OrderProfile.from_pole_orders(b) for b in _order_multisets(n, b_max)
        ]
        for structure in structures:
            for profile in profiles:
                got = count_recursive(profile, structure)
                want = _count_total(profile, structure)
                result.expect(got == want, lambda: (
                    f"b={profile.b}, generators="
                    f"{[indices_from_mask(g) for g in structure.generators]}: "
                    f"recursion {got} != closed form {want}"
                ))
        # Generator-order independence for small ranks.
        order_profiles = [
            OrderProfile.from_pole_orders((2,) * n),
            OrderProfile.from_pole_orders(tuple(1 + (i % 2) for i in range(n))),
        ]
        candidates = [
            s for s in structures if 2 <= s.rank <= _ORDER_CHECK_RANK_MAX
        ]
        if n >= 6:
            candidates = candidates[::5]
            order_profiles = order_profiles[:1]
        for structure in candidates:
            for order in permutations(structure.generators):
                for profile in order_profiles:
                    got = count_recursive(profile, structure, generator_order=order)
                    result.expect(got == _count_total(profile, structure), lambda: (
                        f"b={profile.b}, order="
                        f"{[indices_from_mask(g) for g in order]}: "
                        f"recursion {got} != closed form"
                    ))
    return result


def _compositions_up_to(n: int, total_max: int):
    for b in product(range(1, total_max), repeat=n):
        if sum(b) <= total_max:
            yield b


@_timed
def check_oracle_equivalence(sum_b_max: int = 10, seeds: int = 20) -> SuiteResult:
    """The symbolic elimination count agrees with the closed form for three
    poles, over seeded generic residues and every one-vanishing structure."""
    result = SuiteResult(f"oracle equivalence (sum b<={sum_b_max}, {seeds} seeds)")
    # No residue tuple depends on b, so each is realized once.
    generic = [realize_residues(trivial_structure(3), seed) for seed in range(seeds)]
    one_vanishing = [structure_from_generators(3, [m]) for m in (0b001, 0b011, 0b101)]
    special = [(structure, realize_residues(structure, 0)) for structure in one_vanishing]
    for b in _compositions_up_to(3, sum_b_max):
        profile = OrderProfile.from_pole_orders(b)
        want = count_general(profile)
        for seed, residues in enumerate(generic):
            got = oracle_count(profile, residues)
            result.expect(got == want, lambda: (
                f"b={b}, seed={seed}, rho={[str(v) for v in residues.values]}: "
                f"oracle {got} != general count {want}"
            ))
        for structure, residues in special:
            want_special = _count_total(profile, structure)
            got = oracle_count(profile, residues)
            result.expect(got == want_special, lambda: (
                f"b={b}, rho={[str(v) for v in residues.values]}: "
                f"oracle {got} != closed form {want_special}"
            ))

    # Anchor instances for the profile (2; 1, 1, 2).
    profile = OrderProfile(2, (1, 1, 2))
    anchors = [
        (ResidueTuple((_rat(2), _rat(-1), _rat(-1))), 2),
        (ResidueTuple((_rat(1), _rat(-1), _rat(0))), 1),
    ]
    for residues, want in anchors:
        got = oracle_count(profile, residues)
        closed = _count_total(profile, vanishing_subsets(residues))
        result.expect(got == want == closed, lambda: (
            f"anchor rho={[str(v) for v in residues.values]}: oracle {got}, "
            f"closed {closed}, want {want}"
        ))
    zero = ResidueTuple((_rat(0), _rat(0), _rat(0)))
    result.expect(
        _count_total(profile, vanishing_subsets(zero)) == 0,
        lambda: "zero residue tuple: closed form is not 0",
    )
    if oracle_count(profile, zero) != 0:
        result.record("zero residue tuple: oracle is not 0")
    return result


@_timed
def check_monotonic_vanishing(n_max: int = 6, b_max: int = 4) -> SuiteResult:
    """Monotone decrease of the count along refinement edges and the
    vanishing criterion.

    Adding a vanishing condition never increases the count.  When every
    pole order is at least 2 the decrease is strict and the count vanishes
    exactly for the identically-zero structure.  With simple poles in play
    strictness genuinely fails (e.g. orders (1,1,1,1) with residues
    (t,-t,-t,t) admit no differential although t != 0), so there the sweep
    asserts the weak decrease, plus zero whenever a simple pole has a
    forced-zero residue.
    """
    result = SuiteResult(f"monotonicity and vanishing (n<={n_max}, b<={b_max})")
    for n, structures in _every_structure(n_max):
        profiles = [
            OrderProfile.from_pole_orders(b) for b in _order_multisets(n, b_max)
        ]
        for structure in structures:
            parent = (
                structure_from_generators(n, structure.generators[:-1])
                if structure.rank >= 1
                else None
            )
            for profile in profiles:
                count = _count_total(profile, structure)
                all_higher = min(profile.b) >= 2
                parent_count = None if parent is None else _count_total(profile, parent)
                # One check; the failures after the first are recorded with it.
                result.expect(parent is None or parent_count >= count, lambda: (
                    f"b={profile.b}: refinement increased the count "
                    f"({parent_count} -> {count})"
                ))
                if parent is not None and all_higher and parent_count == count:
                    result.record(
                        f"b={profile.b}: refinement not strict "
                        f"({parent_count} -> {count}) despite orders >= 2"
                    )
                if structure.is_identically_zero() or degenerate_simple_poles(
                    profile, structure
                ):
                    if count != 0:
                        result.record(
                            f"b={profile.b}, gens="
                            f"{[indices_from_mask(g) for g in structure.generators]}: "
                            f"expected 0, got {count}"
                        )
                elif all_higher and count <= 0:
                    result.record(
                        f"b={profile.b}, gens="
                        f"{[indices_from_mask(g) for g in structure.generators]}: "
                        f"count {count} should be positive for orders >= 2"
                    )

    # The named chain 12 > 9 > 5 > 0 for the profile (4; 2, 2, 1, 1).
    profile = OrderProfile(4, (2, 2, 1, 1))
    chain = [
        trivial_structure(4),
        structure_from_generators(4, [0b0011]),
        structure_from_generators(4, [0b0011, 0b0101]),
        structure_from_generators(4, [0b0001, 0b0010, 0b0100]),
    ]
    values = [_count_total(profile, s) for s in chain]
    result.expect(
        values == [12, 9, 5, 0], lambda: f"named chain gave {values}, want [12, 9, 5, 0]"
    )
    return result


@_timed
def check_degree_interpolation(n_max: int = 5) -> SuiteResult:
    """The count is an exact polynomial of total degree n - 2 in the pole
    orders: every Newton coefficient of the grid values past degree n - 2
    vanishes and the top homogeneous component is nonzero.  An n_max past
    MAX_DEGREE_POLES is refused before the sweep checks anything."""
    if n_max > MAX_DEGREE_POLES:
        raise ValueError(
            f"n_max is at most {MAX_DEGREE_POLES} for the degree sweep, whose "
            f"grid has (n - 1)^n points; got {n_max}"
        )
    result = SuiteResult(f"polynomial degree fits (n<={n_max})")
    for n in range(3, n_max + 1):
        samples = [trivial_structure(n), structure_from_generators(n, [0b001])]
        if n >= 4:
            samples.append(structure_from_generators(n, [0b0011]))
            samples.append(structure_from_generators(n, [0b0011, 0b0101]))
        pair_gens = [1 << k for k in range(n - 2)]
        samples.append(structure_from_generators(n, pair_gens))
        b_range = max(n - 1, 2)
        for structure in dict.fromkeys(samples):
            try:
                report = check_polynomial_degree(structure, b_range)
            except InterpolationMismatch as exc:
                result.expect(False, lambda: f"n={n}, rank={structure.rank}: {exc}")
                continue
            fits = report.total_degree == n - 2 and report.top_component_nonzero
            result.expect(fits, lambda: (
                f"n={n}, rank={structure.rank}: fitted degree "
                f"{report.total_degree}, top component nonzero = "
                f"{report.top_component_nonzero}"
            ))
    return result


@_timed
def check_multiplier_bridge() -> SuiteResult:
    """Counting polynomial maps by their fixed-point multipliers: generic
    tuples give (n-2)! for n = 3, 4, and the two rejection modes fire."""
    result = SuiteResult("multiplier bridge")
    one = _rat(1)
    for n, want in ((3, 1), (4, 2)):
        for seed in range(_GENERIC_SEEDS):
            residues = realize_residues(trivial_structure(n), seed)
            lams = tuple(one - one / r for r in residues.values)
            got = count_polynomials_with_multipliers(lams)
            result.expect(got == want, lambda: f"n={n}, seed={seed}: count {got} != {want}")
            back = multipliers_to_residues(lams)
            result.expect(
                back.values == residues.values,
                lambda: f"n={n}, seed={seed}: bridge round trip failed",
            )

    # One vanishing pair on four poles: residues (1, -1, 2, -2).
    lams = (_rat(0), _rat(2), _rat(1, 2), _rat(3, 2))
    result.expect(
        count_polynomials_with_multipliers(lams) == 1,
        lambda: "zero-sum pair on 4 poles should count 1",
    )

    for lams, error, message in (
        ((_rat(1), _rat(2), _rat(3)), ParabolicMultiplier, "multiplier 1 was not rejected"),
        ((_rat(-1), _rat(-1), _rat(3)), IndexConstraintViolated,
         "index constraint violation was not rejected"),
    ):
        try:
            multipliers_to_residues(lams)
            rejected = False
        except error:
            rejected = True
        result.expect(rejected, lambda: message)
    return result
