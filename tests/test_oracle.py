import hashlib
import random
import warnings
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from isoresidual import oracle, verification
from isoresidual.counting import count_closed_form
from isoresidual.errors import (
    IndexConstraintViolated,
    ParabolicMultiplier,
    TransversalityWarning,
)
from isoresidual.exactarith import GaussianRational
from isoresidual.oracle import (
    Poly,
    count_polynomials_with_multipliers,
    multipliers_to_residues,
    oracle_count,
    residue_functions,
)
from isoresidual.profiles import (
    OrderProfile,
    ResidueTuple,
    realize_residues,
    structure_from_generators,
    trivial_structure,
    vanishing_subsets,
)


def gr(*args):
    return GaussianRational(Fraction(*args))


def gi(re, im):
    return GaussianRational(Fraction(re), Fraction(im))


def residues(*values):
    return ResidueTuple(tuple(v if isinstance(v, GaussianRational) else gr(v) for v in values))


def poly(*coeffs):
    return Poly(coeffs)


P = poly(0, 1)
UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1)]
# Every three-pole order tuple with sum at most 10.
COMPOSITIONS = [b for b in product(range(1, 9), repeat=3) if sum(b) <= 10]


class TestPoly:
    def test_divmod(self):
        # A monic divisor makes the pseudo-division a plain divmod:
        # (p - 1)(p + 2) = p^2 + p - 2.
        q, r = poly(-2, 1, 1).pseudo_divmod(poly(-1, 1))
        assert q == poly(2, 1) and not r
        q, r = poly(5, 1, 1).pseudo_divmod(poly(-1, 1))
        assert q == poly(2, 1) and r == poly(7)

    def test_pseudo_divmod(self):
        # lead^k * a == q * b + r with k = deg a - deg b + 1
        a = poly(3, (0, 2), -1, 4)
        b = poly(1, (2, 1))
        q, r = a.pseudo_divmod(b)
        assert Poly([(2, 1)]) ** 3 * a == q * b + r
        assert r.degree < b.degree
        q, r = b.pseudo_divmod(a)
        assert not q and r == b

    def test_gcd_monic(self):
        # up to a unit of Z[i], the gcd of monic polynomials is monic
        a = poly(-2, 1) * poly(3, 1) * poly(3, 1)
        b = poly(3, 1) * poly(5, 1)
        assert Poly.gcd(a, b) in [poly(3, 1) * u for u in UNITS]
        a = poly((0, -1), 1) * poly(1, 1)
        b = poly((0, -1), 1) * poly(-2, 1) * poly(7, 1)
        assert Poly.gcd(a, b) in [poly((0, -1), 1) * u for u in UNITS]
        assert Poly.gcd(a * 6, b * 10) in [poly((0, -1), 1) * u for u in UNITS]
        assert Poly.gcd(poly(2, 1), poly(3, 1)).degree == 0

    def test_gaussian_coefficients(self):
        # p^2 + 1 = (p - i)(p + i)
        assert poly((0, -1), 1) * poly((0, 1), 1) == poly(1, 0, 1)

    def test_derivative(self):
        assert poly(7, (1, 2), 3, (0, -1)).derivative() == poly((1, 2), 6, (0, -3))


_GAUSSIAN_INTS = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
_POLYS = st.lists(_GAUSSIAN_INTS, max_size=6).map(Poly)
_SCALARS = st.one_of(st.integers(-3, 3), _GAUSSIAN_INTS, st.just(0), st.just((0, 0)))


@st.composite
def _cancelling_pair(draw):
    """Two polynomials, often with b's top coefficients the negatives of
    a's, so that a + b loses its top."""
    a, b = draw(_POLYS), draw(_POLYS)
    if draw(st.booleans()):
        shared = draw(st.integers(0, len(a.coeffs)))
        low = draw(st.lists(_GAUSSIAN_INTS, min_size=len(a.coeffs) - shared,
                            max_size=len(a.coeffs) - shared))
        b = Poly(low + [(-re, -im) for re, im in a.coeffs[len(low):]])
    return a, b


def assert_normal(result):
    # What the public constructor makes of the same coefficients.
    assert isinstance(result, Poly)
    assert result == Poly(list(result.coeffs))
    assert result.degree == Poly(list(result.coeffs)).degree


@settings(max_examples=300, deadline=None)
@given(_cancelling_pair(), _SCALARS)
def test_internal_results_are_normalized(pair, scalar):
    a, b = pair
    for result in (a + b, a - b, b - a, a - a, a + -a, -a, a * b, a * scalar,
                   scalar * a, a.derivative(), a.primitive(), (a + b).primitive()):
        assert_normal(result)
    for num, den in ((a, b), (a + b, b), (b, a), (a * b, a), (b, Poly(a.coeffs[-1:]))):
        if not den:
            continue
        q, r = num.pseudo_divmod(den)
        assert_normal(q)
        assert_normal(r)
        k = max(num.degree - den.degree + 1, 0)
        assert Poly([den.coeffs[-1]]) ** k * num == q * den + r
        assert r.degree < den.degree


def same_fraction(f, g):
    return f[0] * g[1] == g[0] * f[1]


class TestResidueFunctions:
    def test_three_simple_poles(self):
        # dz / (z (z-1) (z-p)): partial fractions give 1/p, 1/(1-p), 1/(p(p-1))
        r0, r1, rp = residue_functions(OrderProfile(1, (1, 1, 1)))
        assert same_fraction(r0, (poly(1), P))
        assert same_fraction(r1, (poly(-1), poly(-1, 1)))
        assert same_fraction(rp, (poly(1), poly(0, -1, 1)))

    def test_double_pole_at_moving_point(self):
        # dz / (z (z-1) (z-p)^2)
        r0, r1, rp = residue_functions(OrderProfile(2, (1, 1, 2)))
        assert same_fraction(r0, (poly(-1), poly(0, 0, 1)))
        assert same_fraction(r1, (poly(1), poly(1, -2, 1)))
        assert same_fraction(rp, (poly(1, -2), poly(0, 0, 1, -2, 1)))

    @pytest.mark.parametrize("b", COMPOSITIONS)
    def test_residue_theorem(self, b):
        (n0, d0), (n1, d1), (n2, d2) = residue_functions(OrderProfile.from_pole_orders(b))
        assert not n0 * d1 * d2 + n1 * d0 * d2 + n2 * d0 * d1

    def test_requires_three_poles(self):
        with pytest.raises(ValueError):
            residue_functions(OrderProfile(0, (1, 1)))


def _strip_by_pseudo_division(g):
    """g with every factor p and p - 1 divided out, one pseudo-division per
    factor: the loop the oracle ran before it shifted and divided
    synthetically, kept as the reference."""
    for root in (P, poly(-1, 1)):
        while g.degree > 0:
            q, r = g.pseudo_divmod(root)
            if r:
                break
            g = q
    return g


def test_dropped_eliminant_is_a_unit_multiple():
    # The two proportionality conditions against the anchor, built as the
    # two-eliminant oracle built them, on every three-pole case of the
    # corpus: once p and p - 1 are divided out they agree up to sign, so
    # the oracle needs only the first; and so does the condition against
    # poles 1 and 2, the one the oracle builds, whatever the anchor.
    anchors = set()
    for profile, rho in _corpus():
        if profile.n != 3:
            continue
        funcs = residue_functions(profile)
        values = list(zip(*rho.rows))
        anchor = next(i for i in range(3) if values[i] != (0, 0))
        anchors.add(anchor)
        num_a, den_a = funcs[anchor]
        kept, dropped = (
            _strip_by_pseudo_division(
                num_a * funcs[j][1] * values[j] - funcs[j][0] * den_a * values[anchor]
            )
            for j in range(3)
            if j != anchor
        )
        assert dropped in (kept, -kept)
        (num_1, den_1), (num_2, den_2), _ = funcs
        built = _strip_by_pseudo_division(num_1 * den_2 * values[1] - num_2 * den_1 * values[0])
        assert built in (kept, -kept)
    assert anchors == {0, 1}


# h(0) != 0 != h(1); the constant ones make g exactly c p^k (p - 1)^l.
STRIP_COFACTORS = [
    poly(1),
    poly((2, -3)),
    poly(2, 1),
    poly(-2, 1) ** 2,
    poly((0, 1), (1, 1), 3),
    poly(5, -7, 0, 1, (0, -2)),
]


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("l", range(4))
def test_strip_matches_the_division_loop(k, l):
    for h in STRIP_COFACTORS:
        at_one = tuple(map(sum, zip(*h.coeffs)))
        assert h.coeffs[0] != (0, 0) and at_one != (0, 0)
        for c in (1, (3, -2), (0, -1)):
            g = h * c * P ** k * poly(-1, 1) ** l
            stripped = oracle._strip_degenerate(g)
            assert stripped == _strip_by_pseudo_division(g) == h * c
            assert stripped.degree == h.degree


@settings(max_examples=200, deadline=None)
@given(_POLYS.filter(bool), st.integers(0, 3), st.integers(0, 3))
def test_strip_matches_the_division_loop_on_any_cofactor(h, k, l):
    # h may itself vanish at 0 or 1, or be a constant.
    g = h * P ** k * poly(-1, 1) ** l
    assert oracle._strip_degenerate(g) == _strip_by_pseudo_division(g)


@contextmanager
def _patched_functions(monkeypatch):
    """residue_functions replaced by functions that sum to zero, as real ones
    do, and whose eliminant against rho = (1, 1, -2) is (p - 2)^2: a double
    root away from 0 and 1.  The oracle's per-profile pieces are cleared on
    entry and on exit, so it reads the patch whatever ran before and no
    later call reads pieces built from it."""
    double = poly(-2, 1) ** 2
    funcs = ((double, poly(1)), (Poly(), poly(1)), (-double, poly(1)))
    oracle._eliminant_pieces.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "residue_functions", lambda profile: funcs)
            yield
    finally:
        oracle._eliminant_pieces.cache_clear()


@pytest.fixture
def patched_residue_functions(monkeypatch):
    with _patched_functions(monkeypatch):
        yield


class TestOracleCount:
    def test_generic_pair_of_roots(self):
        # elimination yields p^2 + 2p - 1, two simple roots
        assert oracle_count(OrderProfile(2, (1, 1, 2)), residues(2, -1, -1)) == 2

    def test_single_root(self):
        # elimination yields 2p - 1
        assert oracle_count(OrderProfile(2, (1, 1, 2)), residues(1, -1, 0)) == 1

    def test_linear_case(self):
        assert oracle_count(OrderProfile(1, (1, 1, 1)), residues(1, 2, -3)) == 1

    def test_two_poles(self):
        assert oracle_count(OrderProfile(0, (1, 1)), residues(5, -5)) == 1

    def test_zero_tuple_counts_zero(self):
        # as the closed form and the recursion count the identically-zero
        # structure
        assert oracle_count(OrderProfile(2, (1, 1, 2)), residues(0, 0, 0)) == 0
        assert oracle_count(OrderProfile(2, (2, 2)), residues(0, 0)) == 0

    def test_gaussian_residues(self):
        profile = OrderProfile(2, (1, 1, 2))
        assert oracle_count(profile, residues(gi(0, 1), gi(0, -1), 0)) == 1
        assert oracle_count(profile, residues(gi(1, 1), gr(-1), gi(0, -1))) == 2

    def test_forced_zero_at_simple_pole(self):
        # residue zero at a simple pole: no differential exists and the
        # elimination polynomial degenerates to a constant
        profile = OrderProfile(1, (1, 1, 1))
        assert oracle_count(profile, residues(0, 1, -1)) == 0

    def test_repeated_root_warns_and_counts_once(self, patched_residue_functions):
        with pytest.warns(TransversalityWarning):
            assert oracle_count(OrderProfile(1, (1, 1, 1)), residues(1, 1, -2)) == 1

    def test_pieces_are_built_once_per_profile(self):
        profile = OrderProfile.from_pole_orders((2, 2, 3))
        oracle._eliminant_pieces.cache_clear()
        for values in [(2, -1, -1), (3, 1, -4), (0, 1, -1), (0, 5, -5)]:
            oracle_count(profile, residues(*values))
        info = oracle._eliminant_pieces.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_patched_functions_reach_a_filled_pieces_entry(self, monkeypatch):
        # The real pieces of (1; 1, 1, 1) are cached first, as
        # any earlier test may have done; the patch must still be seen, and
        # must not outlive the test.
        profile = OrderProfile(1, (1, 1, 1))
        assert oracle_count(profile, residues(1, 2, -3)) == 1
        with _patched_functions(monkeypatch):
            with pytest.warns(TransversalityWarning):
                assert oracle_count(profile, residues(1, 1, -2)) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert oracle_count(profile, residues(1, 1, -2)) == 1

    @pytest.mark.parametrize(
        "b", [bb for bb in product(range(1, 5), repeat=3) if sum(bb) <= 9]
    )
    def test_matches_closed_form_on_seeded_residues(self, b):
        from isoresidual.profiles import realize_residues, trivial_structure

        profile = OrderProfile.from_pole_orders(b)
        for seed in range(3):
            rho = realize_residues(trivial_structure(3), seed)
            expected = count_closed_form(profile, vanishing_subsets(rho)).total
            assert oracle_count(profile, rho) == expected

    @pytest.mark.parametrize("perm", [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0)])
    def test_relabeling_invariance(self, perm):
        # which poles sit at the anchors 0 and 1 must not matter
        b = (1, 2, 3)
        values = (gr(3), gr(-1), gr(-2))
        base = oracle_count(OrderProfile.from_pole_orders(b), residues(*values))
        permuted_b = tuple(b[i] for i in perm)
        permuted_values = tuple(values[i] for i in perm)
        assert (
            oracle_count(
                OrderProfile.from_pole_orders(permuted_b), residues(*permuted_values)
            )
            == base
        )


def test_oracle_sweep_realizes_each_tuple_once(monkeypatch):
    # No residue tuple of the sweep depends on the order tuple b.
    calls = []

    def counted(structure, seed):
        calls.append((structure, seed))
        return realize_residues(structure, seed)

    monkeypatch.setattr(verification, "realize_residues", counted)
    result = verification.check_oracle_equivalence(sum_b_max=7, seeds=3)
    assert len(calls) <= 3 + 3
    assert (result.checked, result.failure_count) == (213, 0)


class TestMultiplierBridge:
    def test_simple_conversion(self):
        rho = multipliers_to_residues((gr(0), gr(1, 2), gr(4, 3)))
        assert rho == residues(1, 2, -3)

    def test_pair(self):
        assert multipliers_to_residues((gr(2), gr(0))) == residues(-1, 1)

    def test_parabolic_rejected(self):
        with pytest.raises(ParabolicMultiplier):
            multipliers_to_residues((gr(1), gr(2), gr(3)))

    def test_index_constraint(self):
        with pytest.raises(IndexConstraintViolated):
            multipliers_to_residues((gr(-1), gr(-1), gr(3)))

    def test_generic_triple_counts_one(self):
        assert count_polynomials_with_multipliers((gr(0), gr(1, 2), gr(4, 3))) == 1

    def test_generic_quadruple_counts_two(self):
        lams = (gr(0), gr(1, 2), gr(2, 3), gr(7, 6))
        assert count_polynomials_with_multipliers(lams) == 2

    def test_zero_sum_pair_counts_one(self):
        # residues (1, -1, 2, -2)
        lams = (gr(0), gr(2), gr(1, 2), gr(3, 2))
        assert count_polynomials_with_multipliers(lams) == 1


def _gaussian(rng):
    return gi(
        Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000)),
        Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000)),
    )


def _corpus():
    """Every b with sum(b) <= 10 on two and three poles, each with realized
    residues (seeds 0-2) for the trivial and every one-vanishing structure,
    three seeded Gaussian tuples with denominators up to 1000 and, on three
    poles, one Gaussian tuple with its zero at each pole."""
    for n in (2, 3):
        structures = [trivial_structure(n)]
        if n == 3:
            structures += [structure_from_generators(3, [m]) for m in (0b001, 0b011, 0b101)]
        for b in product(range(1, 10), repeat=n):
            if sum(b) > 10:
                continue
            profile = OrderProfile.from_pole_orders(b)
            for structure in structures:
                for seed in range(3):
                    yield profile, realize_residues(structure, seed)
            rng = random.Random(sum(v << (4 * k) for k, v in enumerate(b)))
            for _ in range(3):
                head = [_gaussian(rng) for _ in range(n - 1)]
                yield profile, ResidueTuple((*head, -sum(head, gr(0))))
            if n == 3:
                r = _gaussian(rng)
                for zero_at in range(3):
                    values = [r, -r]
                    values.insert(zero_at, gr(0))
                    yield profile, ResidueTuple(tuple(values))


# SHA-256 over (b, rho, count or exception name, warning categories) on the
# corpus above, recorded from the Q(i) implementation (Euclid over Gaussian
# rationals with reduced rational functions) before the move to Z[i].
CORPUS_DIGEST = "fe318becda5ac9001175b6fbe9e52d73a1faccadaa60ef385d81f5f1903aa2a8"


def test_corpus_digest():
    digest = hashlib.sha256()
    count = 0
    for profile, rho in _corpus():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcome = str(oracle_count(profile, rho))
            except Exception as exc:
                outcome = type(exc).__name__
        categories = sorted({w.category.__name__ for w in caught})
        line = f"{profile.b} {[str(v) for v in rho.values]} {outcome} {categories}\n"
        digest.update(line.encode())
        count += 1
    assert count == 2430
    assert digest.hexdigest() == CORPUS_DIGEST


def _rationals():
    return st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000))


@st.composite
def three_residues(draw):
    z = gi(draw(_rationals()), draw(_rationals()))
    w = gi(draw(_rationals()), draw(_rationals()))
    kind = draw(st.sampled_from(["generic", "zero-sum pair", "conjugate pair"]))
    if kind == "generic":
        values = (z, w, -z - w)
    elif kind == "zero-sum pair":
        values = (z, -z, gr(0))
    else:
        values = (z, z.conjugate(), -z - z.conjugate())
    return ResidueTuple(draw(st.sampled_from(list(permutations(values)))))


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)).filter(
        lambda b: sum(b) <= 10
    ),
    three_residues(),
)
def test_matches_closed_form_on_random_residues(b, rho):
    profile = OrderProfile.from_pole_orders(b)
    expected = count_closed_form(profile, vanishing_subsets(rho)).total
    assert oracle_count(profile, rho) == expected
