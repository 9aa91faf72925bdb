from fractions import Fraction
from itertools import product

import pytest

from isoresidual.counting import count_closed_form
from isoresidual.errors import (
    DegenerateInput,
    InexactDivision,
    IndexConstraintViolated,
    ParabolicMultiplier,
)
from isoresidual.exactarith import GaussianRational
from isoresidual.oracle import (
    Poly,
    RatFunc,
    count_polynomials_with_multipliers,
    multipliers_to_residues,
    oracle_count,
    residue_functions,
)
from isoresidual.profiles import OrderProfile, ResidueTuple, vanishing_subsets


def gr(*args):
    return GaussianRational(Fraction(*args))


def gi(re, im):
    return GaussianRational(Fraction(re), Fraction(im))


def residues(*values):
    return ResidueTuple(tuple(v if isinstance(v, GaussianRational) else gr(v) for v in values))


def poly(*coeffs):
    return Poly([gr(c) if not isinstance(c, GaussianRational) else c for c in coeffs])


class TestPoly:
    def test_divmod(self):
        # (p - 1)(p + 2) = p^2 + p - 2
        q, r = divmod(poly(-2, 1, 1), poly(-1, 1))
        assert q == poly(2, 1) and not r

    def test_gcd_monic(self):
        a = poly(-2, 1) * poly(3, 1) * poly(3, 1)
        b = poly(3, 1) * poly(5, 1)
        assert Poly.gcd(a, b) == poly(3, 1)

    def test_squarefree_part(self):
        squared = poly(-2, 1) * poly(-2, 1) * poly(1, 1)
        assert squared.squarefree_part() == poly(-2, 1) * poly(1, 1)

    def test_squarefree_part_rejects_a_remainder(self, monkeypatch):
        # A typed error, not an assert: it must hold under python -O too.
        monkeypatch.setattr(Poly, "gcd", staticmethod(lambda a, b: poly(5, 1)))
        with pytest.raises(InexactDivision):
            (poly(-2, 1) * poly(-2, 1)).squarefree_part()

    def test_gaussian_coefficients(self):
        # p^2 + 1 = (p - i)(p + i)
        left = poly(gi(0, -1), gr(1))
        right = poly(gi(0, 1), gr(1))
        assert left * right == poly(1, 0, 1)

    def test_eval(self):
        assert poly(1, 2, 1)(gr(2)) == gr(9)


class TestResidueFunctions:
    def test_three_simple_poles(self):
        # dz / (z (z-1) (z-p)): partial fractions give 1/p, 1/(1-p), 1/(p(p-1))
        r0, r1, rp = residue_functions(OrderProfile(1, (1, 1, 1)))
        assert r0 == RatFunc.make(poly(1), poly(0, 1))
        assert r1 == RatFunc.make(poly(-1), poly(-1, 1))
        assert rp == RatFunc.make(poly(1), poly(0, -1, 1))

    def test_double_pole_at_moving_point(self):
        # dz / (z (z-1) (z-p)^2)
        r0, r1, rp = residue_functions(OrderProfile(2, (1, 1, 2)))
        assert r0 == RatFunc.make(poly(-1), poly(0, 0, 1))
        assert r1 == RatFunc.make(poly(1), poly(1, -2, 1))
        assert rp == RatFunc.make(poly(1, -2), poly(0, 0, 1, -2, 1))

    @pytest.mark.parametrize("b", [(1, 1, 1), (2, 1, 1), (1, 3, 2), (2, 2, 2), (4, 1, 3)])
    def test_residue_theorem(self, b):
        r0, r1, rp = residue_functions(OrderProfile.from_pole_orders(b))
        total = r0 + r1 + rp
        assert not total

    def test_requires_three_poles(self):
        with pytest.raises(ValueError):
            residue_functions(OrderProfile(0, (1, 1)))


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

    def test_zero_tuple_rejected(self):
        with pytest.raises(DegenerateInput):
            oracle_count(OrderProfile(2, (1, 1, 2)), residues(0, 0, 0))

    def test_gaussian_residues(self):
        profile = OrderProfile(2, (1, 1, 2))
        assert oracle_count(profile, residues(gi(0, 1), gi(0, -1), 0)) == 1
        assert oracle_count(profile, residues(gi(1, 1), gr(-1), gi(0, -1))) == 2

    def test_forced_zero_at_simple_pole(self):
        # residue zero at a simple pole: no differential exists and the
        # elimination polynomial degenerates to a constant
        profile = OrderProfile(1, (1, 1, 1))
        assert oracle_count(profile, residues(0, 1, -1)) == 0

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
