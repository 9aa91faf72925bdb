"""Ground truth for three poles by exact symbolic elimination, plus the
bridge from fixed-point multipliers of polynomial maps.

With the zero at infinity and poles pinned at 0, 1 and an unknown p, the
residues become exact rational functions of p.  Prescribing a residue tuple
asks the residues to be proportional to it; as both sum to zero, one
proportionality condition implies the other, and the distinct roots of that
one polynomial g away from the degenerate positions 0 and 1, counted as
deg g - deg gcd(g, g'), literally count the differentials, with no input from
the closed formula.  All of it runs over Z[i][p], with no division in Q(i).

Of the work that builds g, only two scalar products depend on the residue
tuple; the polynomial products they scale are built once per (profile,
anchor).  The factor p is stripped from g by dropping its zero constant
coefficients, and p - 1 by synthetic division for as long as the
coefficients sum to zero.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd

from .counting import count_closed_form
from .errors import (
    DegenerateInput,
    IndexConstraintViolated,
    ParabolicMultiplier,
    TransversalityWarning,
)
from .exactarith import GaussianRational
from .profiles import OrderProfile, ResidueTuple, vanishing_subsets

__all__ = [
    "Poly",
    "residue_functions",
    "oracle_count",
    "multipliers_to_residues",
    "count_polynomials_with_multipliers",
]

_ZERO = GaussianRational(Fraction(0))
_ONE = GaussianRational(Fraction(1))


class Poly:
    """Dense univariate polynomial over the Gaussian integers Z[i].

    Coefficients are ascending (re, im) int pairs; an int c given to the
    constructor or as a scalar factor stands for (c, 0).  The constructor
    normalizes what it is given; the operations build their results in
    normal form already (Z[i] has no zero divisors, so only a sum or a
    remainder can end in (0, 0)) and skip it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [(c, 0) if isinstance(c, int) else c for c in coeffs]
        while coeffs and coeffs[-1] == (0, 0):
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def variable(cls) -> "Poly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, (re, im) in enumerate(b):
            ar, ai = out[i]
            out[i] = (ar + re, ai + im)
        return _trimmed(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _wrap(tuple([(-re, -im) for re, im in self.coeffs]))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            sr, si = (other, 0) if isinstance(other, int) else other
            if not (sr or si):
                return _wrap(())
            return _wrap(tuple([(re * sr - im * si, re * si + im * sr) for re, im in self.coeffs]))
        if not self.coeffs or not other.coeffs:
            return _wrap(())
        size = len(self.coeffs) + len(other.coeffs) - 1
        out_re, out_im = [0] * size, [0] * size
        for i, (ar, ai) in enumerate(self.coeffs):
            for k, (br, bi) in enumerate(other.coeffs, start=i):
                out_re[k] += ar * br - ai * bi
                out_im[k] += ar * bi + ai * br
        return _wrap(tuple(zip(out_re, out_im)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def derivative(self) -> "Poly":
        return _wrap(tuple([(k * re, k * im) for k, (re, im) in enumerate(self.coeffs) if k]))

    def pseudo_divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """(q, r) with lead**k * self == q * other + r and deg r < deg other,
        where lead is the leading coefficient of other and
        k = max(deg self - deg other + 1, 0).  A plain divmod when other is
        monic."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs[:-1]
        lr, li = other.coeffs[-1]
        monic = (lr, li) == (1, 0)
        quot = [(0, 0)] * max(len(rem) - len(den), 0)
        for shift in range(len(rem) - len(den) - 1, -1, -1):
            cr, ci = rem.pop()
            if not monic:
                rem = [(lr * re - li * im, lr * im + li * re) for re, im in rem]
                quot = [(lr * re - li * im, lr * im + li * re) for re, im in quot]
            quot[shift] = (cr, ci)
            for i, (dr, di) in enumerate(den, start=shift):
                re, im = rem[i]
                rem[i] = (re - cr * dr + ci * di, im - cr * di - ci * dr)
        # The top of quot is self's leading coefficient times a power of lead.
        return _wrap(tuple(quot)), _trimmed(rem)

    def primitive(self) -> "Poly":
        """Self divided by the gcd of all its integer coefficient parts."""
        content = gcd(*(x for c in self.coeffs for x in c))
        if content <= 1:
            return self
        return _wrap(tuple([(re // content, im // content) for re, im in self.coeffs]))

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """A greatest common divisor up to a constant factor, by the
        primitive polynomial remainder sequence: pseudo-remainders with
        the integer content divided out after each step, so coefficients
        stay small and no division in Q(i) is needed."""
        while b:
            a, b = b, a.pseudo_divmod(b)[1].primitive()
        return a.primitive()

    def __repr__(self):
        if not self.coeffs:
            return "Poly('0')"
        parts = [f"({re}{im:+}i)*p^{k}" for k, (re, im) in enumerate(self.coeffs) if re or im]
        return f"Poly({' + '.join(parts)!r})"


def _wrap(coeffs: tuple) -> Poly:
    """A Poly on a coefficient tuple already in normal form: (re, im) int
    pairs, the last one nonzero."""
    poly = object.__new__(Poly)
    poly.coeffs = coeffs
    return poly


def _trimmed(coeffs: list) -> Poly:
    """A Poly on (re, im) int pairs whose top ones may have cancelled."""
    while coeffs and coeffs[-1] == (0, 0):
        coeffs.pop()
    return _wrap(tuple(coeffs))


@lru_cache(maxsize=None)
def _power(base: Poly, k: int) -> Poly:
    """base ** k, shared by every profile: residue_functions raises only
    the differences of the positions 0, 1 and p (+-1, +-p, +-(p - 1))."""
    return base ** k


@lru_cache(maxsize=None)
def residue_functions(profile: OrderProfile) -> tuple[tuple[Poly, Poly], ...]:
    """Residues at the poles 0, 1 and p of the normalized differential
    dz / (z^b1 (z-1)^b2 (z-p)^b3), as unreduced (num, den) pairs of integer
    polynomials in p.  Each den is a power of p times a power of p - 1, up
    to sign.

    The residue at c_k is the coefficient of w^(b_k - 1) in the product over
    l != k of (w + c_k - c_l)^(-b_l), each factor expanded binomially as
    (w + d)^(-b) = sum_j (-1)^j C(b + j - 1, j) w^j d^(-b - j).  The three
    functions sum to zero identically.
    """
    if profile.n != 3:
        raise ValueError("residue functions are implemented for three poles")
    positions = (Poly(), Poly([1]), Poly.variable())
    out = []
    for k in range(3):
        l, m = (j for j in range(3) if j != k)
        dl, dm = positions[k] - positions[l], positions[k] - positions[m]
        bl, bm, top = profile.b[l], profile.b[m], profile.b[k] - 1
        num = Poly()
        for j in range(top + 1):
            weight = comb(bl + j - 1, j) * comb(bm + top - j - 1, top - j)
            num = num + weight * _power(dl, top - j) * _power(dm, j)
        out.append(((-1) ** top * num, _power(dl, bl + top) * _power(dm, bm + top)))
    return tuple(out)


@lru_cache(maxsize=None)
def _eliminant_pieces(profile: OrderProfile, a: int, j: int) -> tuple[Poly, Poly]:
    """num_a * den_j and num_j * den_a: the parts of the eliminant against
    poles a and j that do not depend on the residues."""
    funcs = residue_functions(profile)
    (num_a, den_a), (num_j, den_j) = funcs[a], funcs[j]
    return num_a * den_j, num_j * den_a


def _strip_degenerate(g: Poly) -> Poly:
    """g with every factor p and p - 1 divided out, stopping at degree 0:
    p by dropping zero constant coefficients, p - 1 by synthetic division
    whenever the coefficients sum to zero.  A nonzero constant neither
    vanishes at 0 nor sums to zero, so both loops stop there at the latest."""
    coeffs = g.coeffs
    low = 0
    while coeffs[low] == (0, 0):
        low += 1
    re, im = (list(part) for part in zip(*coeffs[low:]))
    while not sum(re) and not sum(im):
        # The quotient's coefficients are the suffix sums of g's, the
        # constant one left out.
        re = list(accumulate(reversed(re)))[-2::-1]
        im = list(accumulate(reversed(im)))[-2::-1]
    return _wrap(tuple(zip(re, im)))


def oracle_count(profile: OrderProfile, residues: ResidueTuple) -> int:
    """Count differentials directly, with no use of the closed formula.

    The zero residue tuple admits no differential and counts 0.  For two
    poles the normalization is rigid and the count is 1.  For three poles,
    with a the first pole of nonzero residue and j the first other pole,
    r_a rho_j = r_j rho_a clears to one polynomial g in the unknown position.
    It implies the condition at the third pole k: r_k = -r_a - r_j and
    rho_k = -rho_a - rho_j give r_a rho_k - r_k rho_a = -(r_a rho_j - r_j rho_a),
    and all denominators are +-p^i (p - 1)^l, factors stripped from g.  The
    distinct roots left count as deg g - deg gcd(g, g'); a repeated root
    triggers a TransversalityWarning but is still counted once.
    """
    if profile.n not in (2, 3):
        raise ValueError("the elimination oracle handles two or three poles")
    if residues.n != profile.n:
        raise ValueError("profile and residues disagree on the pole count")
    if residues.is_zero():
        return 0
    if profile.n == 2:
        return 1

    values = list(zip(*residues.rows))
    anchor = next(i for i in range(3) if values[i] != (0, 0))
    j = 1 if anchor == 0 else 0
    num_a_den_j, num_j_den_a = _eliminant_pieces(profile, anchor, j)
    g = num_a_den_j * values[j] - num_j_den_a * values[anchor]
    if not g:
        raise DegenerateInput(
            "residue proportionality is identically satisfied; "
            "the configuration is not rigid"
        )
    g = _strip_degenerate(g)
    # A g of degree 1 or less has no repeated root.
    repeated = Poly.gcd(g, g.derivative()).degree if g.degree > 1 else 0
    if repeated > 0:
        warnings.warn(
            "elimination polynomial has a repeated root; counting distinct roots",
            TransversalityWarning,
            stacklevel=2,
        )
    return g.degree - repeated


def multipliers_to_residues(multipliers) -> ResidueTuple:
    """Residues 1/(1 - lambda_i) of dz/(z - g(z)) at simple fixed points
    with the given multipliers.

    Raises ParabolicMultiplier when some multiplier is 1 and
    IndexConstraintViolated when the residues do not sum to zero (the
    holomorphic fixed point index constraint).
    """
    multipliers = tuple(multipliers)
    converted = []
    for k, lam in enumerate(multipliers, start=1):
        if lam == _ONE:
            raise ParabolicMultiplier(f"multiplier {k} equals 1")
        converted.append(_ONE / (_ONE - lam))
    total = _ZERO
    for r in converted:
        total = total + r
    if total:
        raise IndexConstraintViolated(
            f"residues 1/(1-lambda) sum to {total}, not zero"
        )
    return ResidueTuple(tuple(converted))


def count_polynomials_with_multipliers(multipliers) -> int:
    """Number of degree-n polynomial maps with n distinct simple fixed
    points carrying the given multipliers, counted via the residue bridge."""
    residues = multipliers_to_residues(multipliers)
    profile = OrderProfile.from_pole_orders((1,) * residues.n)
    return count_closed_form(profile, vanishing_subsets(residues)).total
