"""Ground truth for three poles by exact symbolic elimination, plus the
bridge from fixed-point multipliers of polynomial maps.

With the zero at infinity and poles pinned at 0, 1 and an unknown p, the
residues become exact rational functions of p.  Prescribing a residue tuple
gives two polynomial conditions on p; the number of distinct roots of their
gcd (away from the degenerate positions 0 and 1) literally counts the
differentials, with no input from the closed formula.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .counting import count_closed_form
from .errors import (
    DegenerateInput,
    InexactDivision,
    IndexConstraintViolated,
    ParabolicMultiplier,
    TransversalityWarning,
)
from .exactarith import GaussianRational
from .profiles import OrderProfile, ResidueTuple, vanishing_subsets

__all__ = [
    "Poly",
    "RatFunc",
    "residue_functions",
    "oracle_count",
    "multipliers_to_residues",
    "count_polynomials_with_multipliers",
]

_ZERO = GaussianRational(Fraction(0))
_ONE = GaussianRational(Fraction(1))


class Poly:
    """Dense univariate polynomial over Q(i), ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [c if isinstance(c, GaussianRational) else GaussianRational(Fraction(c)) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls([value])

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
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Poly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly([_ONE])
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __divmod__(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        lead = den[-1]
        quot = [_ZERO] * max(len(rem) - len(den) + 1, 0)
        for shift in range(len(rem) - len(den), -1, -1):
            c = rem[shift + len(den) - 1] / lead
            if c:
                quot[shift] = c
                for i, d in enumerate(den):
                    rem[shift + i] = rem[shift + i] - c * d
        return Poly(quot), Poly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __call__(self, value: GaussianRational) -> GaussianRational:
        out = _ZERO
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def derivative(self) -> "Poly":
        return Poly([c * k for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == _ONE:
            return self
        return Poly([c / lead for c in self.coeffs])

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        while b:
            a, b = b, a % b
        return a.monic()

    def squarefree_part(self) -> "Poly":
        """Quotient by the gcd with the derivative: same roots, all simple."""
        if self.degree < 1:
            return self.monic()
        g = Poly.gcd(self, self.derivative())
        q, r = divmod(self, g)
        if r:
            raise InexactDivision(f"{g!r} does not divide {self!r}")
        return q.monic()

    def __repr__(self):
        if not self.coeffs:
            return "Poly('0')"
        parts = [f"({c})*p^{k}" for k, c in enumerate(self.coeffs) if c]
        return f"Poly({' + '.join(parts)!r})"


@dataclass(frozen=True, slots=True)
class RatFunc:
    """Reduced rational function in the unknown pole position, with a monic
    denominator so equal functions compare equal componentwise."""

    num: Poly
    den: Poly

    @classmethod
    def make(cls, num: Poly, den: Poly) -> "RatFunc":
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return cls(Poly(), Poly([_ONE]))
        g = Poly.gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lead = den.coeffs[-1]
        if lead != _ONE:
            num = num * (_ONE / lead)
            den = den * (_ONE / lead)
        return cls(num, den)

    def __add__(self, other):
        return RatFunc.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RatFunc.make(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RatFunc.make(self.num * other, self.den)
        return RatFunc.make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.num)


# Bivariate scratch arithmetic: polynomials in z whose coefficients are
# polynomials in p, held as plain tuples (ascending in z).

def _zp_mul(a, b):
    out = [Poly()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
    return tuple(out)


def _zp_pow(a, k: int):
    out = (Poly([_ONE]),)
    for _ in range(k):
        out = _zp_mul(out, a)
    return out


def _zp_dz(a):
    return tuple(c * k for k, c in enumerate(a))[1:] or (Poly(),)


def _zp_eval(a, at: Poly) -> Poly:
    out = Poly()
    for c in reversed(a):
        out = out * at + c
    return out


@lru_cache(maxsize=None)
def residue_functions(profile: OrderProfile) -> tuple[RatFunc, RatFunc, RatFunc]:
    """Residues at the poles 0, 1 and p of the normalized differential
    dz / (z^b1 (z-1)^b2 (z-p)^b3), as exact rational functions of p.

    The three functions sum to zero identically.
    """
    if profile.n != 3:
        raise ValueError("residue functions are implemented for three poles")
    p = Poly.variable()
    positions = (Poly(), Poly([_ONE]), p)
    linear = tuple((-(pos), Poly([_ONE])) for pos in positions)  # z - position

    out = []
    for k in range(3):
        order = profile.b[k]
        complement = (Poly([_ONE]),)
        for j in range(3):
            if j != k:
                complement = _zp_mul(complement, _zp_pow(linear[j], profile.b[j]))
        # (d/dz)^m (1/g) == u_m / g^(m+1) with u_0 = 1 and
        # u_{m+1} = u_m' g - (m+1) u_m g'.
        u = (Poly([_ONE]),)
        g_dz = _zp_dz(complement)
        for m in range(order - 1):
            left = _zp_mul(_zp_dz(u), complement)
            right = tuple(c * (m + 1) for c in _zp_mul(u, g_dz))
            width = max(len(left), len(right))
            left += (Poly(),) * (width - len(left))
            right += (Poly(),) * (width - len(right))
            u = tuple(a - b for a, b in zip(left, right))
        num = _zp_eval(u, positions[k])
        den = Poly([factorial(order - 1)]) * _zp_eval(complement, positions[k]) ** order
        out.append(RatFunc.make(num, den))
    return tuple(out)


def oracle_count(profile: OrderProfile, residues: ResidueTuple) -> int:
    """Count differentials directly, with no use of the closed formula.

    For two poles the normalization is rigid and the count is 1.  For three
    poles the residue proportionality conditions are eliminated to a single
    polynomial in the unknown pole position; factors at the degenerate
    positions 0 and 1 are stripped and the distinct remaining roots are
    counted as the degree of the squarefree part.  A repeated root triggers
    a TransversalityWarning but is still counted once.
    """
    if profile.n not in (2, 3):
        raise ValueError("the elimination oracle handles two or three poles")
    if residues.n != profile.n:
        raise ValueError("profile and residues disagree on the pole count")
    if residues.is_zero():
        raise DegenerateInput("the zero residue tuple admits no differential")
    if profile.n == 2:
        return 1

    funcs = residue_functions(profile)
    values = residues.values
    anchor = next(i for i in range(3) if values[i])
    elim = []
    for j in range(3):
        if j == anchor:
            continue
        diff = funcs[anchor] * values[j] - funcs[j] * values[anchor]
        if not diff:
            raise DegenerateInput(
                "residue proportionality is identically satisfied; "
                "the configuration is not rigid"
            )
        elim.append(diff.num)
    g = Poly.gcd(elim[0], elim[1])
    for root in (Poly.variable(), Poly([-_ONE, _ONE])):  # p and p - 1
        while g.degree > 0:
            q, r = divmod(g, root)
            if r:
                break
            g = q
    squarefree = g.squarefree_part()
    if squarefree.degree < g.degree:
        warnings.warn(
            "elimination polynomial has a repeated root; counting distinct roots",
            TransversalityWarning,
            stacklevel=2,
        )
    return max(squarefree.degree, 0)


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
