"""Exact scalar arithmetic: the falling-factorial weight and Gaussian rationals.

Everything in this package is computed over exact fields: arbitrary-precision
integers (plain ``int``), rationals (``fractions.Fraction``) and the Gaussian
rationals Q(i) implemented here.  No floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ParseError

__all__ = ["falling_f", "GaussianRational", "parse_gaussian_rational"]


def falling_f(a: int, n: int) -> int | Fraction:
    """Falling-factorial weight attached to a group of n poles with total
    order a + 2.

    For n >= 2 this is the product a(a-1)...(a-(n-3)), the empty product 1
    when n == 2.  It is computed as an explicit product rather than a
    quotient of factorials, so it is defined for every integer a including
    negative values (e.g. falling_f(-1, 5) == -6).

    The extension falling_f(a, 1) == 1/(a+1) is the weight of a semistable
    bubble (one pole, one zero); it is the only case with a non-integer
    value and callers must pair it with a matching twist factor a + 1.

    Raises ZeroDivisionError for (a, n) == (-1, 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return Fraction(1, a + 1)
    out = 1
    for j in range(n - 2):
        out *= a - j
    return out


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """An element of Q(i), held as an exact (re, im) pair of Fractions.

    Instances are immutable; all arithmetic is exact field arithmetic and
    equality is exact.  ``str()`` produces the canonical text form accepted
    by :func:`parse_gaussian_rational`.
    """

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    def _coerce(self, other) -> "GaussianRational | None":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(Fraction(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        if self.re == 0:
            return imag if self.im > 0 else f"-{imag}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"

    def __repr__(self):
        return f"GaussianRational({str(self)!r})"


def scaled_to_gaussian_integers(values) -> list[tuple[int, int]]:
    """The values times the lcm of every denominator of their real and
    imaginary parts, as (re, im) int pairs: Gaussian integers with the same
    ratios and the same vanishing sums."""
    scale = lcm(*(x.denominator for v in values for x in (v.re, v.im)))
    return [(int(v.re * scale), int(v.im * scale)) for v in values]


_RAT = re.compile(r"[+-]?\d+(?:/\d+)?")


def _rat_value(token: str) -> Fraction:
    # Fraction raises ZeroDivisionError itself on a zero denominator.
    if "/" in token:
        num, den = token.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def parse_gaussian_rational(text: str) -> GaussianRational:
    """Parse the canonical Gaussian-rational text form.

    Accepted shapes: ``<rat>``, ``<rat>i``, ``<rat>+<rat>i``, ``<rat>-<rat>i``
    where ``<rat>`` is an optionally signed integer or ``p/q``, plus the bare
    imaginary units ``i``, ``+i``, ``-i`` (also after a real part).

    Raises ParseError (with position) on malformed input and
    ZeroDivisionError on a zero denominator.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty input", 0)
    if s in ("i", "+i"):
        return GaussianRational(Fraction(0), Fraction(1))
    if s == "-i":
        return GaussianRational(Fraction(0), Fraction(-1))
    m = _RAT.match(s)
    if m is None:
        raise ParseError("expected a rational number", 0)
    first = _rat_value(m.group())
    rest = s[m.end():]
    if rest == "":
        return GaussianRational(first)
    if rest == "i":
        return GaussianRational(Fraction(0), first)
    if rest[0] not in "+-":
        raise ParseError("expected '+', '-' or 'i'", m.end())
    if rest in ("+i", "-i"):
        return GaussianRational(first, Fraction(1 if rest == "+i" else -1))
    m2 = _RAT.match(rest)
    if m2 is None:
        raise ParseError("expected an imaginary part", m.end())
    if s[m.end() + m2.end():] != "i":
        raise ParseError("expected trailing 'i'", m.end() + m2.end())
    return GaussianRational(first, _rat_value(m2.group()))
