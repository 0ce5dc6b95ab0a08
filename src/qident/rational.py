"""Exact arithmetic in the rational-function field Q(q).

Q(q) is the reference route of the package: the identity chain, the series
and the sampler compute on the integer kernel (``cleared.Cleared``), and
this module is what the tests check that kernel against, the canonical
printer of every value (``str``, ``as_dict``) and the target of
``Cleared.to_rational``.  Its arithmetic is the textbook one: each operation
forms the plain numerator and denominator, and ``RationalFunction`` alone
cancels their gcd and makes the denominator monic.

A Polynomial is a dense tuple of coefficients indexed by degree (ascending,
no trailing zeros; the zero polynomial is the empty tuple).  A coefficient
is stored as an ``int`` when it is integral and as a ``Fraction`` otherwise,
never as a float.
A RationalFunction is a coprime numerator/denominator pair with monic
denominator.  Both representations are canonical, so mathematical equality
is structural equality -- which is what makes ``==`` a sound identity check.

Negative powers of q are ordinary rational functions (``q_power(-3)`` has
numerator 1 and denominator q^3); there is no separate Laurent type, since
many of the values handled here (1/(q+1), Pochhammer ratios) are not
Laurent polynomials anyway.

All values are immutable after construction and safe to share between
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


def _strip(coeffs: list) -> tuple:
    """Drop trailing zeros and store each integral coefficient as an int."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(
        [c if type(c) is int or c.denominator != 1 else c.numerator for c in coeffs]
    )


class Polynomial:
    """Dense univariate polynomial over the rationals.

    ``coeffs[d]`` is the coefficient of q^d: an ``int`` when integral, else a
    ``Fraction`` with denominator > 1.  The top coefficient is nonzero unless
    the polynomial is zero (empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs = _strip([c if type(c) is int else Fraction(c) for c in coeffs])

    @classmethod
    def zero(cls) -> "Polynomial":
        return _P_ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _P_ONE

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def scale(self, c: Scalar) -> "Polynomial":
        if type(c) is not int:
            c = Fraction(c)
        if not c:
            return _P_ZERO
        out = Polynomial.__new__(Polynomial)
        out.coeffs = _strip([v * c for v in self.coeffs])
        return out

    def monic(self) -> "Polynomial":
        if self.is_zero or self.leading == 1:
            return self
        return self.scale(Fraction(1, self.leading))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        res = Polynomial.__new__(Polynomial)
        res.coeffs = _strip(out)
        return res

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.coeffs = tuple(-v for v in self.coeffs)
        return out

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        res = Polynomial.__new__(Polynomial)
        res.coeffs = _strip(out)
        return res

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power; use RationalFunction")
        result = _P_ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Polynomial"):
        """Exact long division over the rationals."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.degree
        lead = other.leading
        # 1/lead is lead itself for a unit, which keeps integer division in int
        inv = lead if lead == 1 or lead == -1 else Fraction(1, lead)
        quot = [0] * max(len(rem) - dv, 0)
        for k in range(len(rem) - 1, dv - 1, -1):
            c = rem[k]
            if not c:
                continue
            f = c * inv
            quot[k - dv] = f
            for i, v in enumerate(other.coeffs):
                rem[k - dv + i] -= f * v
        q = Polynomial.__new__(Polynomial)
        q.coeffs = _strip(quot)
        r = Polynomial.__new__(Polynomial)
        r.coeffs = _strip(rem)
        return q, r

    def evaluate(self, point: Scalar) -> Fraction:
        point = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        pieces = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            if d == 0:
                term = str(abs(c))
            else:
                mag = abs(c)
                base = "q" if d == 1 else f"q^{d}"
                term = base if mag == 1 else f"{mag}*{base}"
            if not pieces:
                pieces.append(term if c > 0 else f"-{term}")
            else:
                pieces.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(pieces)


_P_ZERO = Polynomial()
_P_ONE = Polynomial((1,))


def _primitive_ints(p: Polynomial) -> list[int]:
    """Integer coefficient list of a scalar multiple of p, with content 1."""
    lcm = math.lcm(*[c.denominator for c in p.coeffs])
    ints = [c.numerator * (lcm // c.denominator) for c in p.coeffs]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _int_prem(u: list[int], v: list[int]) -> list[int]:
    """Pseudo-remainder of u by v over the integers (v nonzero): the
    remainder of u by v times a nonzero integer.  A step scales the partial
    remainder by v's leading coefficient only when the leading term is not
    already a multiple of it, so a unit leading coefficient never scales."""
    n = len(v) - 1
    lv = v[-1]
    r = list(u)
    while len(r) - 1 >= n:
        c = r[-1]
        f, rest = divmod(c, lv)
        if rest:
            r = [x * lv for x in r]
            f = c
        d = len(r) - 1 - n
        r[d:] = [x - f * y for x, y in zip(r[d:], v)]
        r.pop()  # leading term cancels exactly
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor in Q[q]; gcd(0, 0) is 0."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    return _prs_gcd(a, b)


def _prs_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of nonzero a and b by a primitive remainder sequence.

    The sequence runs over the integers (denominators cleared, integer
    content stripped each step), which gives the same remainder sequence as
    rational-coefficient Euclid up to units while keeping coefficient growth
    in check.
    """
    u = _primitive_ints(a)
    v = _primitive_ints(b)
    if len(u) < len(v):
        u, v = v, u
    while v:
        r = _int_prem(u, v)
        g = math.gcd(*r)
        if g > 1:
            r = [x // g for x in r]
        u, v = v, r
    lead = u[-1]
    return Polynomial(Fraction(c, lead) for c in u)


def _exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    quot, rem = divmod(a, b)
    if not rem.is_zero:
        raise ArithmeticError("inexact polynomial division")
    return quot


class RationalFunction:
    """Element of Q(q) in canonical form: coprime parts, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = _P_ONE if den is None else _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num, self.den = _P_ZERO, _P_ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = _exact_div(num, g)
            den = _exact_div(den, g)
        lead = den.leading
        if lead != 1:
            inv = Fraction(1, lead)
            num = num.scale(inv)
            den = den.scale(inv)
        self.num, self.den = num, den

    @classmethod
    def zero(cls) -> "RationalFunction":
        return RF_ZERO

    @classmethod
    def one(cls) -> "RationalFunction":
        return RF_ONE

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other + (-self)

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out.num, out.den = -self.num, self.den
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and other:
            # a nonzero constant keeps the parts coprime and the denominator monic
            out = RationalFunction.__new__(RationalFunction)
            out.num, out.den = self.num.scale(other), self.den
            return out
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other * self.reciprocal()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return RF_ONE
        if e < 0:
            if self.is_zero:
                raise ZeroDivisionError("zero base with negative exponent")
            return RationalFunction(self.den ** -e, self.num ** -e)
        return RationalFunction(self.num ** e, self.den ** e)

    def evaluate(self, point: Scalar) -> Fraction:
        """Exact value at a rational point; raises PoleError on a pole."""
        dval = self.den.evaluate(point)
        if not dval:
            raise PoleError(f"pole at q = {Fraction(point)}")
        return self.num.evaluate(point) / dval

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes as its int or Fraction, which compare equal to it
        if self.den.coeffs == (1,) and len(self.num.coeffs) <= 1:
            return hash(self.num.coeffs[0] if self.num.coeffs else 0)
        return hash((self.num.coeffs, self.den.coeffs))

    def as_dict(self) -> dict:
        """Canonical serialization: coefficient lists in ascending degree."""
        return {"num": _coeff_list(self.num), "den": _coeff_list(self.den)}

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den == _P_ONE:
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if len(self.num.coeffs) - self.num.coeffs.count(0) > 1:
            num = f"({num})"
        if len(self.den.coeffs) - self.den.coeffs.count(0) > 1:
            den = f"({den})"
        return f"{num}/{den}"


def _coeff_list(p: Polynomial) -> list:
    return [c if type(c) is int else f"{c.numerator}/{c.denominator}" for c in p.coeffs]


def _as_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def _coerce(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction, Polynomial)):
        return RationalFunction(_as_poly(value))
    # a value of another representation of Q(q), e.g. cleared.Cleared
    to_rational = getattr(value, "to_rational", None)
    if to_rational is not None:
        return to_rational()
    return NotImplemented


def as_rational(value) -> RationalFunction:
    """Coerce an int, Fraction or Polynomial into the field."""
    rf = _coerce(value)
    if rf is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a rational function")
    return rf


RF_ZERO = RationalFunction(_P_ZERO)
RF_ONE = RationalFunction(_P_ONE)

#: The distinguished field generator q.
q = RationalFunction(Polynomial.monomial(1))


def q_power(e: int) -> RationalFunction:
    """The monomial q^e for any integer e, negative exponents included."""
    if e >= 0:
        return RationalFunction(Polynomial.monomial(e))
    return RationalFunction(_P_ONE, Polynomial.monomial(-e))


def rf_sum(terms: Iterable[RationalFunction]) -> RationalFunction:
    """The sum of the terms, each coerced by ``as_rational``, by binary
    ``+``; an empty sum is zero."""
    return sum(map(as_rational, terms), RF_ZERO)
