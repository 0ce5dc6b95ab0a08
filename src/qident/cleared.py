"""Integer factored-denominator values for the identity chain and the series.

With x = 1/q, every value on the ANZ1-3 derivation chain -- the
enumeration sides, the first-column terms and their sums, the closed sums
and their hypergeometric rewrites -- and every coefficient of the marginal
and normalization series has the form

    x^s * N(x) * prod_j (1 - x^j)^(-e_j)

with N an integer polynomial and integer exponents e_j: a positive e_j is a
denominator factor, a negative one a numerator factor kept unexpanded.  A
``Cleared`` value stores exactly that (the shift s, the coefficient tuple
of N, ascending, with nonzero ends, and the sorted nonzero (j, e_j) pairs)
and its arithmetic never takes a gcd:

* a product adds the shifts and the exponents; the product of two N lists
  is a shifted add of one list's multiples of the other;
* division is allowed only by a unit, +-x^t times a product of factors
  (1 - x^j) -- (x^2;x^2)_n, 1 +- x^j and q + 1 are units -- and negates its
  exponents; dividing by anything else raises ArithmeticError;
* a sum groups its terms by exponent vector, adds each group's shifted N
  lists and expands each group once to the common denominator (the largest
  exponent per j), then adds the expanded lists; multiplying by (1 - x^j)
  is a shift and a subtract, and one shifted add serves every sum;
* equality expands both sides to one common denominator and compares the
  integer lists.

A result whose N has exactly two nonzero coefficients, both +-1, is a unit
and is stored factored: 1 - x^d as the factor itself, 1 + x^d as
(1 - x^2d) / (1 - x^d).  So 1 - q^k, q + 1 and (a; p)_n for monomial a and
p built by ordinary arithmetic stay divisors.

Mixed arithmetic with a RationalFunction, a Fraction or a Polynomial falls
back to the canonical RationalFunction (``to_rational``); ints stay in the
kernel.  ``str`` is the canonical RationalFunction string and ``evaluate``
is exact, so reports and numeric replays read the same as on
RationalFunction.  ``identities``, ``distributions`` and
``partitions.kernel_weight`` compute on this type, partly through the
``qseries`` engine, whose one loop ends here in a division by a unit; the
2phi1 sweeps, on rational parameters, run that loop on integer pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import Polynomial, RationalFunction

_RATIONAL = (RationalFunction, Fraction, Polynomial)


def _times_one_minus(a: list, j: int) -> list:
    """The integer list a(x) * (1 - x^j)."""
    out = a + [0] * j
    out[j:] = [u - v for u, v in zip(out[j:], a)]
    return out


def _add_at(parts) -> tuple[int, list]:
    """The sum of x^s * num(x) over the (s, num) pairs in ``parts`` as
    (low, list): x^low times the dense integer list, low the least s."""
    if len(parts) == 1:
        s, num = parts[0]
        return s, list(num)
    low = min(s for s, _ in parts)
    out = [0] * (max(s + len(num) for s, num in parts) - low)
    for s, num in parts:
        i = s - low
        out[i:i + len(num)] = [a + b for a, b in zip(out[i:i + len(num)], num)]
    return low, out


def _exps(pairs) -> tuple:
    """Exponent vector as sorted nonzero (j, e_j) pairs."""
    return tuple(sorted((j, e) for j, e in pairs if e))


def _merge(a: tuple, b: tuple) -> tuple:
    if not b:
        return a
    if not a:
        return b
    total = dict(a)
    for j, e in b:
        total[j] = total.get(j, 0) + e
    return _exps(total.items())


def _common(vectors) -> dict:
    """The common denominator of values with these exponent vectors: the
    largest e_j per j, where a vector without j counts as e_j = 0."""
    target: dict[int, int] = {}
    seen: dict[int, int] = {}
    for exps in vectors:
        for j, e in exps:
            if j not in target or e > target[j]:
                target[j] = e
            seen[j] = seen.get(j, 0) + 1
    for j, count in seen.items():
        if count < len(vectors) and target[j] < 0:
            target[j] = 0
    return target


def _expand(num: list, exps: tuple, target: dict) -> list:
    """num times prod_j (1 - x^j)^(target_j - e_j): the numerator over the
    denominator ``target``, which must contain every factor of ``exps``."""
    have = dict(exps)
    for j in target.keys() | have.keys():
        missing = target.get(j, 0) - have.get(j, 0)
        if missing < 0:
            raise ArithmeticError(f"denominator lacks (1 - x^{j})^{-missing}")
        for _ in range(missing):
            num = _times_one_minus(num, j)
    return num


def _make(shift: int, num: list, exps: tuple) -> "Cleared":
    """Normalize: strip zero ends into the shift, store a two-term +-1
    numerator as its unit factors."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return ZERO
    low = 0
    while not num[low]:
        low += 1
    if low:
        num = num[low:]
        shift += low
    d = len(num) - 1
    if d and num[0] in (1, -1) and num[-1] in (1, -1) and not any(num[1:-1]):
        if num[-1] == num[0]:  # 1 + x^d = (1 - x^2d) / (1 - x^d)
            exps = _merge(exps, ((d, 1), (2 * d, -1)))
        else:
            exps = _merge(exps, ((d, -1),))
        num = num[:1]
    return Cleared._raw(shift, tuple(num), exps)


def _sum(values) -> "Cleared":
    groups: dict[tuple, list] = {}
    for v in values:
        if v.num:
            groups.setdefault(v.exps, []).append((v.shift, v.num))
    parts = []
    for exps, group in groups.items():
        low, num = _add_at(group)
        if any(num):
            parts.append((exps, low, num))
    if not parts:
        return ZERO
    if len(parts) == 1:
        return _make(parts[0][1], parts[0][2], parts[0][0])
    target = _common([exps for exps, _, _ in parts])
    low, total = _add_at([(low, _expand(num, exps, target)) for exps, low, num in parts])
    return _make(low, total, _exps(target.items()))


def _lift(value):
    """A kernel value, an int or an integral Fraction as a kernel constant,
    else None."""
    if isinstance(value, Cleared):
        return value
    if isinstance(value, int):
        return Cleared._raw(0, (value,), ()) if value else ZERO
    if isinstance(value, Fraction) and value.denominator == 1:
        return _lift(value.numerator)
    return None


class Cleared:
    """x^shift * num(x) * prod_j (1 - x^j)^(-e_j) with x = 1/q, integer
    coefficients ``num`` and exponent pairs ``exps``; see the module
    docstring for the arithmetic."""

    __slots__ = ("shift", "num", "exps")

    def __init__(self, num=(1,), shift: int = 0, exps=()):
        """``num`` is a sequence of ints (ascending powers of x); ``exps``
        maps j >= 1 to e_j (a dict or (j, e_j) pairs)."""
        pairs = exps.items() if isinstance(exps, dict) else exps
        total: dict[int, int] = {}
        for j, e in pairs:
            if j < 1:
                raise ValueError(f"factor (1 - x^{j}) needs j >= 1")
            total[j] = total.get(j, 0) + e
        num = list(num)
        if any(type(c) is not int for c in num):
            raise TypeError("coefficients must be ints")
        value = _make(shift, num, _exps(total.items()))
        self.shift, self.num, self.exps = value.shift, value.num, value.exps

    @classmethod
    def _raw(cls, shift: int, num: tuple, exps: tuple) -> "Cleared":
        self = cls.__new__(cls)
        self.shift, self.num, self.exps = shift, num, exps
        return self

    def __bool__(self):
        return bool(self.num)

    @property
    def is_unit(self) -> bool:
        """+-x^t times factors (1 - x^j): the values one may divide by."""
        return len(self.num) == 1 and self.num[0] in (1, -1)

    def to_rational(self) -> RationalFunction:
        """The canonical RationalFunction of this value."""
        if not self.num:
            return RationalFunction.zero()
        top = _expand(list(self.num), self.exps, {j: max(e, 0) for j, e in self.exps})
        bottom = _expand([1], (), {j: e for j, e in self.exps if e > 0})
        # x^s top(x) / bottom(x) = q^t rev(top)(q) / rev(bottom)(q)
        t = len(bottom) - len(top) - self.shift
        top.reverse()
        bottom.reverse()
        if t > 0:
            top = [0] * t + top
        elif t < 0:
            bottom = [0] * -t + bottom
        return RationalFunction(Polynomial(top), Polynomial(bottom))

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point q = a/b, so x = b/a, in one
        integer pass: a^d N(b/a) = sum_i c_i b^i a^(d-i) by Horner, each
        factor (1 - x^j)^(-e_j) as (a^j)^(e_j) over (a^j - b^j)^(e_j), and
        the shift as powers of a and b, giving one Fraction.  At q = 0 or
        where a denominator factor vanishes, the canonical value decides (a
        value or PoleError)."""
        point = Fraction(point)
        if not self.num:
            return Fraction(0)
        a, b = point.numerator, point.denominator
        if a:
            top, a_power = 0, 1
            for c in reversed(self.num):
                top = top * b + c * a_power
                a_power *= a
            # top / a^d is N(x); the powers of a and b still owed
            bottom, a_exp, b_exp = 1, 1 - len(self.num) - self.shift, self.shift
            for j, e in self.exps:
                factor = a**j - b**j  # a^j (1 - x^j)
                if e > 0:
                    if not factor:
                        break
                    bottom *= factor**e
                else:
                    top *= factor**-e
                a_exp += j * e
            else:
                for base, e in ((a, a_exp), (b, b_exp)):
                    if e >= 0:
                        top *= base**e
                    else:
                        bottom *= base**-e
                return Fraction(top, bottom)
        return self.to_rational().evaluate(point)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = _lift(other)
        if o is None:
            return self.to_rational() + other if isinstance(other, _RATIONAL) else NotImplemented
        return _sum((self, o))

    __radd__ = __add__

    def __neg__(self):
        return Cleared._raw(self.shift, tuple([-c for c in self.num]), self.exps)

    def __sub__(self, other):
        o = _lift(other)
        if o is None:
            return self.to_rational() - other if isinstance(other, _RATIONAL) else NotImplemented
        return _sum((self, -o))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = _lift(other)
        if o is None:
            return self.to_rational() * other if isinstance(other, _RATIONAL) else NotImplemented
        a, b = self.num, o.num
        if not a or not b:
            return ZERO
        shift, exps = self.shift + o.shift, _merge(self.exps, o.exps)
        if len(a) == 1 or len(b) == 1:
            c, rest = (a[0], b) if len(a) == 1 else (b[0], a)
            num = rest if c == 1 else tuple([c * v for v in rest])
            return Cleared._raw(shift, num, exps)
        low, num = _add_at([(i, [u * v for v in b]) for i, u in enumerate(a) if u])
        return _make(shift + low, num, exps)

    __rmul__ = __mul__

    def reciprocal(self) -> "Cleared":
        """1/self for a unit; ArithmeticError for any other value."""
        if not self.num:
            raise ZeroDivisionError("reciprocal of zero")
        if not self.is_unit:
            raise ArithmeticError(f"division by the non-unit {self!r}")
        return Cleared._raw(-self.shift, self.num, tuple([(j, -e) for j, e in self.exps]))

    def __truediv__(self, other):
        o = _lift(other)
        if o is None:
            return self.to_rational() / other if isinstance(other, _RATIONAL) else NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = _lift(other)
        if o is None:
            return other / self.to_rational() if isinstance(other, _RATIONAL) else NotImplemented
        return o * self.reciprocal()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self if e >= 0 else self.reciprocal()
        result = ONE
        for _ in range(abs(e)):
            result = result * base
        return result

    def __eq__(self, other):
        o = _lift(other)
        if o is None:
            return self.to_rational() == other if isinstance(other, _RATIONAL) else NotImplemented
        if self.exps == o.exps:
            return self.shift == o.shift and self.num == o.num
        if not self.num or not o.num or self.shift != o.shift:
            return False
        target = _common((self.exps, o.exps))
        return _expand(list(self.num), self.exps, target) == _expand(
            list(o.num), o.exps, target
        )

    def __hash__(self):
        return hash(self.to_rational())

    def __repr__(self):
        return f"Cleared({list(self.num)!r}, shift={self.shift}, exps={dict(self.exps)!r})"

    def __str__(self):
        return str(self.to_rational())


ZERO = Cleared._raw(0, (), ())
ONE = Cleared._raw(0, (1,), ())


def q_power(e: int) -> Cleared:
    """q^e = x^(-e) for any integer e."""
    return Cleared._raw(-e, (1,), ())


#: The generator q = 1/x.
q = q_power(1)


def pochhammer_inv_q2(n: int) -> Cleared:
    """(1/q^2; 1/q^2)_n = (x^2; x^2)_n, the numerator factors (1 - x^2j)."""
    if n < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    return Cleared._raw(0, (1,), tuple([(2 * j, -1) for j in range(1, n + 1)]))


def csum(terms):
    """Sum kernel values and ints in one pass (an empty sum is the kernel's
    zero); if any term is something else, such as a RationalFunction or a
    Fraction, the terms are added with ``sum`` instead."""
    terms = list(terms)
    lifted = [None if isinstance(t, Fraction) else _lift(t) for t in terms]
    if any(t is None for t in lifted):
        return sum(terms)
    return _sum(lifted)
