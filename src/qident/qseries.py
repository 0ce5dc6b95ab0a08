"""q-Pochhammer symbols, terminating 2phi1 sums, and truncated power series.

The Pochhammer convention throughout is

    (a; r)_n = (1 - a)(1 - a r) ... (1 - a r^{n-1}),    (a; r)_0 = 1,

with a and r arbitrary field elements, not just monomials of Q(q).  The
terminating 2phi1 and its evaluation/transformation identities are checked
by computing both displayed sides independently in exact arithmetic; every
terminating sum on either side is built by the one term-ratio engine
``terminating_sum``.

TruncatedSeries provides formal power series in an auxiliary variable u
with field coefficients, exact through a caller-chosen order.  It serves
as the coefficient-extraction oracle for the closed forms used by the
identity proofs (``D_EQ_B2`` checks a divided series against the
coefficient lemma, which builds the distribution marginals).  Each
coefficient of a product or a reciprocal is one ``csum`` over its products.
``reciprocal_pochhammer_series`` divides 1 by its factors 1 - c u^step
in place, one factor at a time, instead of multiplying them out
(``pochhammer_series``) and inverting the product.

Representation: the engine -- ``pochhammer``, ``terminating_sum``, the
2phi1 sums and checks, ``qbinomial_coefficient``, ``TruncatedSeries`` and
``pochhammer_series`` -- computes in the field of its arguments, with field
operations and truthiness only.  ``as_element`` is the one coercion rule at
its boundary: a ``cleared.Cleared`` (the integer kernel), a
RationalFunction or a Fraction stays as it is, an int becomes a Fraction,
and anything else goes into Q(q).  ``pochhammer`` and ``terminating_sum``
each run one loop on unreduced (numerator, denominator) pairs and divide
once at the end.  When every argument is rational (an int or a Fraction)
the pairs are ints and the end is one Fraction, so each call takes one gcd
instead of one per field operation; otherwise each argument enters as the
pair (element, 1) and the end is one field division, which on the kernel
is a division by a unit.  So the randomized 2phi1 sweeps, which draw
rational parameters, sum on integer pairs, and the identity chain and the
distribution series compute on the kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cleared import Cleared, csum
from .rational import RationalFunction, q_power
from .report import VerificationReport

#: A field element the engine computes with.
Element = Cleared | RationalFunction | Fraction

#: Seed used by all randomized parameter sweeps unless the caller overrides it.
DEFAULT_SEED = 1729


class DegenerateParameters(ValueError):
    """A parameter tuple makes a required Pochhammer denominator vanish."""


def as_element(value) -> Element:
    """The field element an argument stands for: a Cleared, RationalFunction
    or Fraction as it is, an int as a Fraction, anything else in Q(q)."""
    if isinstance(value, (Cleared, RationalFunction, Fraction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return RationalFunction(value)


def _pairs(values) -> list:
    """Each value as a (numerator, denominator) pair: its int pair when every
    value is an int or a Fraction, else (``as_element(value)``, 1)."""
    pairs = [(v.numerator, v.denominator) for v in values if isinstance(v, (int, Fraction))]
    if len(pairs) == len(values):
        return pairs
    return [(as_element(v), 1) for v in values]


def _quotient(num, den) -> Element:
    """num / den: one Fraction on ints, else a field division (on the kernel,
    by a unit)."""
    return Fraction(num, den) if isinstance(num, int) else num / den


def pochhammer(a, ratio, n: int) -> Element:
    """(a; ratio)_n, exactly, in the field of a; n = 0 gives that field's 1.
    The factors 1 - a ratio^j are multiplied as unreduced (numerator,
    denominator) pairs (``_pairs``), with ratio^j = p_n / p_d, and divided
    once, at the end: one Fraction on rational arguments, else one field
    division."""
    if n < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    (a_n, a_d), (r_n, r_d) = _pairs((a, ratio))
    num = p_n = a_n ** 0
    den = p_d = 1
    for _ in range(n):
        num *= a_d * p_d - a_n * p_n
        den *= a_d * p_d
        p_n *= r_n
        p_d *= r_d
    return _quotient(num, den)


#: lru_cache size of ``pochhammer_inv_q2``: n = 0..127 stay cached.
_POCHHAMMER_CACHE = 128


@lru_cache(maxsize=_POCHHAMMER_CACHE)
def pochhammer_inv_q2(n: int) -> RationalFunction:
    """(1/q^2; 1/q^2)_n in Q(q), the product in every partition weight
    (``cleared.pochhammer_inv_q2`` is its kernel counterpart)."""
    if n == 0:
        return q_power(0)
    return pochhammer_inv_q2(n - 1) * (1 - q_power(-2 * n))


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameters (n, b, c, q, z) of a terminating 2phi1.

    ``q`` here is the series base, itself a field element; the first upper
    parameter is always q^{-n}, which is what makes the sum terminate.
    """

    n: int
    b: Element
    c: Element
    q: Element
    z: Element

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("termination index must be nonnegative")
        for name in ("b", "c", "q", "z"):
            object.__setattr__(self, name, as_element(getattr(self, name)))


def terminating_sum(upper, lower, base, z, n: int, twist: int = 0) -> Element:
    """The terminating basic hypergeometric sum

        sum_{k=0}^{n} (a_1, ..., a_r; p)_k / ((p; p)_k (b_1, ..., b_s; p)_k)
                      * ((-1)^k p^{binom(k,2)})^twist * z^k

    with upper = (a_1, ..., a_r), lower = (b_1, ..., b_s) and base p, where
    (a_1, ..., a_r; p)_k is the product of the (a_i; p)_k.  With
    twist = 1 + s - r it is the r-phi-s series of Gasper and Rahman, *Basic
    Hypergeometric Series*, 2nd ed. (2004), section 1.2, cut off at k = n.

    Each term is the previous one times the term ratio
    prod_i (1 - a_i p^{k-1}) z ((-1) p^{k-1})^twist
    / ((1 - p^k) prod_j (1 - b_j p^{k-1})), on unreduced (numerator,
    denominator) pairs (``_pairs``): with p^{k-1} = p_n / p_d each factor
    1 - b p^{k-1} is (b_d p_d - b_n p_n) / (b_d p_d).  Term k is term / den
    and the sum through k is total / den, so a ratio r_n / r_d updates them
    as term *= r_n, den *= r_d, total = total * r_d + term, and the sum
    ends in one division.  A negative n raises ValueError, as in
    ``pochhammer``; a zero base with n > 0, or a denominator factor that
    vanishes at some k <= n, raises DegenerateParameters.
    """
    if n < 0:
        raise ValueError(f"sum length must be nonnegative, got n={n}")
    if n > 0 and not base:
        raise DegenerateParameters("series base is zero")
    (q_n, q_d), (z_n, z_d), *rest = _pairs((base, z, *upper, *lower))
    tops, bottoms = rest[:len(upper)], [(q_n, q_d), *rest[len(upper):]]
    term = total = p_n = q_n ** 0
    den = p_d = 1
    for k in range(1, n + 1):
        r_n, r_d = z_n, z_d
        for b_n, b_d in bottoms:
            factor = b_d * p_d - b_n * p_n
            if not factor:
                # an equal pair earlier in bottoms would have vanished first
                b = (base, *lower)[bottoms.index((b_n, b_d))]
                raise DegenerateParameters(f"({b}; {base})_{k} vanishes")
            r_n *= b_d * p_d
            r_d *= factor
        for a_n, a_d in tops:
            r_n *= a_d * p_d - a_n * p_n
            r_d *= a_d * p_d
        if twist > 0:
            r_n *= (-p_n) ** twist
            r_d *= p_d ** twist
        elif twist < 0:
            r_n *= p_d ** -twist
            r_d *= (-p_n) ** -twist
        term *= r_n
        den *= r_d
        total = total * r_d + term
        p_n *= q_n
        p_d *= q_d
    return _quotient(total, den)


def _terminator(base, n: int):
    """base^{-n}, the upper parameter that ends a sum at k = n; 1 when n = 0
    or the base is zero (terminating_sum refuses a zero base for n > 0)."""
    return base ** -n if n and base else 1


def _one_comparison(name: str, params: dict, sides) -> VerificationReport:
    """Report of one comparison: ``sides()`` returns (lhs, rhs) or raises
    DegenerateParameters, which is recorded as a skip."""
    report = VerificationReport(name, params=params)
    try:
        lhs, rhs = sides()
    except DegenerateParameters as exc:
        report.record_skip(dict(params), str(exc))
    else:
        report.record(dict(params), lhs, rhs)
    return report


def two_phi_one(spec: HypergeometricSpec) -> Element:
    """sum_{k=0}^{n} (q^{-n};q)_k (b;q)_k / ((q;q)_k (c;q)_k) z^k."""
    upper = (_terminator(spec.q, spec.n), spec.b)
    return terminating_sum(upper, (spec.c,), spec.q, spec.z, spec.n)


def qchu_check(n: int, b, c, qbase) -> VerificationReport:
    """Evaluation of the terminating 2phi1 at argument z = c q^n / b:
    both sides of 2phi1(q^{-n}, b; c; q, c q^n / b) = (c/b;q)_n / (c;q)_n.
    """
    b, c, qbase = as_element(b), as_element(c), as_element(qbase)

    def sides():
        if not b:
            raise DegenerateParameters("b = 0")
        denom = pochhammer(c, qbase, n)
        if not denom:
            raise DegenerateParameters(f"(c;q)_{n} vanishes")
        z = c * qbase ** n / b
        lhs = two_phi_one(HypergeometricSpec(n, b, c, qbase, z))
        return lhs, pochhammer(c / b, qbase, n) / denom

    params = {"n": n, "b": str(b), "c": str(c), "q": str(qbase)}
    return _one_comparison("qchu", params, sides)


def transform_check(spec: HypergeometricSpec) -> VerificationReport:
    """Transformation of the terminating 2phi1: compares the direct sum
    against (c/b;q)_n/(c;q)_n times the transformed sum in powers of q.
    """
    n, b, c, base = spec.n, spec.b, spec.c, spec.q

    def sides():
        lhs = two_phi_one(spec)
        if not b or not c:
            raise DegenerateParameters("b or c is zero")
        # lhs raised if a factor of (c;q)_n vanished: it divides by each
        prefactor = pochhammer(c / b, base, n) / pochhammer(c, base, n)
        a = _terminator(base, n)
        upper = (a, b, b * spec.z * a / c)
        lower = (b * base ** (1 - n) / c,)
        return lhs, prefactor * terminating_sum(upper, lower, base, base, n)

    params = {"n": n, "b": str(b), "c": str(c), "q": str(base), "z": str(spec.z)}
    return _one_comparison("transform", params, sides)


def limit_two_phi_one(n: int, c, qbase, z) -> Element:
    """The large-b limit of 2phi1(q^{-n}, b; c; q, z/b), by its exact terms:

        sum_{k=0}^{n} (q^{-n};q)_k (-1)^k q^{binom(k,2)} z^k
                      / ((q;q)_k (c;q)_k).
    """
    c, qbase, z = as_element(c), as_element(qbase), as_element(z)
    return terminating_sum((_terminator(qbase, n),), (c,), qbase, z, n, twist=1)


def limit_transform_check(n: int, c, qbase, z) -> VerificationReport:
    """Equality of the two display forms of the large-b limit:

        limit_two_phi_one(n, c, q, z)
            = 1/(c;q)_n * sum_k (q^{-n};q)_k (z q^{-n}/c;q)_k / (q;q)_k
                                * (c q^n)^k.
    """
    c, qbase, z = as_element(c), as_element(qbase), as_element(z)

    def sides():
        lhs = limit_two_phi_one(n, c, qbase, z)
        if not c:
            raise DegenerateParameters("c = 0")
        a = _terminator(qbase, n)
        upper = (a, z * a / c)
        rhs = terminating_sum(upper, (), qbase, c * qbase ** n, n)
        return lhs, rhs / pochhammer(c, qbase, n)  # nonzero, as in transform_check

    params = {"n": n, "c": str(c), "q": str(qbase), "z": str(z)}
    return _one_comparison("limit-transform", params, sides)


def qbinomial_coefficient(k: int, s: int, qbase) -> Element:
    """Coefficient of z^s in the series expansion of 1/(z; qbase)_k,
    in closed form: (qbase^k; qbase)_s / (qbase; qbase)_s.
    """
    qbase = as_element(qbase)
    den = pochhammer(qbase, qbase, s)
    if not den:
        raise DegenerateParameters(f"(q;q)_{s} vanishes")
    return pochhammer(qbase ** k, qbase, s) / den


def coeff_u_lemma(k: int, m: int) -> RationalFunction:
    """Closed form for the coefficient of u^{m-k} in 1/(u/q; 1/q^2)_k:

        (q^{-2k}; q^{-2})_{m-k} / (q^{-2}; q^{-2})_{m-k} * q^{-(m-k)},

    defined for m >= k >= 0.
    """
    if k < 0 or m < k:
        raise ValueError(f"need m >= k >= 0, got k={k}, m={m}")
    return qbinomial_coefficient(k, m - k, q_power(-2)) * q_power(k - m)


# ---------------------------------------------------------------------------
# Truncated formal power series in the auxiliary variable u
# ---------------------------------------------------------------------------

def _total(terms: list, zero) -> Element:
    """One ``csum`` over the terms, or ``zero`` (the caller's field zero)
    when there are none, so that no empty sum yields the kernel's zero."""
    return csum(terms) if terms else zero


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series in u with field coefficients (``as_element``), exact
    through u^order; products truncate above the order."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = tuple(as_element(c) for c in self.coeffs)
        if len(coeffs) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        value = as_element(value)
        return cls(order, (value,) + (value * 0,) * order)

    @classmethod
    def monomial(cls, power: int, order: int, coeff=1) -> "TruncatedSeries":
        coeff = as_element(coeff)
        coeffs = [coeff * 0] * (order + 1)
        if 0 <= power <= order:
            coeffs[power] = coeff
        return cls(order, tuple(coeffs))

    def coefficient(self, j: int) -> Element:
        if j < 0 or j > self.order:
            raise IndexError(f"coefficient u^{j} beyond truncation order {self.order}")
        return self.coeffs[j]

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        zero = a[0] * b[0] * 0
        out = [
            _total([a[i] * b[n - i] for i in range(n + 1) if a[i] and b[n - i]], zero)
            for n in range(self.order + 1)
        ]
        return TruncatedSeries(self.order, tuple(out))

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        f = self.coeffs
        inv0 = 1 / c0
        zero = c0 * 0
        out = [inv0]
        for n in range(1, self.order + 1):
            terms = [f[i] * out[n - i] for i in range(1, n + 1) if f[i] and out[n - i]]
            out.append(-inv0 * _total(terms, zero))
        return TruncatedSeries(self.order, tuple(out))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            head = "1" if j == 0 else ("u" if j == 1 else f"u^{j}")
            parts.append(f"({c})*{head}" if j else f"{c}")
        return " + ".join(parts) if parts else "0"


def pochhammer_series(a, ratio, k: int, order: int, step: int = 1) -> TruncatedSeries:
    """prod_{j=0}^{k-1} (1 - u^step * a * ratio^j) as a truncated series."""
    if step < 1:
        raise ValueError("step must be positive")
    a = as_element(a)
    ratio = as_element(ratio)
    out = one = TruncatedSeries.constant(a ** 0, order)
    coef = a
    for _ in range(k):
        out = out * (one - TruncatedSeries.monomial(step, order, coef))
        coef = coef * ratio
    return out


def reciprocal_pochhammer_series(
    a, ratio, k: int, order: int, step: int = 1
) -> TruncatedSeries:
    """prod_{j=0}^{k-1} 1/(1 - u^step * a * ratio^j), exact through u^order.

    The series starts as 1 and is divided by one factor 1 - c u^step at a
    time, c = a * ratio^j, in place: out[n] += c * out[n - step] for n
    ascending, so out[n - step] already holds the quotient.  That is about
    k * order / step multiply-adds, with zero entries skipped.
    """
    if step < 1:
        raise ValueError("step must be positive")
    a = as_element(a)
    ratio = as_element(ratio)
    one = a ** 0
    out = [one] + [one * 0] * order
    c = a
    for _ in range(k):
        for n in range(step, order + 1):
            prev = out[n - step]
            if prev:
                out[n] = out[n] + c * prev
        c = c * ratio
    return TruncatedSeries(order, tuple(out))


# ---------------------------------------------------------------------------
# Randomized parameter sweeps over the three 2phi1 identities
# ---------------------------------------------------------------------------

def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    """A rational with numerator and denominator bounded by 12."""
    while True:
        value = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        if value or not nonzero:
            return value


#: Each 2phi1 sweep: its name, its check on (n, *parameters), and whether
#: each parameter, in draw order, is drawn nonzero.  The lambdas look the
#: checks up in this module at call time, so a patched check is the one run.
_SWEEPS = (
    ("qchu", lambda n, *p: qchu_check(n, *p), (True, False, True)),
    (
        "transform",
        lambda n, *p: transform_check(HypergeometricSpec(n, *p)),
        (True, True, True, False),
    ),
    ("limit-transform", lambda n, *p: limit_transform_check(n, *p), (True, True, False)),
)


def random_hypergeometric_reports(
    n_max: int = 8, tuples_per_n: int = 20, seed: int = DEFAULT_SEED
) -> list[VerificationReport]:
    """Run the three 2phi1 checks over seeded random rational parameters.

    For each n up to n_max, parameters are drawn until ``tuples_per_n``
    non-degenerate tuples have been checked; degenerate draws (vanishing
    Pochhammer denominators) are recorded as skips.  Draw sequences are
    deterministic functions of (seed, check name, n).
    """
    reports = []
    for name, check, nonzero in _SWEEPS:
        report = VerificationReport(
            name, params={"n_max": n_max, "tuples_per_n": tuples_per_n, "seed": seed}
        )
        for n in range(n_max + 1):
            rng = random.Random(f"{seed}:{name}:{n}")
            valid = 0
            attempts = 0
            while valid < tuples_per_n:
                attempts += 1
                if attempts > 50 * tuples_per_n:
                    raise RuntimeError(f"{name}: too many degenerate draws at n={n}")
                drawn = check(n, *[random_fraction(rng, nonzero=nz) for nz in nonzero])
                report.results += drawn.results
                valid += drawn.n_checked
        reports.append(report)
    return reports
