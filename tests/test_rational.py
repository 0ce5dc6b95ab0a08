"""Field arithmetic: canonical forms, hand-computed values, algebra laws."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qident.rational import (
    PoleError,
    Polynomial,
    RationalFunction,
    _prs_gcd,
    poly_gcd,
    q,
    q_power,
    rf_sum,
)


def test_addition_common_denominator():
    assert q / (q + 1) + 1 / (q + 1) == 1


def test_addition_identity_element():
    x = (q**2 + 3) / (q - 1)
    assert x + RationalFunction.zero() == x


def test_addition_hand_value():
    # 1/q + 1/q^2 = (q+1)/q^2, cross-checked at q = 2
    s = q_power(-1) + q_power(-2)
    assert s == RationalFunction(Polynomial([1, 1]), Polynomial.monomial(2))
    assert s.evaluate(2) == Fraction(3, 4)


def test_power_monomials():
    assert q_power(0) == 1
    assert q_power(-3) == 1 / q**3
    assert ((q + 1) / q) ** 2 == RationalFunction(
        Polynomial([1, 2, 1]), Polynomial.monomial(2)
    )


def test_power_negative_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        RationalFunction.zero() ** -1


def test_evaluate():
    assert q_power(-1).evaluate(2) == Fraction(1, 2)
    f = RationalFunction(Polynomial([1, -1, 1]), Polynomial.monomial(3))
    assert f.evaluate(2) == Fraction(3, 8)


def test_evaluate_pole():
    f = 1 / (q - 2)
    with pytest.raises(PoleError):
        f.evaluate(2)


def test_equality_after_cancellation():
    f = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-1, 1]))  # (q^2-1)/(q-1)
    assert f == q + 1
    assert q_power(-1) != q_power(-2)


def test_canonical_form_is_idempotent():
    # renormalizing an already-normalized value changes nothing
    f = RationalFunction(Polynomial([2, 4]), Polynomial([0, 2, 2]))
    g = RationalFunction(f.num, f.den)
    assert f.num.coeffs == g.num.coeffs and f.den.coeffs == g.den.coeffs
    assert f.den.leading == 1


def test_denominator_always_monic():
    f = RationalFunction(Polynomial([1]), Polynomial([0, 3]))  # 1/(3q)
    assert f.den == Polynomial([0, 1])
    assert f.num == Polynomial([Fraction(1, 3)])


def test_serialization_matches_canonical_layout():
    f = RationalFunction(Polynomial([1, -1, 1]), Polynomial.monomial(3))
    assert f.as_dict() == {"num": [1, -1, 1], "den": [0, 0, 0, 1]}
    assert RationalFunction.zero().as_dict() == {"num": [], "den": [1]}
    third = RationalFunction(Polynomial([Fraction(1, 3)]))
    assert third.as_dict() == {"num": ["1/3"], "den": [1]}


def test_poly_gcd_examples():
    assert poly_gcd(Polynomial([-1, 0, 1]), Polynomial([-1, 1])) == Polynomial([-1, 1])
    assert poly_gcd(Polynomial.zero(), Polynomial([0, 2])) == Polynomial([0, 1])
    a = Polynomial([1, 2, 1]) * Polynomial([3, 1])
    b = Polynomial([1, 1]) * Polynomial([5])
    assert poly_gcd(a, b) == Polynomial([1, 1])


def test_rf_sum_matches_binary_addition():
    terms = [q_power(-t) for t in range(6)] + [1 / (q + 1), (q - 1) / (q**2 + 1)]
    acc = RationalFunction.zero()
    for t in terms:
        acc = acc + t
    assert rf_sum(terms) == acc
    assert rf_sum([]) == 0


def test_divmod_roundtrip():
    a = Polynomial([3, 0, 1, 2])
    b = Polynomial([1, 1])
    quot, rem = divmod(a, b)
    assert quot * b + rem == a
    assert rem.degree < b.degree


# --- algebra laws on randomly generated small elements ---------------------

small_polys = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=0, max_size=4
).map(Polynomial)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)
rationals = st.builds(RationalFunction, small_polys, nonzero_polys)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(rationals)
def test_additive_and_multiplicative_inverses(a):
    assert a + (-a) == 0
    if not a.is_zero:
        assert a * a.reciprocal() == 1
        assert a / a == 1


@given(rationals, rationals, st.integers(min_value=-3, max_value=3))
def test_evaluation_is_a_homomorphism(a, b, point):
    try:
        va, vb = a.evaluate(point), b.evaluate(point)
    except PoleError:
        return
    assert (a + b).evaluate(point) == va + vb
    assert (a - b).evaluate(point) == va - vb
    assert (a * b).evaluate(point) == va * vb
    if vb != 0 and not b.is_zero:
        assert (a / b).evaluate(point) == va / vb


def assert_reduced(f):
    assert poly_gcd(f.num, f.den) == Polynomial.one()
    assert f.den.leading == 1


@given(rationals, rationals, st.integers(min_value=-3, max_value=3))
def test_every_result_is_reduced(a, b, e):
    """Each operation builds its plain numerator and denominator, so the
    constructor alone must leave them coprime with a monic denominator."""
    results = [a + b, a - b, a * b, rf_sum([a, b, a * b])]
    if not b.is_zero:
        results.append(a / b)
    if e >= 0 or not a.is_zero:
        results.append(a**e)
    for f in results:
        assert_reduced(f)


@given(rationals)
def test_hash_consistent_with_equality(a):
    b = RationalFunction(a.num, a.den)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("value", [0, 5, -3, Fraction(1, 2), Fraction(-7, 3)])
def test_constant_hashes_as_the_number_it_equals(value):
    constant = RationalFunction(value)
    assert constant == value and hash(constant) == hash(value)
    assert len({constant, value}) == 1


# --- reference: the same operations on plain Fraction coefficient lists -----


def _ref_strip(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return _ref_strip(out)


def ref_divmod(a, b):
    rem = [Fraction(c) for c in a]
    dv = len(b) - 1
    quot = [Fraction(0)] * max(len(rem) - dv, 0)
    for k in range(len(rem) - 1, dv - 1, -1):
        f = rem[k] / Fraction(b[-1])
        quot[k - dv] = f
        for i, v in enumerate(b):
            rem[k - dv + i] -= f * Fraction(v)
    return _ref_strip(quot), _ref_strip(rem)


def ref_gcd(a, b):
    """Monic gcd by Euclid over Q, no content tricks and no shortcuts."""
    a = _ref_strip([Fraction(c) for c in a])
    b = _ref_strip([Fraction(c) for c in b])
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def assert_canonical(p):
    for c in p.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c
    assert not p.coeffs or p.coeffs[-1] != 0


mixed_coeffs = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
coeff_lists = st.lists(mixed_coeffs, max_size=6)
divisors = st.builds(
    lambda low, lead: low + [lead],
    st.lists(mixed_coeffs, max_size=4),
    st.sampled_from([1, -1, 2, -2, Fraction(1, 3)]),
)


@given(coeff_lists, coeff_lists)
def test_mul_matches_fraction_reference(a, b):
    prod = Polynomial(a) * Polynomial(b)
    assert list(prod.coeffs) == ref_mul(_ref_strip(list(a)), _ref_strip(list(b)))
    assert_canonical(prod)


@given(coeff_lists, divisors)
def test_divmod_matches_fraction_reference(a, b):
    quot, rem = divmod(Polynomial(a), Polynomial(b))
    ref_quot, ref_rem = ref_divmod(a, b)
    assert list(quot.coeffs) == ref_quot
    assert list(rem.coeffs) == ref_rem
    assert_canonical(quot)
    assert_canonical(rem)


@given(coeff_lists, coeff_lists)
def test_gcd_matches_fraction_reference(a, b):
    g = poly_gcd(Polynomial(a), Polynomial(b))
    assert list(g.coeffs) == ref_gcd(a, b)
    assert_canonical(g)


@given(coeff_lists, st.lists(mixed_coeffs, min_size=1, max_size=6))
def test_scale_and_sum_stay_canonical(a, b):
    p, r = Polynomial(a), Polynomial(b)
    assert_canonical(p)
    assert_canonical(p + r)
    assert_canonical(p.monic())
    if not r.is_zero:
        f = RationalFunction(p, r)
        assert_canonical(f.num)
        assert_canonical(f.den)


def test_integral_values_are_stored_as_int():
    p = Polynomial([Fraction(4, 2), Fraction(1, 3), 0.5, True])
    assert p.coeffs == (2, Fraction(1, 3), Fraction(1, 2), 1)
    assert [type(c) for c in p.coeffs] == [int, Fraction, Fraction, int]
    assert Polynomial([3, 0, 6]).scale(Fraction(1, 3)).coeffs == (1, 0, 2)
    assert type(Polynomial([Fraction(1, 2)]).scale(2).coeffs[0]) is int


# --- closed-form gcd shortcuts against the remainder sequence ---------------

_GENERAL = [
    Polynomial([1, 2, 1]),  # nonzero constant term
    Polynomial([0, 0, 3, -1]),  # valuation 2
    Polynomial([0, Fraction(1, 2), 0, 0, 5]),  # valuation 1
]
_MONOMIALS = [
    Polynomial([7]),
    Polynomial([Fraction(-2, 3)]),
    Polynomial.monomial(1, 4),
    Polynomial.monomial(3, Fraction(1, 5)),
    Polynomial.monomial(5, -1),
]


@pytest.mark.parametrize("mono", _MONOMIALS, ids=str)
@pytest.mark.parametrize("other", _GENERAL + _MONOMIALS, ids=str)
def test_gcd_shortcut_matches_prs(mono, other):
    expected = _prs_gcd(mono, other)
    assert poly_gcd(mono, other) == expected
    assert poly_gcd(other, mono) == expected
    assert list(expected.coeffs) == ref_gcd(mono.coeffs, other.coeffs)
    low = next(d for d, c in enumerate(other.coeffs) if c)
    assert expected == Polynomial.monomial(min(mono.degree, low))


@pytest.mark.parametrize("p", _GENERAL + _MONOMIALS + [Polynomial.zero()], ids=str)
def test_gcd_with_zero_is_monic_other(p):
    assert poly_gcd(Polynomial.zero(), p) == p.monic()
    assert poly_gcd(p, Polynomial.zero()) == p.monic()
    assert list(poly_gcd(p, Polynomial.zero()).coeffs) == ref_gcd(p.coeffs, [])


@given(
    st.integers(min_value=0, max_value=5),
    mixed_coeffs.filter(bool),
    st.lists(mixed_coeffs, min_size=1, max_size=6).filter(any),
)
def test_monomial_gcd_matches_prs(d, c, other):
    mono, other = Polynomial.monomial(d, c), Polynomial(other)
    assert poly_gcd(mono, other) == _prs_gcd(mono, other)
    assert poly_gcd(other, mono) == _prs_gcd(other, mono)


nonzero_constants = st.one_of(
    st.integers(min_value=-5, max_value=5).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


@given(rationals, nonzero_constants)
def test_scaling_by_a_constant_matches_the_constructor(a, c):
    """The product with a nonzero int or Fraction scales the numerator only;
    it is the canonical value the reducing constructor gives."""
    expected = RationalFunction(a.num * Polynomial([c]), a.den)
    for product in (a * c, c * a):
        assert product.num.coeffs == expected.num.coeffs
        assert product.den.coeffs == expected.den.coeffs
    assert a * 0 == 0 * a == RationalFunction.zero()
