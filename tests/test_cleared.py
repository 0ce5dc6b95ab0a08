"""The integer factored-denominator kernel against RationalFunction.

Every comparison here has an independent RationalFunction side: small
random kernel elements are rebuilt from their definition with field
arithmetic, and every public value of ``identities`` is recomputed with the
RationalFunction formulas (the enumeration side through
``partitions.summand_weight``).
"""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from qident import cleared, identities as idn, qseries, rational
from qident.cleared import ONE, ZERO, Cleared, csum
from qident.distributions import Family
from qident.partitions import (
    ParityConstraint,
    cl_numerator,
    enumerate_partitions,
    kernel_weight,
    multiplicity_factors,
    summand_weight,
    weight_exponent,
)
from qident.qseries import (
    coeff_u_lemma,
    limit_two_phi_one,
    pochhammer,
    pochhammer_inv_q2,
    reciprocal_pochhammer_series,
)
from qident.rational import PoleError, RationalFunction, q, q_power, rf_sum

POINTS = (2, 3, Fraction(5, 3))
M_SMALL = 5


def oracle(value: Cleared) -> RationalFunction:
    """x^s N(x) prod_j (1 - x^j)^(-e_j) with x = 1/q, in RationalFunction."""
    x = q_power(-1)
    num = rf_sum(c * x**i for i, c in enumerate(value.num))
    factors = [(1 - x**j) ** -e for j, e in value.exps]
    return reduce(lambda a, b: a * b, factors, num * x**value.shift)


exponents = st.dictionaries(st.integers(1, 4), st.integers(-2, 2), max_size=3)
elements = st.builds(
    Cleared,
    st.lists(st.integers(-3, 3), min_size=0, max_size=4),
    st.integers(-3, 3),
    exponents,
)
units = st.builds(
    Cleared, st.sampled_from([(1,), (-1,)]), st.integers(-3, 3), exponents
)


@settings(deadline=None)
@given(elements, elements)
def test_ring_operations_match_rational(a, b):
    ra, rb = oracle(a), oracle(b)
    assert (a + b).to_rational() == ra + rb
    assert (a - b).to_rational() == ra - rb
    assert (a * b).to_rational() == ra * rb
    assert (-a).to_rational() == -ra
    assert (a == b) == (ra == rb)
    assert (a + b == b + a) and (a * b == b * a)


@settings(deadline=None)
@given(elements, units)
def test_division_by_unit_matches_rational(a, u):
    assert (a / u).to_rational() == oracle(a) / oracle(u)
    assert (1 / u).to_rational() == 1 / oracle(u)
    assert (u**-2).to_rational() == oracle(u) ** -2
    assert a / u * u == a


@settings(deadline=None)
@given(elements, st.integers(1, 4), st.integers(1, 2))
def test_equality_across_representations(a, j, extra):
    """The same value with a factor (1 - x^j)^extra moved from the
    denominator into the expanded numerator compares equal."""
    expanded = list(a.num)
    for _ in range(extra):
        expanded = cleared._times_one_minus(expanded, j)
    exps = dict(a.exps)
    exps[j] = exps.get(j, 0) + extra
    other = Cleared(expanded, a.shift, exps)
    assert other == a
    assert other.to_rational() == a.to_rational()
    assert other + 1 != a
    if a:
        assert Cleared(expanded, a.shift + 1, exps) != a


@settings(deadline=None)
@given(elements, elements)
def test_mixed_operands_fall_back_to_rational(a, b):
    rb = oracle(b)
    third = Fraction(1, 3)
    assert a + rb == oracle(a) + rb and isinstance(a + rb, RationalFunction)
    assert rb * a == rb * oracle(a) and isinstance(rb * a, RationalFunction)
    assert a - third == oracle(a) - third
    assert third - a == third - oracle(a)
    assert a * 2 == 2 * oracle(a) and isinstance(a * 2, Cleared)
    assert (a == rb) == (oracle(a) == rb)
    assert str(a) == str(oracle(a))
    assert hash(a) == hash(oracle(a))


@settings(deadline=None)
@given(elements, st.sampled_from(POINTS + (1, -1, 0, Fraction(1, 2))))
def test_evaluate_is_exact(a, point):
    try:
        expected = oracle(a).evaluate(point)
    except PoleError:
        with pytest.raises(PoleError):
            a.evaluate(point)
    else:
        assert a.evaluate(point) == expected


OFF_POINTS = (-1, -2, Fraction(-3, 7), Fraction(11, 10), Fraction(101, 100))


@settings(deadline=None)
@given(elements, st.sampled_from(OFF_POINTS))
@example(Cleared([1, 2], 1, {2: -1, 3: 1}), -1)  # (1 - x^2) vanishes at x = -1
def test_integer_evaluate_matches_oracle_at_negative_points_and_near_one(a, point):
    try:
        expected = oracle(a).evaluate(point)
    except PoleError:
        with pytest.raises(PoleError):
            a.evaluate(point)
    else:
        assert a.evaluate(point) == expected


@pytest.mark.parametrize("point", [2, Fraction(6, 5), Fraction(11, 10), -3])
def test_kernel_weight_evaluates_as_cl_numerator(point):
    for family in Family:
        for n in range(11):
            for p in enumerate_partitions(n, family.constraint):
                expected = cl_numerator(p, family.sign)[0].evaluate(point)
                assert kernel_weight(p, family.sign).evaluate(point) == expected


def test_units_are_recognized():
    x = cleared.q_power(-1)
    assert (1 - x**3).is_unit and (1 + x**2).is_unit
    assert (cleared.q + 1).is_unit and (1 - cleared.q).is_unit
    assert cleared.pochhammer_inv_q2(4).is_unit
    assert (1 - x * x).exps == ((2, -1),)
    assert (1 + x).exps == ((1, 1), (2, -1))


@pytest.mark.parametrize(
    "divisor",
    [Cleared([2]), Cleared([1, 2]), Cleared([3, -1], 2, {2: 1}), Cleared([1, 1, 1])],
)
def test_division_by_non_unit_raises(divisor):
    with pytest.raises(ArithmeticError):
        ONE / divisor
    with pytest.raises(ArithmeticError):
        divisor.reciprocal()
    with pytest.raises(ArithmeticError):
        divisor**-1
    with pytest.raises(ArithmeticError):
        cleared.q / divisor
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_csum_of_kernel_values_stays_in_kernel():
    assert csum([]) is ZERO
    assert isinstance(csum([ONE, 2, cleared.q]), Cleared)
    mixed = csum([ONE, q])
    assert isinstance(mixed, RationalFunction) and mixed == 1 + q


# ---------------------------------------------------------------------------
# Every public identities value against its RationalFunction formula
# ---------------------------------------------------------------------------

def _sign(i):
    return 1 if i % 2 else -1


def _poch(n):
    return pochhammer_inv_q2(n)


def _lhs(size, constraint, sign):
    return rf_sum(summand_weight(p, sign) for p in enumerate_partitions(size, constraint))


ODD, EVEN = (
    ParityConstraint.ODD_PARTS_EVEN_MULTIPLICITY,
    ParityConstraint.EVEN_PARTS_EVEN_MULTIPLICITY,
)


def _term_a(k, m):
    return q_power(-(2 * k * k + k)) / _poch(k - 1) * coeff_u_lemma(k, m)


def _term_b(k, m):
    return (1 - q_power(1 - 2 * k)) * q_power(-(2 * k * k - k)) / _poch(k - 1) * coeff_u_lemma(k, m)


def _term_b2(k, m):
    return q_power(-(2 * k * k - k)) / _poch(k - 1) * coeff_u_lemma(k, m)


def _term_c1(k, m):
    return q_power(-(2 * k * k - 3 * k + 1)) / _poch(k - 1) * coeff_u_lemma(k, m + 1)


def _term_d(k, m):
    series = reciprocal_pochhammer_series(q_power(-1), q_power(-2), k, m - k)
    return q_power(-(2 * k * k - k)) / _poch(k - 1) * series.coefficient(m - k)


def _alt_closed(m, lo, exponent, extra=lambda i: 1):
    return rf_sum(
        _sign(i) * q_power(exponent(i)) * extra(i) / _poch(m - i) for i in range(lo, m + 1)
    )


# name -> (index ranges as a function of m, RationalFunction formula)
M_ONLY = lambda m: [(m,)]  # noqa: E731
K_TO_M = lambda m: [(k, m) for k in range(1, m + 1)]  # noqa: E731
K_TO_M1 = lambda m: [(k, m) for k in range(1, m + 2)]  # noqa: E731
M_POS = lambda m: [(m,)] if m else []  # noqa: E731

ORACLES = {
    "lhs_anz1": (M_ONLY, lambda m: _lhs(2 * m, ODD, +1)),
    "lhs_anz2": (M_ONLY, lambda m: _lhs(2 * m + 1, EVEN, -1)),
    "lhs_anz3": (M_ONLY, lambda m: _lhs(2 * m, EVEN, -1)),
    "rhs_anz1": (
        M_ONLY,
        lambda m: q_power(-m)
        * _alt_closed(m, 1, lambda i: -i * (i + 1), lambda i: q_power(2 * i + 1) + 1)
        / (q + 1),
    ),
    "rhs_anz2": (
        M_ONLY,
        lambda m: q_power(-m) / _poch(m)
        + q_power(-(m + 1)) * _alt_closed(m, 0, lambda i: -i * (i + 1)),
    ),
    "rhs_anz3": (M_ONLY, lambda m: q_power(-m) * _alt_closed(m, 1, lambda i: -i * (i - 1))),
    "coeff_u_lemma": (lambda m: [(k, m) for k in range(m + 1)], coeff_u_lemma),
    "term_a": (K_TO_M, _term_a),
    "term_b": (K_TO_M, _term_b),
    "term_a2": (K_TO_M, lambda k, m: (1 - q) * _term_a(k, m)),
    "term_b2": (K_TO_M, _term_b2),
    "term_c1": (K_TO_M1, _term_c1),
    "term_c2": (K_TO_M1, lambda k, m: -q_power(1 - 2 * k) * _term_c1(k, m)),
    "term_c": (K_TO_M1, lambda k, m: (1 - q_power(1 - 2 * k)) * _term_c1(k, m)),
    "term_d": (K_TO_M, _term_d),
    "sum_ab": (M_ONLY, lambda m: rf_sum(_term_a(k, m) + _term_b(k, m) for k in range(1, m + 1))),
    "sum_c": (
        M_ONLY,
        lambda m: rf_sum((1 - q_power(1 - 2 * k)) * _term_c1(k, m) for k in range(1, m + 2)),
    ),
    "sum_d": (M_ONLY, lambda m: rf_sum(_term_d(k, m) for k in range(1, m + 1))),
    "sum_a2_closed": (
        M_ONLY,
        lambda m: q_power(-m)
        * _alt_closed(m, 1, lambda i: -i * (i + 1), lambda i: 1 - q_power(2 * i))
        / (1 + q),
    ),
    "sum_b2_closed": (M_ONLY, lambda m: q_power(-m) * _alt_closed(m, 1, lambda i: -i * (i + 1) + 2 * i)),
    "sum_c2_closed": (M_ONLY, lambda m: q_power(-(m + 1)) * _alt_closed(m, 0, lambda i: -i * (i + 1))),
    "sum_c1_closed": (M_ONLY, lambda m: q_power(-m) / _poch(m)),
    "hyper_sum_a2": (
        M_POS,
        lambda m: q_power(-m) * (1 - q) * rf_sum(
            (-1) ** s * pochhammer(q_power(2 * m - 2), q_power(-2), s) / _poch(s) ** 2
            * q_power(-s * s - 3 * s - 2 * s * m - 2)
            for s in range(m)
        ),
    ),
    "hyper_sum_b2": (
        M_POS,
        lambda m: q_power(-m) * rf_sum(
            (-1) ** s * pochhammer(q_power(2 * m - 2), q_power(-2), s) / _poch(s) ** 2
            * q_power(-s * s - s - 2 * s * m)
            for s in range(m)
        ),
    ),
    "hyper_sum_c1": (
        M_ONLY,
        lambda m: q_power(-m) * rf_sum(
            pochhammer(q_power(-2 * m), q_power(2), k) / _poch(k) ** 2 * q_power(-2 * k * k)
            for k in range(m + 1)
        ),
    ),
    "phi_sum_a2": (
        M_POS,
        lambda m: q_power(-m - 2) * (1 - q)
        * limit_two_phi_one(m - 1, q_power(-2), q_power(-2), q_power(-2 * m - 4)),
    ),
    "phi_sum_b2": (
        M_POS,
        lambda m: q_power(-m)
        * limit_two_phi_one(m - 1, q_power(-2), q_power(-2), q_power(-2 * m - 2)),
    ),
    "phi_sum_c1": (
        M_ONLY,
        lambda m: q_power(-m) * limit_two_phi_one(m, q_power(-2), q_power(-2), q_power(-2 * m - 2)),
    ),
}


def test_oracle_table_covers_every_public_value():
    public = {
        name for name, value in vars(idn).items()
        if callable(value) and name.startswith(("lhs_", "rhs_", "term_", "sum_", "hyper_", "phi_"))
    }
    assert public | {"coeff_u_lemma"} == set(ORACLES)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_identities_values_match_rational_oracle(name):
    ranges, formula = ORACLES[name]
    compared = 0
    for m in range(M_SMALL + 1):
        for args in ranges(m):
            value = getattr(idn, name)(*args)
            expected = formula(*args)
            assert isinstance(value, Cleared), (name, args)
            assert value.to_rational() == expected, (name, args)
            for point in POINTS:
                assert value.evaluate(point) == expected.evaluate(point), (name, args, point)
            compared += 1
    assert compared >= M_SMALL


def test_summand_weight_matches_partitions():
    for size in range(9):
        for p in enumerate_partitions(size):
            for sign in (1, -1):
                assert idn.summand_weight(p, sign).to_rational() == summand_weight(p, sign)


def test_kernel_lemma_matches_the_generic_route():
    """The lemma's unit, built from its factors, equals the q-binomial
    coefficient through the generic Pochhammer engine, k = 0 included."""
    for m in range(31):
        for k in range(m + 1):
            generic = qseries.qbinomial_coefficient(
                k, m - k, cleared.q_power(-2)
            ) * cleared.q_power(k - m)
            assert idn.coeff_u_lemma(k, m) == generic, (k, m)


def test_summand_weight_is_the_direct_unit():
    """The kernel weight times its head equals the weight written as one
    unit: x^{weight_exponent} (1 - x^{columns_1}) / prod_i (x^2;x^2)_{floor(m_i/2)}."""
    for size in range(15):
        for constraint in ParityConstraint:
            for p in enumerate_partitions(size, constraint):
                exps = multiplicity_factors(p)
                exps[p.num_parts] = exps.get(p.num_parts, 0) - 1
                for sign in (1, -1):
                    direct = Cleared(shift=weight_exponent(p, sign), exps=exps) if size else ZERO
                    assert idn.summand_weight(p, sign) == direct, (p, sign)


@pytest.mark.parametrize("constant, value", [(ZERO, 0), (ONE, 1), (Cleared([5]), 5), (Cleared([-3]), -3)])
def test_kernel_constant_hashes_as_its_int(constant, value):
    assert constant == value and hash(constant) == hash(value)
    assert len({constant, value}) == 1


# ---------------------------------------------------------------------------
# No gcd on the check path; wrong exponents never pass
# ---------------------------------------------------------------------------

def _clear_identity_caches():
    for value in vars(idn).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _no_gcd(*args):
    raise AssertionError("polynomial gcd called on the identity-check path")


def test_no_gcd_gate(monkeypatch):
    """All twelve identity checks at m_max = 6 with the gcd disabled."""
    _clear_identity_caches()
    monkeypatch.setattr(rational, "poly_gcd", _no_gcd)
    monkeypatch.setattr(rational, "_prs_gcd", _no_gcd)
    reports = [check(6) for check in idn.CHECKS.values()]
    _clear_identity_caches()
    assert len(reports) == 12
    for report in reports:
        assert report.passed and report.n_checked > 0, report.summary()


def test_wrong_exponent_compares_unequal():
    for value in (idn.lhs_anz1(4), idn.rhs_anz2(4), idn.sum_d(4), idn.hyper_sum_c1(3)):
        for j, e in value.exps:
            for delta in (-1, 1):
                exps = dict(value.exps)
                exps[j] = e + delta
                assert Cleared(value.num, value.shift, exps) != value, (j, delta)
        shifted = Cleared(value.num, value.shift + 1, value.exps)
        assert shifted != value


def test_too_small_common_denominator_raises(monkeypatch):
    """A common denominator one factor short must raise, not pass."""
    honest = cleared._common

    def short(vectors):
        target = honest(vectors)
        j = max((j for j, e in target.items() if e > 0), default=None)
        if j is not None:
            target[j] -= 1
        return target

    _clear_identity_caches()
    monkeypatch.setattr(cleared, "_common", short)
    try:
        with pytest.raises(ArithmeticError):
            idn.check_anz1(4)
    finally:
        _clear_identity_caches()


def test_wrong_pochhammer_exponent_fails_the_identities(monkeypatch):
    """(x^2;x^2)_n built with one factor off: the three target identities
    must fail (or raise), never pass."""

    def wrong(n):
        right = cleared.pochhammer_inv_q2(n)
        return right if n < 2 else right * (1 - cleared.q_power(-2 * n - 2)) / (
            1 - cleared.q_power(-2 * n)
        )

    _clear_identity_caches()
    monkeypatch.setattr(idn, "pochhammer_inv_q2", wrong)
    try:
        for check in (idn.check_anz1, idn.check_anz2, idn.check_anz3):
            try:
                report = check(4)
            except ArithmeticError:
                continue
            assert not report.passed, report.summary()
    finally:
        _clear_identity_caches()


# ---------------------------------------------------------------------------
# Bounded caches
# ---------------------------------------------------------------------------

def test_every_cache_is_bounded():
    caches = {
        f"{module.__name__}.{name}": value
        for module in (idn, cleared)
        for name, value in vars(module).items()
        if hasattr(value, "cache_parameters")
    }
    assert "qident.identities.rhs_anz1" in caches
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name
    # one entry per m covers verify all at m_max = 30 (m = 0..30)
    for side in ("rhs_anz1", "rhs_anz2", "rhs_anz3"):
        assert caches[f"qident.identities.{side}"].cache_parameters()["maxsize"] >= 31


def test_kernel_pochhammer_matches_qseries():
    for n in range(6):
        assert cleared.pochhammer_inv_q2(n).to_rational() == qseries.pochhammer_inv_q2(n)
        kernel = pochhammer(cleared.q_power(3), cleared.q_power(-2), n)
        assert isinstance(kernel, Cleared)
        assert kernel.to_rational() == pochhammer(q_power(3), q_power(-2), n)


def test_every_cache_in_every_module_is_bounded():
    import importlib
    import pkgutil

    import qident

    caches = {}
    for info in pkgutil.iter_modules(qident.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"qident.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                caches[f"{module.__name__}.{name}"] = value
    assert "qident.qseries.pochhammer_inv_q2" in caches
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name


def test_an_integral_fraction_stays_on_the_kernel():
    """A Fraction with denominator 1 is lifted like the int it equals, so
    neither a product nor a sum with int parameters leaves the kernel."""
    product = cleared.q * Fraction(1)
    assert type(product) is Cleared and oracle(product) == q
    total = qseries.terminating_sum((), (), cleared.q, 1, 2, twist=1)
    assert type(total) is Cleared
    assert oracle(total) == qseries.terminating_sum((), (), q, 1, 2, twist=1)


@given(elements, st.integers(-4, 4))
def test_integral_fractions_act_as_ints(a, n):
    value = Fraction(n)
    for result, expected in (
        (a * value, a * n), (value * a, n * a), (a + value, a + n), (a - value, a - n),
    ):
        assert type(result) is Cleared and result == expected


# ---------------------------------------------------------------------------
# Sums, equality and products on inputs ``elements`` never draws: 64- and
# 128-bit coefficients, long numerators, large groups, cancelling groups.
# The oracle's gcds grow too slow for long numerators with wide
# coefficients, so each strategy widens one of the two.
# ---------------------------------------------------------------------------

BIG = (2**62 - 1, 2**63, 2**127)
coefficients = st.sampled_from(BIG + tuple(-c for c in BIG)) | st.integers(-3, 3)


def _nonzero_ends(num):
    return [num[0] or 1, *num[1:-1], num[-1] or -1]


big_elements = st.builds(
    Cleared,
    st.lists(coefficients, min_size=2, max_size=6).map(_nonzero_ends),
    st.integers(-3, 3),
    exponents,
).filter(lambda v: len(v.num) > 1)  # not a unit, so a product convolves
long_elements = st.builds(
    Cleared,
    st.lists(st.integers(-3, 3), min_size=50, max_size=64).map(_nonzero_ends),
    st.integers(-60, 60),
    exponents,
).filter(lambda v: len(v.num) > 1)


def _check_ring_operations(a, b):
    ra, rb = oracle(a), oracle(b)
    assert (a + b).to_rational() == ra + rb
    assert (a - b).to_rational() == ra - rb
    assert (a * b).to_rational() == ra * rb
    assert (a == b) == (ra == rb)
    assert a * b == b * a and a + b == b + a and a - a == ZERO


@settings(deadline=None, max_examples=60)
@given(big_elements, big_elements)
def test_big_coefficient_sums_products_and_equality_match_rational(a, b):
    _check_ring_operations(a, b)


@settings(deadline=None, max_examples=10)
@given(long_elements, long_elements)
def test_long_numerator_sums_products_and_equality_match_rational(a, b):
    _check_ring_operations(a, b)


@settings(deadline=None, max_examples=60)
@given(big_elements | long_elements, st.integers(1, 6), st.integers(1, 3))
def test_wide_equality_across_representations(a, j, extra):
    expanded = list(a.num)
    for _ in range(extra):
        expanded = cleared._times_one_minus(expanded, j)
    exps = dict(a.exps)
    exps[j] = exps.get(j, 0) + extra
    other = Cleared(expanded, a.shift, exps)
    assert other == a and a == other
    assert other != a + 1 and other != -a
    assert Cleared(expanded, a.shift + 1, exps) != a
    for num, vector in ((a.num, a.exps), (expanded, exps)):
        for i in (0, len(num) // 2, len(num) - 1):
            changed = list(num)
            changed[i] += 2**127
            assert Cleared(changed, a.shift, vector) != a


@settings(deadline=None, max_examples=30)
@given(
    st.lists(
        st.tuples(st.lists(coefficients, min_size=1, max_size=4), st.integers(-3, 3)),
        min_size=20,
        max_size=30,
    ),
    exponents,
    elements,
)
def test_many_terms_sharing_one_exponent_vector_sum_as_rational(pieces, exps, other):
    terms = [Cleared(num, shift, exps) for num, shift in pieces]
    total = csum(terms)
    assert total.to_rational() == rf_sum(oracle(t) for t in terms)
    assert csum(terms + [other]).to_rational() == total.to_rational() + oracle(other)
    assert csum(terms + [-t for t in terms]) == ZERO


@settings(deadline=None, max_examples=40)
@given(elements, big_elements | long_elements, st.integers(20, 30))
def test_a_cancelling_group_leaves_no_factors(a, b, pieces):
    """Terms over a denominator that ``a`` lacks sum to zero: the result is
    ``a`` itself, with ``a``'s exponents and none of theirs."""
    b = b * Cleared([1], 0, {7: 3})
    assert (7, 3) in b.exps and all(j != 7 for j, _ in a.exps)
    for total in (csum([a, b, -b]), csum([b, a, -b]), csum([b] * pieces + [a] + [-b] * pieces)):
        assert (total.shift, total.num, total.exps) == (a.shift, a.num, a.exps)
    assert (a + b) - b == a
    assert ((a + b) - b).to_rational() == oracle(a)
