"""Pochhammer products, terminating 2phi1 identities, and series oracles."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import cleared, distributions
from qident.cleared import Cleared
from qident.qseries import (
    DegenerateParameters,
    HypergeometricSpec,
    TruncatedSeries,
    coeff_u_lemma,
    limit_transform_check,
    limit_two_phi_one,
    pochhammer,
    pochhammer_inv_q2,
    pochhammer_series,
    qbinomial_coefficient,
    qchu_check,
    random_hypergeometric_reports,
    reciprocal_pochhammer_series,
    terminating_sum,
    transform_check,
    two_phi_one,
)
from qident.rational import RationalFunction, as_rational, q, q_power


def test_pochhammer_basics():
    a, r = q, q**2
    assert pochhammer(a, r, 0) == 1
    assert pochhammer(a, r, 2) == (1 - a) * (1 - a * r)
    assert pochhammer(q_power(-2), q_power(-2), 1).evaluate(2) == Fraction(3, 4)


def test_pochhammer_absorption_recurrence():
    for a, r in [(q, q**2), (q_power(-2), q_power(-2)), (1 / (q + 1), q_power(-1))]:
        for n in range(10):
            assert pochhammer(a, r, n + 1) == pochhammer(a, r, n) * (1 - a * r**n)
    # the special case used when passing from marginals to column terms
    for k in range(1, 9):
        assert pochhammer_inv_q2(k) == pochhammer_inv_q2(k - 1) * (1 - q_power(-2 * k))


def test_pochhammer_shift_factorization():
    # (a;r)_{m+n} = (a;r)_m * (a r^m; r)_n
    for a, r in [(q, q_power(-2)), (Fraction(2, 3), Fraction(5, 4))]:
        a, r = as_rational(a), as_rational(r)
        for m in range(4):
            for n in range(4):
                assert pochhammer(a, r, m + n) == pochhammer(a, r, m) * pochhammer(
                    a * r**m, r, n
                )


def test_two_phi_one_trivial_cases():
    spec = HypergeometricSpec(0, q, q**3, q**2, q**4)
    assert two_phi_one(spec) == 1
    spec = HypergeometricSpec(5, q, q**3, q**2, RationalFunction.zero())
    assert two_phi_one(spec) == 1


def test_two_phi_one_n1_against_hand_sum():
    # z = c q / b makes this the n = 1 closed evaluation
    b, c, base, z = q, q**3, q**2, q**4
    spec = HypergeometricSpec(1, b, c, base, z)
    a = base ** -1
    hand = 1 + (1 - a) * (1 - b) / ((1 - base) * (1 - c)) * z
    value = two_phi_one(spec)
    assert value == hand
    assert value == (1 - q**2) / (1 - q**3)


def test_two_phi_one_degenerate_base():
    spec = HypergeometricSpec(2, q, Fraction(1), q**2, q)  # (c;q)_1 = 0
    with pytest.raises(DegenerateParameters):
        two_phi_one(spec)


def test_qchu_check_instances():
    assert qchu_check(0, q, q**5, q**2).passed
    report = qchu_check(3, q, q**5, q**2)
    assert report.passed and report.n_checked == 1
    # rational constants work too
    assert qchu_check(4, Fraction(2, 3), Fraction(5, 7), Fraction(3, 2)).passed


def test_qchu_check_skips_degenerate_tuple():
    report = qchu_check(2, Fraction(1), Fraction(1), Fraction(1))  # base 1
    assert report.n_skipped == 1 and report.n_checked == 0
    assert report.passed  # skips never fail a report


def test_transform_check_instances():
    assert transform_check(HypergeometricSpec(0, q, q**7, q**2, q**3)).passed
    assert transform_check(HypergeometricSpec(2, q, q**7, q**2, q**3)).passed
    assert transform_check(
        HypergeometricSpec(3, Fraction(3), Fraction(2, 5), Fraction(5, 2), Fraction(-1, 3))
    ).passed


def test_limit_two_phi_one_trivial_cases():
    assert limit_two_phi_one(0, q, q**2, q**5) == 1
    assert limit_two_phi_one(3, q, q**2, RationalFunction.zero()) == 1


def test_limit_two_phi_one_against_fraction_oracle():
    # same sum recomputed at q = 2 in plain Fraction arithmetic
    n, c, base, z = 2, Fraction(1, 4), Fraction(1, 4), Fraction(1, 256)
    a = base**-n
    total = Fraction(0)
    for k in range(n + 1):
        num = Fraction(1)
        for j in range(k):
            num *= 1 - a * base**j
        den = Fraction(1)
        for j in range(1, k + 1):
            den *= (1 - base**j)
        for j in range(k):
            den *= 1 - c * base**j
        total += (-1) ** k * base ** (k * (k - 1) // 2) * z**k * num / den
    assert total == Fraction(3181, 2880)
    value = limit_two_phi_one(2, q_power(-2), q_power(-2), q_power(-8))
    assert value.evaluate(2) == total


def test_limit_transform_check_instances():
    assert limit_transform_check(0, q, q**2, q**3).passed
    assert limit_transform_check(1, Fraction(3, 2), Fraction(5), Fraction(7, 3)).passed
    # the instance driving the a2-sum rewrite at m = 3
    assert limit_transform_check(2, q_power(-2), q_power(-2), q_power(-10)).passed


_rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def _vanishing_c(draw):
    """(n, c, q) with q not 0, 1 or -1 and c = q^{-j} for some j < n, so
    that (c;q)_n has the factor 1 - c q^j = 0 and (q;q)_n has none."""
    base = draw(_rational.filter(lambda v: v not in (0, 1, -1)))
    n = draw(st.integers(1, 6))
    return n, base ** -draw(st.integers(0, n - 1)), base


@settings(max_examples=100, deadline=None)
@given(_vanishing_c(), _rational, _rational)
def test_a_vanishing_c_is_skipped_by_the_left_sum(drawn, b, z):
    # each left side divides by every factor of (c;q)_n, so its sum names the zero
    n, c, base = drawn
    for report in (
        transform_check(HypergeometricSpec(n, b, c, base, z)),
        limit_transform_check(n, c, base, z),
    ):
        (result,) = report.results
        assert report.n_skipped == 1
        assert re.match(r"^\(.+; .+\)_\d+ vanishes$", result.reason), result.reason


def test_qbinomial_coefficient_examples():
    assert qbinomial_coefficient(3, 0, q**2) == 1
    assert qbinomial_coefficient(1, 1, q**2) == 1  # geometric series
    assert qbinomial_coefficient(2, 1, q_power(-2)) == 1 + q_power(-2)


def test_coeff_u_lemma_examples():
    assert coeff_u_lemma(1, 1) == 1
    assert coeff_u_lemma(1, 2) == q_power(-1)
    assert coeff_u_lemma(2, 3) == q_power(-1) + q_power(-3)
    with pytest.raises(ValueError):
        coeff_u_lemma(3, 2)


def test_coeff_u_lemma_matches_series_sample():
    for k in range(5):
        for m in range(k, 9):
            series = reciprocal_pochhammer_series(q_power(-1), q_power(-2), k, m - k)
            assert coeff_u_lemma(k, m) == series.coefficient(m - k)


# --- truncated series ------------------------------------------------------

def test_series_geometric_expansions():
    s = reciprocal_pochhammer_series(q_power(-1), q_power(-2), 1, 2)
    assert s.coeffs == (
        RationalFunction.one(),
        q_power(-1),
        q_power(-2),
    )
    s = reciprocal_pochhammer_series(q_power(-1), q_power(-2), 2, 1)
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == q_power(-1) + q_power(-3)
    assert reciprocal_pochhammer_series(q, q, 0, 3) == TruncatedSeries.constant(1, 3)


def test_series_mul_reciprocal_roundtrip():
    s = pochhammer_series(q_power(-1), q_power(-2), 3, 6)
    assert s * s.reciprocal() == TruncatedSeries.constant(1, 6)
    t = TruncatedSeries(3, (1, q, q**2 + 1, q_power(-1)))
    assert (t * t.reciprocal()) == TruncatedSeries.constant(1, 3)


def test_series_reciprocal_needs_unit():
    s = TruncatedSeries.monomial(1, 3)
    with pytest.raises(ZeroDivisionError):
        s.reciprocal()


def test_series_order_handling():
    s = TruncatedSeries.constant(1, 4)
    with pytest.raises(IndexError):
        s.coefficient(5)
    with pytest.raises(ValueError):
        s + TruncatedSeries.constant(1, 3)
    assert s.truncate(2) == TruncatedSeries.constant(1, 2)


def test_series_step_two_pochhammer():
    # (u^2/q; 1/q^2)_1 reciprocal: only even powers appear
    s = reciprocal_pochhammer_series(q_power(-1), q_power(-2), 1, 5, step=2)
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == 0
    assert s.coefficient(2) == q_power(-1)
    assert s.coefficient(3) == 0
    assert s.coefficient(4) == q_power(-2)


def test_qbinomial_theorem_finite_product_specialization():
    # With first parameter r^k the product side collapses to the finite
    # product 1/(z;r)_k, which the truncated series reproduces exactly.
    order = 8
    for base in (q_power(-2), RationalFunction.one() * Fraction(2, 3)):
        for k in range(5):
            lhs = TruncatedSeries(
                order,
                tuple(
                    qbinomial_coefficient(k, s, base) for s in range(order + 1)
                ),
            )
            rhs = reciprocal_pochhammer_series(1, base, k, order)
            assert lhs == rhs


# --- randomized sweeps -----------------------------------------------------

def test_randomized_sweeps_pass_with_low_skip_rate():
    reports = random_hypergeometric_reports(n_max=4, tuples_per_n=10, seed=7)
    assert len(reports) == 3
    for report in reports:
        assert report.passed
        assert report.n_checked == 5 * 10
        draws = report.n_checked + report.n_skipped
        assert report.n_skipped < 0.2 * draws


def test_randomized_sweeps_deterministic():
    a = random_hypergeometric_reports(n_max=3, tuples_per_n=5, seed=11)
    b = random_hypergeometric_reports(n_max=3, tuples_per_n=5, seed=11)
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


# --- the term-ratio engine --------------------------------------------------

def oracle_terminating_sum(upper, lower, base, z, n, twist):
    """Plain-Fraction sum of the displayed r-phi-s terms, each Pochhammer
    product multiplied out in full; None when a denominator factor vanishes
    (or the base is 0 with n > 0)."""
    if n > 0 and base == 0:
        return None
    total = Fraction(0)
    for k in range(n + 1):
        num = Fraction(1)
        den = Fraction(1)
        for j in range(k):
            for a in upper:
                num *= 1 - a * base**j
            for b in (base, *lower):
                den *= 1 - b * base**j
        if den == 0:
            return None
        sign = (-1) ** k * base ** (k * (k - 1) // 2)
        total += num / den * sign**twist * z**k
    return total


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(
    upper=st.lists(small, max_size=3),
    lower=st.lists(small, max_size=2),
    base=small,
    z=small,
    n=st.integers(0, 5),
    twist=st.integers(0, 1),
    constant_rf=st.booleans(),
)
def test_terminating_sum_matches_fraction_oracle(
    upper, lower, base, z, n, twist, constant_rf
):
    expected = oracle_terminating_sum(upper, lower, base, z, n, twist)
    args = (upper, lower, base, z)
    if constant_rf:
        args = (
            [as_rational(a) for a in upper],
            [as_rational(b) for b in lower],
            as_rational(base),
            as_rational(z),
        )
    if expected is None:
        with pytest.raises(DegenerateParameters):
            terminating_sum(*args, n, twist)
    else:
        assert terminating_sum(*args, n, twist) == expected


def test_terminating_sum_small_cases():
    assert terminating_sum((), (), 0, 5, 0) == 1
    # sum_k z^k / (q;q)_k at n = 1: 1 + z / (1 - q)
    assert terminating_sum((), (), q, q**2, 1) == 1 + q**2 / (1 - q)
    # twist 1 multiplies term k by (-1)^k q^binom(k,2)
    assert terminating_sum((), (), q, 1, 2, twist=1) == (
        1 - 1 / (1 - q) + q / ((1 - q) * (1 - q**2))
    )


@pytest.mark.parametrize("base", [Fraction(0), RationalFunction.zero()])
def test_terminating_sum_refuses_zero_base(base):
    with pytest.raises(DegenerateParameters):
        terminating_sum((Fraction(1, 2),), (), base, Fraction(1), 1)
    assert terminating_sum((Fraction(1, 2),), (), base, Fraction(1), 0) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: terminating_sum((Fraction(1, 2),), (), 3, 1, -3),
        lambda: limit_two_phi_one(-1, 2, 3, 5),
    ],
)
def test_negative_sum_length_raises(call):
    """A negative length is refused, as in ``pochhammer``, instead of
    returning the k = 0 term 1."""
    with pytest.raises(ValueError, match="nonnegative"):
        call()


@pytest.mark.parametrize(
    "lower, base, n",
    [
        ((Fraction(1),), Fraction(2), 1),  # 1 - b at k = 1
        ((Fraction(1, 4),), Fraction(2), 3),  # 1 - b p^2 at k = 3
        ((), Fraction(-1), 2),  # (p; p)_2 = (1 + 1)(1 - 1) at base -1
        ((q_power(-2),), q, 3),  # 1 - q^{-2} q^2 at k = 3
    ],
)
def test_terminating_sum_refuses_vanishing_lower_factor(lower, base, n):
    with pytest.raises(DegenerateParameters):
        terminating_sum((Fraction(1, 3),), lower, base, Fraction(1, 5), n)
    # the same parameters one step short of the vanishing factor are fine
    terminating_sum((Fraction(1, 3),), lower, base, Fraction(1, 5), n - 1)


# --- rational arguments are summed on integer pairs --------------------------

def stepwise_terminating_sum(upper, lower, base, z, n, twist):
    """The r-phi-s sum on Fractions, one term at a time: each term is the
    previous one times its term ratio, every operation reduced."""
    if n > 0 and base == 0:
        raise DegenerateParameters("series base is zero")
    term = total = power = Fraction(1)
    for k in range(1, n + 1):
        ratio = z * (-power) ** twist
        for a in upper:
            ratio *= 1 - a * power
        for b in (base, *lower):
            if b * power == 1:
                raise DegenerateParameters(f"({b}; {base})_{k} vanishes")
            ratio /= 1 - b * power
        term *= ratio
        total += term
        power *= base
    return total


def stepwise_pochhammer(a, ratio, n):
    value = Fraction(1)
    for j in range(n):
        value *= 1 - a * ratio**j
    return value


def _outcome_or_message(call, *args):
    try:
        return "value", call(*args)
    except DegenerateParameters as exc:
        return "degenerate", str(exc)


@settings(max_examples=300, deadline=None)
@given(
    upper=st.lists(small, max_size=3),
    lower=st.lists(small, max_size=2),
    base=small,
    z=small | st.just(Fraction(0)),
    n=st.integers(0, 6),
    twist=st.integers(-1, 1),
    vanish_at=st.none() | st.integers(1, 6),
)
def test_rational_route_matches_a_stepwise_fraction_sum(
    upper, lower, base, z, n, twist, vanish_at
):
    if vanish_at is not None and base:
        # 1 - b p^{k-1} vanishes at k = vanish_at, which may lie past n
        lower = [*lower, base ** (1 - vanish_at)]
    args = (upper, lower, base, z, n, twist)
    got = _outcome_or_message(terminating_sum, *args)
    assert got == _outcome_or_message(stepwise_terminating_sum, *args)
    if got[0] == "value":
        assert type(got[1]) is Fraction
    for a in (base, z, *upper):
        assert pochhammer(a, base, n) == stepwise_pochhammer(a, base, n)


def test_rational_route_edge_cases():
    assert terminating_sum((), (), Fraction(2, 3), Fraction(5), 0) == 1
    assert terminating_sum((Fraction(1, 2),), (), Fraction(2, 3), Fraction(0), 4) == 1
    assert pochhammer(Fraction(3, 2), Fraction(2, 3), 0) == 1
    # (1; p)_n vanishes from its first factor on
    assert pochhammer(Fraction(1), Fraction(-1, 2), 3) == 0
    with pytest.raises(DegenerateParameters, match=r"^\(1/4; 2\)_3 vanishes$"):
        terminating_sum((), (Fraction(1, 4),), Fraction(2), Fraction(0), 3)


# --- the kernel and Q(q) run the same loop -----------------------------------

def stepwise_field_sum(upper, lower, base, z, n, twist):
    """The r-phi-s sum in the field of base, one term ratio at a time, each
    factor divided out as it comes; a vanishing factor raises
    ZeroDivisionError."""
    term = total = power = base ** 0
    for _ in range(n):
        ratio = z * (-power) ** twist
        for a in upper:
            ratio = ratio * (1 - a * power)
        for b in (base, *lower):
            ratio = ratio / (1 - b * power)
        term = term * ratio
        total = total + term
        power = power * base
    return total


def stepwise_field_pochhammer(a, ratio, n):
    value = power = a ** 0
    for _ in range(n):
        value = value * (1 - a * power)
        power = power * ratio
    return value


@pytest.mark.parametrize(
    "power_of_q", [cleared.q_power, q_power], ids=["Cleared", "RationalFunction"]
)
def test_one_loop_matches_a_stepwise_sum_in_the_field_of_its_arguments(power_of_q):
    rng = random.Random(f"field-loop:{power_of_q.__module__}")
    kind = type(power_of_q(0))
    sums = degenerate = 0
    for n in range(7):
        for twist in (-1, 0, 1):
            for _ in range(4):
                base = power_of_q(rng.choice((-2, -1, 1, 2)))
                z = power_of_q(rng.randint(-3, 3))
                upper = [power_of_q(rng.randint(-4, 4)) for _ in range(rng.randint(0, 2))]
                lower = [power_of_q(rng.randint(-4, 4)) for _ in range(rng.randint(0, 1))]
                try:
                    expected = stepwise_field_sum(upper, lower, base, z, n, twist)
                except ZeroDivisionError:
                    with pytest.raises(DegenerateParameters):
                        terminating_sum(upper, lower, base, z, n, twist)
                    degenerate += 1
                    continue
                got = terminating_sum(upper, lower, base, z, n, twist)
                assert got == expected, (n, twist)
                assert type(got) is kind
                sums += 1
            for a in (base, z):
                got = pochhammer(a, base, n)
                assert got == stepwise_field_pochhammer(a, base, n)
                assert type(got) is kind
    assert sums > 50 and degenerate > 0


@pytest.mark.parametrize(
    "power_of_q", [cleared.q_power, q_power], ids=["Cleared", "RationalFunction"]
)
def test_one_loop_keeps_the_field_of_its_arguments_at_n_zero(power_of_q):
    base, z = power_of_q(1), power_of_q(-3)
    kind = type(base)
    for twist in (-1, 0, 1):
        got = terminating_sum((power_of_q(2),), (power_of_q(-1),), base, z, 0, twist)
        assert type(got) is kind and got == 1
    got = pochhammer(power_of_q(2), base, 0)
    assert type(got) is kind and got == 1


def test_vanishing_kernel_lower_parameter_is_named():
    # 1 - q^{-2} p^2 vanishes at k = 3 for the base p = q
    lower = (cleared.q_power(-2),)
    with pytest.raises(DegenerateParameters, match=r"^\(1/q\^2; q\)_3 vanishes$"):
        terminating_sum((), lower, cleared.q, cleared.q_power(1), 3)
    assert type(terminating_sum((), lower, cleared.q, cleared.q_power(1), 2)) is Cleared


def test_truncated_prefactor_is_the_product_of_its_factors():
    q, u = Fraction(6, 5), Fraction(1, 2)
    params = distributions.MeasureParams.with_tolerance(q, u, Fraction(1, 10**9))
    product = Fraction(1)
    for i in range(1, params.product_cutoff + 1):
        product *= 1 - u**2 / q ** (2 * i - 1)
    assert params.product_cutoff > 0
    assert distributions.truncated_prefactor(distributions.Family.O, params) == (
        product / (1 + u)
    )


# --- the sweeps compute in the field of their parameters ---------------------

#: (checked, skipped) per sweep at n_max = 8, 40 tuples per n, seed 13, as
#: recorded while the sweeps still computed in Q(q).
SWEEP_COUNTS_SEED_13 = {
    "qchu": (360, 57),
    "transform": (360, 47),
    "limit-transform": (360, 52),
}


def test_sweeps_run_without_rational_functions(monkeypatch):
    from qident import rational

    def refuse(*args, **kwargs):
        raise AssertionError("the 2phi1 sweeps reached Q(q) arithmetic")

    monkeypatch.setattr(rational, "poly_gcd", refuse)
    monkeypatch.setattr(rational, "rf_sum", refuse)
    monkeypatch.setattr(rational.Polynomial, "__mul__", refuse)
    reports = random_hypergeometric_reports(n_max=8, tuples_per_n=40, seed=13)
    counts = {r.identity: (r.n_checked, r.n_skipped) for r in reports}
    assert counts == SWEEP_COUNTS_SEED_13
    for report in reports:
        assert report.passed
        for result in report.results:
            if result.status != "skip":
                assert type(result.lhs_value) is Fraction
                assert type(result.rhs_value) is Fraction


def _outcome(check, *args):
    """What a check reports, in the terms the CLI prints: pass, counts,
    params and counterexample, plus the status of each comparison."""
    report = check(*args)
    return report.to_json_dict(), [r.status for r in report.results]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 4),
    b=small,
    c=small,
    base=small.filter(bool),
    z=small,
)
def test_checks_agree_on_fractions_and_constant_rational_functions(n, b, c, base, z):
    constant = [as_rational(v) for v in (b, c, base, z)]
    assert _outcome(qchu_check, n, b, c, base) == _outcome(qchu_check, n, *constant[:3])
    assert _outcome(transform_check, HypergeometricSpec(n, b, c, base, z)) == _outcome(
        transform_check, HypergeometricSpec(n, *constant)
    )
    assert _outcome(limit_transform_check, n, c, base, z) == _outcome(
        limit_transform_check, n, *constant[1:]
    )


# --- in-place division and one-csum products -------------------------------

#: (a, ratio) of each element type the series engine computes in.
DIVISION_ARGUMENTS = {
    Cleared: (cleared.q_power(-1), cleared.q_power(-2)),
    RationalFunction: (1 / (q + 1), q),
    Fraction: (Fraction(2, 3), Fraction(-3, 5)),
}


@pytest.mark.parametrize("kind", DIVISION_ARGUMENTS, ids=lambda t: t.__name__)
def test_reciprocal_pochhammer_series_divides_out_the_product(kind):
    a, ratio = DIVISION_ARGUMENTS[kind]
    for step in (1, 2, 3):
        for k in range(7):
            # a coefficient does not depend on the order the series is cut at
            product = pochhammer_series(a, ratio, k, 12, step).reciprocal()
            for order in range(13):
                series = reciprocal_pochhammer_series(a, ratio, k, order, step)
                assert series == product.truncate(order), (step, k, order)
                assert all(type(c) is kind for c in series.coeffs), (step, k, order)


def _schoolbook_product(s, t):
    zero = s.coeffs[0] * t.coeffs[0] * 0
    out = [zero] * (s.order + 1)
    for i, a in enumerate(s.coeffs):
        for j in range(s.order + 1 - i):
            out[i + j] = out[i + j] + a * t.coeffs[j]
    return out


def _schoolbook_reciprocal(s):
    f = s.coeffs
    inv0, zero = 1 / f[0], f[0] * 0
    out = [inv0]
    for n in range(1, s.order + 1):
        acc = zero
        for i in range(1, n + 1):
            acc = acc + f[i] * out[n - i]
        out.append(-inv0 * acc)
    return out


#: Coefficient pools per element type: the units may lead a series that is
#: inverted, the others (zeros among them) fill the remaining places.
SERIES_POOLS = {
    Cleared: (
        (cleared.ONE, -cleared.ONE, cleared.q, Cleared([1], exps={1: 1})),
        (cleared.ZERO, cleared.ZERO, cleared.ONE, -cleared.q_power(-1),
         Cleared([1, 2]), Cleared([3, 0, -1], shift=1, exps={2: 1})),
    ),
    RationalFunction: (
        (RationalFunction.one(), q, (q + 1) / (q - 1)),
        (RationalFunction.zero(), RationalFunction.zero(), q_power(-1),
         -RationalFunction.one(), (q**2 + 1) / (q + 2)),
    ),
    Fraction: (
        (Fraction(1), Fraction(-2), Fraction(3, 4)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(-5, 3), Fraction(7, 2)),
    ),
}


def _random_series(rng, kind, order):
    units, fill = SERIES_POOLS[kind]
    return TruncatedSeries(
        order, (rng.choice(units), *(rng.choice(fill) for _ in range(order)))
    )


@pytest.mark.parametrize("kind", SERIES_POOLS, ids=lambda t: t.__name__)
def test_series_product_and_reciprocal_match_a_pairwise_fold(kind):
    rng = random.Random(f"series-fold:{kind.__name__}")
    units, fill = SERIES_POOLS[kind]
    c = fill[-1]
    # s(u) s(-u) has only even powers: every odd output coefficient is a
    # sum of products that cancels; 1/(1 + c u + c^2 u^2) has a zero u^2
    # coefficient built from two cancelling products.
    alternating = TruncatedSeries(3, (units[0], c, fill[0], c * c))
    flipped = TruncatedSeries(3, (units[0], -c, fill[0], -(c * c)))
    cancelling = [
        (alternating, flipped),
        (TruncatedSeries(4, (units[0], c, c * c, fill[0], fill[0])),) * 2,
    ]
    randomized = []
    for order in range(7):
        for _ in range(3):
            randomized.append(
                (_random_series(rng, kind, order), _random_series(rng, kind, order))
            )
    for s, t in cancelling + randomized:
        product = s * t
        assert list(product.coeffs) == _schoolbook_product(s, t)
        inverse = s.reciprocal()
        assert list(inverse.coeffs) == _schoolbook_reciprocal(s)
        for value in product.coeffs + inverse.coeffs:
            assert type(value) is kind
    assert not any((alternating * flipped).coeffs[1::2])
    assert not cancelling[1][0].reciprocal().coefficient(2)
