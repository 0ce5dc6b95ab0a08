"""Measure parameters, marginal series, normalization, and the sampler."""

import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import cleared, distributions, qseries
from qident.cleared import ONE, csum
from qident.distributions import (
    RANDOM_SCALE,
    Family,
    MeasureParams,
    SampleResult,
    cdf_thresholds,
    first_column_marginal,
    marginal_series,
    marginal_vs_bruteforce,
    normalization_check,
    prefactor_series,
    prob,
    sample,
    support_weights,
    truncated_distribution,
    truncated_prefactor,
)
from qident.partitions import Partition, cl_numerator, enumerate_partitions, kernel_weight
from qident.qseries import TruncatedSeries, pochhammer_inv_q2, reciprocal_pochhammer_series
from qident.rational import q_power

HALF = Fraction(1, 2)
TOL = Fraction(1, 10**9)


@pytest.fixture(scope="module")
def params():
    return MeasureParams.with_tolerance(2, HALF, TOL)


def test_params_validation():
    with pytest.raises(ValueError):
        MeasureParams(Fraction(1, 2), HALF, 5, TOL)
    with pytest.raises(ValueError):
        MeasureParams(Fraction(2), Fraction(3, 2), 5, TOL)
    with pytest.raises(ValueError):
        MeasureParams(Fraction(2), HALF, 5, Fraction(0))
    with pytest.raises(ValueError):
        # cutoff too small for the requested tolerance
        MeasureParams(Fraction(2), HALF, 0, Fraction(1, 10**6))


def test_with_tolerance_picks_minimal_cutoff(params):
    assert params.tail_bound <= TOL
    smaller = MeasureParams(params.q, params.u, params.product_cutoff - 1, Fraction(1))
    assert smaller.tail_bound > TOL


def _tail(q, u, cutoff):
    return u**2 * q ** (1 - 2 * cutoff) / (q**2 - 1)


def test_with_tolerance_near_one_is_minimal():
    """q -> 1 makes the cutoff large (12783 here); the search must still
    return the minimal one instead of stepping through every cutoff."""
    q, tol = Fraction(1001, 1000), Fraction(1, 10**9)
    cutoff = MeasureParams.with_tolerance(q, HALF, tol).product_cutoff
    assert _tail(q, HALF, cutoff) <= tol < _tail(q, HALF, cutoff - 1)


@pytest.mark.parametrize("q", [Fraction(2), Fraction(6, 5), Fraction(11, 10), Fraction(100)])
@pytest.mark.parametrize("u", [Fraction(1, 100), HALF, Fraction(99, 100)])
@pytest.mark.parametrize("tol", [Fraction(1, 10**30), TOL, HALF, Fraction(10)])
def test_with_tolerance_matches_linear_search(q, u, tol):
    cutoff = 0
    while _tail(q, u, cutoff) > tol:
        cutoff += 1
    assert MeasureParams.with_tolerance(q, u, tol).product_cutoff == cutoff


def test_prob_zero_off_constraint(params):
    pv = prob(Partition((3, 1)), Family.SP, params)
    assert pv.value == 0


def test_prob_empty_partition_is_normalizer(params):
    pv = prob(Partition(()), Family.SP, params)
    assert pv.value == truncated_prefactor(Family.SP, params)
    assert 0 < pv.value < 1


def test_prob_single_box_orthogonal(params):
    # direct formula: prefactor/(1+u) * u * 1
    pv = prob(Partition((1,)), Family.O, params)
    expected = Fraction(1)
    for i in range(1, params.product_cutoff + 1):
        expected *= 1 - HALF**2 / Fraction(2) ** (2 * i - 1)
    expected = expected / (1 + HALF) * HALF
    assert pv.value == expected
    assert pv.tail_bound == params.tail_bound


def test_prob_positive_on_support(params):
    for fam in Family:
        for n in range(7):
            for p in enumerate_partitions(n, fam.constraint):
                assert prob(p, fam, params).value > 0


def test_marginal_single_partition_coefficients():
    series = marginal_series(Family.SP, "even", 1, 4)
    assert series.coefficient(2) == cl_numerator(Partition((1, 1)), +1)[0]
    series = marginal_series(Family.O, "odd", 1, 4)
    assert series.coefficient(1) == cl_numerator(Partition((1,)), -1)[0]
    for fam in Family:
        for parity in ("even", "odd"):
            assert marginal_series(fam, parity, 2, 6).coefficient(0) == 0


def test_marginal_k_zero_conventions():
    assert marginal_series(Family.SP, "even", 0, 3).coefficient(0) == 1
    with pytest.raises(ValueError):
        marginal_series(Family.SP, "odd", 0, 3)
    assert first_column_marginal(Family.O, 0, 3).coefficient(0) == 1


def test_marginals_against_enumeration():
    for fam in Family:
        report = marginal_vs_bruteforce(fam, 2, 8)
        assert report.passed, report.summary()


def test_prefactor_series_newton_matches_euler_product_form():
    series = prefactor_series(12)
    for j in range(7):
        euler = q_power(-j * j) / pochhammer_inv_q2(j)
        if j % 2:
            euler = -euler
        assert series.coefficient(2 * j) == euler
    for j in range(0, 12, 2):
        assert series.coefficient(j + 1) == 0  # odd powers vanish


def test_normalization_exact_through_order_eight():
    for fam in Family:
        report = normalization_check(fam, 8)
        assert report.passed, report.summary()


def test_truncated_mass_monotone_and_bounded(params):
    for fam in Family:
        masses = []
        for max_size in range(0, 7):
            dist = truncated_distribution(fam, params, max_size)
            pf = truncated_prefactor(fam, params)
            raw = pf * sum(
                params.u ** p.size * cl_numerator(p, fam.sign)[0].evaluate(params.q)
                for p, _ in dist
            )
            masses.append(raw)
        assert all(a <= b for a, b in zip(masses, masses[1:]))
        assert masses[0] < masses[-1]
        assert masses[-1] <= 1 + params.tail_bound


def test_truncated_distribution_sums_to_one(params):
    dist = truncated_distribution(Family.SP, params, 6)
    assert sum(w for _, w in dist) == 1
    assert all(w > 0 for _, w in dist)


def test_sample_empty_and_deterministic(params):
    assert sample(Family.SP, params, 6, 0, 42).partitions == ()
    a = sample(Family.SP, params, 6, 50, 42)
    b = sample(Family.SP, params, 6, 50, 42)
    assert isinstance(a, SampleResult)
    assert a.partitions == b.partitions
    assert a.to_json_dict() == b.to_json_dict()
    c = sample(Family.SP, params, 6, 50, 43)
    assert a.partitions != c.partitions  # different seed, different stream


def test_sample_refuses_a_negative_seed(params):
    # random.Random(-5) seeds from |-5| and would repeat the draws of seed 5
    with pytest.raises(ValueError, match="seed"):
        sample(Family.SP, params, 6, 5, -5)


def test_sample_mass_accounting(params):
    res = sample(Family.O, params, 5, 10, 1)
    assert 0 <= res.truncated_mass_bound < Fraction(1, 10)
    assert res.support_probability + res.truncated_mass_bound >= 1 - params.tail_bound
    for p in res.partitions:
        assert p.size <= 5
        assert Family.O.constraint.admits(p)


def test_sample_top_of_unit_interval_draws_last_partition(monkeypatch, params):
    """random() is at most 1 - 2^-53, below the last CDF entry, which is
    exactly total/total = 1: the draw is the last support partition."""
    import random

    class Top(random.Random):
        def random(self):
            return 1 - 2.0**-53

    monkeypatch.setattr(random, "Random", Top)
    support, _ = support_weights(Family.SP, params, 6)
    assert sample(Family.SP, params, 6, 3, 0).partitions == (support[-1],) * 3


def _oracle_index(weights, k):
    """The exact rational inverse CDF at k / 2^53: plain Fraction bisection."""
    total, acc, cdf = sum(weights), Fraction(0), []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return bisect_right(cdf, Fraction(k, RANDOM_SCALE))


def _edge_draws(thresholds):
    """k = 0, k = 2^53 - 1 and k = T_i - 1, T_i for every threshold below
    2^53; k = T_i is the draw at which cdf_i = k / 2^53 when cdf_i * 2^53 is
    an integer."""
    ks = {0, RANDOM_SCALE - 1}
    for t in thresholds:
        ks.update(k for k in (t - 1, t) if 0 <= k < RANDOM_SCALE)
    return sorted(ks)


#: Positive weights, some with ~10^4-bit denominators like the weights of
#: the orthogonal measure at q = 11/10.
weight = st.one_of(
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
    st.builds(
        lambda a, e: a * Fraction(10, 11) ** e,
        st.integers(1, 10**6),
        st.integers(2800, 3000),
    ),
)


#: Integer weights padded to a power-of-two total, so every cdf_i * 2^53 is
#: an integer and some draw hits a CDF value exactly.
@st.composite
def dyadic_weights(draw):
    weights = draw(st.lists(st.integers(1, 2**12), min_size=1, max_size=12))
    total = sum(weights)
    pad = (1 << total.bit_length()) - total
    return [Fraction(w) for w in weights + ([pad] if pad else [])]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.lists(weight, min_size=1, max_size=12), dyadic_weights()))
def test_thresholds_bisect_as_the_exact_cdf(weights):
    thresholds = cdf_thresholds(weights, sum(weights))
    assert thresholds == sorted(thresholds) and thresholds[-1] == RANDOM_SCALE
    grid = [float(t) for t in thresholds]  # the grid that sample bisects
    assert all(g == t for g, t in zip(grid, thresholds))
    for k in _edge_draws(thresholds):
        index = bisect_right(thresholds, k)
        assert index == _oracle_index(weights, k)
        assert bisect_right(grid, float(k)) == index


def test_random_draws_are_integers_after_scaling():
    for seed in range(200):
        rng = random.Random(seed)
        for _ in range(50):
            x = rng.random() * RANDOM_SCALE
            assert x.is_integer() and 0 <= x < RANDOM_SCALE


@pytest.mark.parametrize("value", [0.1, 1.0, -(2.0**-53), float("inf"), float("nan")])
def test_sample_refuses_a_draw_off_the_grid(monkeypatch, params, value):
    """A random() that is not k / 2^53 with 0 <= k < 2^53 raises instead of
    being drawn as some other partition."""

    class Off(random.Random):
        def random(self):
            return value

    monkeypatch.setattr(random, "Random", Off)
    with pytest.raises(ValueError, match="2\\^53"):
        sample(Family.SP, params, 6, 3, 0)


def _per_draw(support, weights, count, seed):
    """One draw at a time: k = int(random() * 2^53), bisected on the
    integer thresholds."""
    thresholds = cdf_thresholds(weights, sum(weights))
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        k = int(rng.random() * RANDOM_SCALE)
        draws.append(support[bisect_right(thresholds, k)])
    return tuple(draws)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("q", [Fraction(2), Fraction(6, 5), Fraction(11, 10)])
def test_batched_draws_match_the_per_draw_loop(family, q):
    params = MeasureParams.with_tolerance(q, HALF, TOL)
    support, weights = support_weights(family, params, 8)
    for count in (0, 1, 5000):
        for seed in (0, 13, 29, 2**40 + 7):
            drawn = sample(family, params, 8, count, seed).partitions
            assert drawn == _per_draw(support, weights, count, seed)


def test_sample_draws_the_exact_cdf_at_every_threshold(monkeypatch, params):
    """random() = k / 2^53 at k = T_i - 1 and k = T_i for every threshold:
    the draws sit on both sides of each CDF step, as the integer bisection
    and the exact rational CDF put them."""
    support, weights = support_weights(Family.O, params, 8)
    ks = _edge_draws(cdf_thresholds(weights, sum(weights)))

    class Edges(random.Random):
        draws = iter(ks)

        def random(self):
            return next(self.draws) / RANDOM_SCALE

    monkeypatch.setattr(random, "Random", Edges)
    drawn = sample(Family.O, params, 8, len(ks), 0).partitions
    assert drawn == tuple(support[_oracle_index(weights, k)] for k in ks)


def test_draws_share_one_rendering_per_partition(params):
    res = sample(Family.SP, params, 6, 500, 42)
    calls = []
    rows = res.render_draws(lambda p: calls.append(p) or p.to_json())
    assert rows == [p.to_json() for p in res.partitions]
    assert len(calls) == len({id(p) for p in res.partitions}) < len(res.partitions)


def test_sample_matches_the_fraction_cdf_near_q_one():
    """At q = 11/10 the weights have ~10^4-bit denominators; the draws equal
    those of the exact Fraction CDF bisected at random()."""
    params = MeasureParams.with_tolerance(Fraction(11, 10), HALF, TOL)
    support, weights = support_weights(Family.O, params, 10)
    rng = random.Random(13)
    expected = tuple(
        support[_oracle_index(weights, int(rng.random() * RANDOM_SCALE))] for _ in range(500)
    )
    assert sample(Family.O, params, 10, 500, 13).partitions == expected


def test_series_and_weights_run_without_rational_functions(monkeypatch):
    """The series checks and the dist weights compute on the integer
    kernel: no polynomial gcd, product or RationalFunction evaluation."""
    from qident import cleared, rational

    def refuse(*args, **kwargs):
        raise AssertionError("the series or the dist weights reached Q(q) arithmetic")

    monkeypatch.setattr(rational, "poly_gcd", refuse)
    monkeypatch.setattr(rational, "_prs_gcd", refuse)
    monkeypatch.setattr(rational.Polynomial, "__mul__", refuse)
    monkeypatch.setattr(rational.RationalFunction, "evaluate", refuse)
    params = MeasureParams.with_tolerance(Fraction(6, 5), HALF, TOL)
    for fam in Family:
        for report in (marginal_vs_bruteforce(fam, 3, 12), normalization_check(fam, 12)):
            assert report.passed and report.n_checked > 0, report.summary()
            for result in report.results:
                assert type(result.lhs_value) is cleared.Cleared
                assert type(result.rhs_value) is cleared.Cleared
        support, weights = support_weights(fam, params, 10)
        assert len(support) == len(weights) and all(w > 0 for w in weights)
        for p in enumerate_partitions(6):
            prob(p, fam, params)


@pytest.mark.parametrize("fam", list(Family))
def test_marginal_vs_bruteforce_refuses_negative_k_max(fam):
    # k_max = -1 has no column to compare, so it would pass vacuously
    with pytest.raises(ValueError, match="k_max"):
        marginal_vs_bruteforce(fam, -1, 4)


# (lead, expo, poch_len) of each first-column class, from the
# ``marginal_series`` docstring: u^lead / (q^expo (1/q^2;1/q^2)_poch_len ...)
_CLASS_SHAPE = {
    (Family.SP, "even"): lambda k: (2 * k, 2 * k * k + k, k),
    (Family.SP, "odd"): lambda k: (2 * k, 2 * k * k - k, k - 1),
    (Family.O, "odd"): lambda k: (2 * k - 1, 2 * k * k - 3 * k + 1, k - 1),
    (Family.O, "even"): lambda k: (2 * k, 2 * k * k - k, k),
}


def _marginal_by_division(fam, parity, k, order):
    """The marginal core series by the division route: the head monomial
    times 1/(u^2/q; 1/q^2)_k, the tail divided out of 1 factor by factor."""
    lead, expo, poch_len = _CLASS_SHAPE[fam, parity](k)
    head = cleared.q_power(-expo) / cleared.pochhammer_inv_q2(poch_len)
    tail = reciprocal_pochhammer_series(
        cleared.q_power(-1), cleared.q_power(-2), k, order, step=2
    )
    return TruncatedSeries.monomial(lead, order, head) * tail


@pytest.mark.parametrize("fam,parity", list(_CLASS_SHAPE))
def test_marginal_closed_form_matches_the_division_route(fam, parity):
    for k in range(1, 9):
        for order in (2 * k - 2, 2 * k + 1, 13, 24):
            closed = marginal_series(fam, parity, k, order)
            divided = _marginal_by_division(fam, parity, k, order)
            assert closed.order == divided.order == order
            for j, (a, b) in enumerate(zip(closed.coeffs, divided.coeffs)):
                assert a == b, (fam, parity, k, order, j)
                assert a.to_rational() == b.to_rational(), (fam, parity, k, order, j)


@pytest.mark.parametrize("fam", list(Family))
def test_normalization_lhs_is_total_times_prefactor_over_one_plus_u(fam):
    for order in range(13):
        columns = [first_column_marginal(fam, c, order) for c in range(order + 1)]
        total = TruncatedSeries(
            order, tuple(csum(s.coeffs[j] for s in columns) for j in range(order + 1))
        )
        expected = total * prefactor_series(order)
        if fam is Family.O:
            expected = expected * reciprocal_pochhammer_series(-ONE, ONE, 1, order)
        report = normalization_check(fam, order)
        assert [r.lhs_value for r in report.results] == list(expected.coeffs)


def _refuse(*args, **kwargs):
    raise AssertionError("the marginal and normalization series must divide no series")


@pytest.mark.parametrize("fam", list(Family))
def test_marginal_and_normalization_series_divide_no_series(monkeypatch, fam):
    # patched where it is defined and, if imported by name, where it is used
    for module in (qseries, distributions):
        monkeypatch.setattr(module, "reciprocal_pochhammer_series", _refuse, raising=False)
    monkeypatch.setattr(TruncatedSeries, "reciprocal", _refuse)
    monkeypatch.setattr(TruncatedSeries, "monomial", _refuse)
    for report in (marginal_vs_bruteforce(fam, 3, 12), normalization_check(fam, 12)):
        assert report.passed and report.n_checked > 0, report.summary()


class _CountingRandom(random.Random):
    """random.Random that counts its random() calls in ``calls``."""

    calls = 0

    def random(self):
        type(self).calls += 1
        return super().random()


def test_draw_yields_fixed_batches_one_at_a_time(monkeypatch, params):
    """The engine draws one batch per step, from the same stream that
    ``sample`` collects, so its working set does not grow with the count."""
    batch = distributions.BATCH
    monkeypatch.setattr(random, "Random", _CountingRandom)
    monkeypatch.setattr(_CountingRandom, "calls", 0)
    plan = distributions.plan_sample(Family.SP, params, 6, 42)
    batches = plan.draw(2 * batch + 1)
    assert _CountingRandom.calls == 0
    first = next(batches)
    assert (len(first), _CountingRandom.calls) == (batch, batch)
    rest = list(batches)
    assert [len(b) for b in rest] == [batch, 1]
    monkeypatch.undo()
    drawn = tuple(first + rest[0] + rest[1])
    assert drawn == sample(Family.SP, params, 6, 2 * batch + 1, 42).indices


def test_rows_share_one_rendering_per_partition_across_batches(params):
    plan = distributions.plan_sample(Family.O, params, 6, 7)
    calls = []
    batches = plan.draw(2 * distributions.BATCH + 1)
    rows = list(plan.rows(batches, lambda p: calls.append(p) or p.to_json()))
    res = sample(Family.O, params, 6, 2 * distributions.BATCH + 1, 7)
    assert [len(r) for r in rows] == [distributions.BATCH, distributions.BATCH, 1]
    assert [row for r in rows for row in r] == [p.to_json() for p in res.partitions]
    assert len(calls) == len(set(res.indices))


# ---------------------------------------------------------------------------
# The numeric weights on integer pairs, against the kernel's own evaluation
# ---------------------------------------------------------------------------

def _reference_weights(fam, q, u, max_size):
    """The enumeration-order support and u^size * kernel_weight(p).evaluate(q)."""
    support = [p for n in range(max_size + 1) for p in enumerate_partitions(n, fam.constraint)]
    return support, [u**p.size * kernel_weight(p, fam.sign).evaluate(q) for p in support]


_WEIGHT_QS = [Fraction(2), Fraction(3, 2), Fraction(6, 5), Fraction(11, 10), Fraction(1999, 1000)]
_WEIGHT_US = [HALF, Fraction(999, 1000), Fraction(1, 10**6)]


@pytest.mark.parametrize("fam", list(Family))
@pytest.mark.parametrize("q", _WEIGHT_QS)
@pytest.mark.parametrize("u", _WEIGHT_US)
def test_support_weights_match_the_kernel_evaluation(fam, q, u):
    params = MeasureParams.with_tolerance(q, u, TOL)
    support, expected = _reference_weights(fam, q, u, 12)
    for max_size in range(13):
        got_support, got = support_weights(fam, params, max_size)
        size = len(got_support)
        assert got_support == support[:size] and got == expected[:size], max_size
    assert size == len(support)


_positive = st.integers(1, 10**6)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(list(Family)), _positive, _positive, _positive, _positive, st.integers(0, 12)
)
def test_support_weights_match_the_kernel_evaluation_at_drawn_points(fam, b, up, c, down, size):
    q, u = Fraction(b + up, b), Fraction(c, c + down)  # q > 1, 0 < u < 1
    params = MeasureParams(q, u, 0, _tail(q, u, 0))
    assert support_weights(fam, params, size) == _reference_weights(fam, q, u, size)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(list(Family)), _positive, _positive, _positive, _positive, st.integers(0, 8)
)
def test_support_weights_start_at_one_and_stay_positive(fam, b, up, c, down, max_size):
    q, u = Fraction(b + up, b), Fraction(c, c + down)  # q > 1, 0 < u < 1
    support, weights = support_weights(fam, MeasureParams(q, u, 0, _tail(q, u, 0)), max_size)
    assert support[0] == Partition(()) and weights[0] == 1
    assert all(w > 0 for w in weights)


@pytest.mark.parametrize("fam", list(Family))
@pytest.mark.parametrize("q", _WEIGHT_QS)
@pytest.mark.parametrize("u", _WEIGHT_US)
def test_prob_matches_the_kernel_evaluation(fam, q, u):
    params = MeasureParams.with_tolerance(q, u, TOL)
    prefactor = truncated_prefactor(fam, params)
    for n in range(9):
        for p in enumerate_partitions(n):
            expected = Fraction(0)
            if fam.constraint.admits(p):
                expected = prefactor * u**n * kernel_weight(p, fam.sign).evaluate(q)
            assert prob(p, fam, params).value == expected, p
