"""The transfer-matrix sweep behind the enumeration sides and the
marginals' brute-force side, and the one series per k behind term_d.

``identities._enumerated`` sums the kernel weights of the enumerated
partitions themselves; it is the reference the sweep is held to here.
"""

import random

import pytest

from qident import cleared, distributions, identities as idn, partitions
from qident.distributions import Family
from qident.partitions import ParityConstraint, column_table, enumerate_partitions, kernel_weight
from qident.qseries import reciprocal_pochhammer_series

SIGNS = (1, -1)
ANZ_PAIRS = (
    (ParityConstraint.ODD_PARTS_EVEN_MULTIPLICITY, 1),
    (ParityConstraint.EVEN_PARTS_EVEN_MULTIPLICITY, -1),
)


def _clear_identity_caches():
    for value in vars(idn).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.mark.parametrize("constraint, sign", ANZ_PAIRS)
def test_sweep_matches_enumeration_on_the_anz_pairs(constraint, sign):
    table = idn._sweep.__wrapped__(constraint, sign, 25)
    assert len(table) == 26
    for size, value in enumerate(table):
        assert value == idn._enumerated(size, constraint, sign), size


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("constraint", list(ParityConstraint))
def test_sweep_matches_enumeration_under_every_constraint(constraint, sign):
    table = idn._sweep.__wrapped__(constraint, sign, 16)
    for size, value in enumerate(table):
        assert value == idn._enumerated(size, constraint, sign), size


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("constraint", list(ParityConstraint))
def test_column_table_matches_enumeration_by_size_and_first_column(constraint, sign):
    table = column_table(constraint, sign, 14)
    expected = {}
    for size in range(15):
        for p in enumerate_partitions(size, constraint):
            expected.setdefault((size, p.num_parts), []).append(kernel_weight(p, sign))
    assert sorted(table) == sorted(expected)
    for key, weights in expected.items():
        assert table[key] == cleared.csum(weights), key


def test_the_checks_at_one_m_max_build_one_table_per_pair():
    _clear_identity_caches()
    try:
        for check in idn.CHECKS.values():
            check(6)
        info = idn._sweep.cache_info()
    finally:
        _clear_identity_caches()
    # ANZ1 and EQ4 share the sign +1 table; ANZ2, ANZ3, EQ5 and D_EQ_B2 the
    # sign -1 one
    assert (info.misses, info.hits) == (2, 4)


def _reports(checks):
    """The JSON form of each check's report at m_max = 6, run from cleared
    caches in the given order."""
    _clear_identity_caches()
    return {identity: check(6).to_json_dict() for identity, check in checks}


def test_check_reports_do_not_depend_on_the_run_order():
    checks = list(idn.CHECKS.items())
    try:
        alone = {}
        for item in checks:
            alone.update(_reports([item]))
        in_order = _reports(checks)
        in_reverse = _reports(checks[::-1])
    finally:
        _clear_identity_caches()
    assert list(alone) == list(idn.CHECKS)
    assert in_order == alone
    assert in_reverse == alone


def _refuse(*args, **kwargs):
    raise AssertionError("the enumeration sides must come from the sweep")


def test_enumeration_sides_use_no_enumeration_weight_or_pochhammer(monkeypatch):
    sides = (idn.lhs_anz1, idn.lhs_anz2, idn.lhs_anz3)
    _clear_identity_caches()
    expected = {(side.__name__, m): side(m) for side in sides for m in range(7)}
    _clear_identity_caches()
    monkeypatch.setattr(idn, "enumerate_partitions", _refuse)
    monkeypatch.setattr(idn, "summand_weight", _refuse)
    monkeypatch.setattr(idn, "pochhammer_inv_q2", _refuse)
    try:
        for side in sides:
            for m in range(7):
                assert side(m) == expected[side.__name__, m], (side.__name__, m)
    finally:
        _clear_identity_caches()


@pytest.mark.parametrize("fam", list(Family))
def test_marginal_brute_side_uses_no_enumeration_weight_or_pochhammer(monkeypatch, fam):
    monkeypatch.setattr(distributions, "enumerate_partitions", _refuse)
    monkeypatch.setattr(distributions, "kernel_weight", _refuse)
    monkeypatch.setattr(partitions, "pochhammer_inv_q2", _refuse)
    report = distributions.marginal_vs_bruteforce(fam, 3, 12)
    assert report.passed
    assert report.n_checked == 7 * 13


def _term_d_per_call(k, m):
    """term_d by the per-call route: a fresh series of order m - k."""
    series = reciprocal_pochhammer_series(cleared.q_power(-1), cleared.q_power(-2), k, m - k)
    head = cleared.q_power(-(2 * k * k - k)) / cleared.pochhammer_inv_q2(k - 1)
    return head * series.coefficient(m - k)


def test_term_d_matches_a_fresh_series_in_any_call_order():
    pairs = [(k, m) for m in range(1, 13) for k in range(1, m + 1)]
    expected = {pair: _term_d_per_call(*pair) for pair in pairs}
    shuffled = pairs[:]
    random.Random(12).shuffle(shuffled)
    try:
        for order in (pairs, pairs[::-1], shuffled):
            _clear_identity_caches()
            for k, m in order:
                value = idn.term_d(k, m)
                assert value == expected[k, m], (k, m)
                assert value.to_rational() == expected[k, m].to_rational(), (k, m)
    finally:
        _clear_identity_caches()


def test_d_check_builds_one_series_per_k(monkeypatch):
    built = []
    direct = idn.reciprocal_pochhammer_series

    def counted(a, ratio, k, order):
        built.append(k)
        return direct(a, ratio, k, order)

    _clear_identity_caches()
    monkeypatch.setattr(idn, "reciprocal_pochhammer_series", counted)
    try:
        report = idn.check_d(7)
    finally:
        _clear_identity_caches()
    assert report.passed
    assert sorted(built) == list(range(1, 8))


@pytest.mark.parametrize("constraint, sign", ANZ_PAIRS)
@pytest.mark.parametrize("max_column", [0, 1, 2, 5, 14, 20])
def test_a_column_bound_keeps_the_columns_up_to_it(constraint, sign, max_column):
    full = column_table(constraint, sign, 14)
    bounded = column_table(constraint, sign, 14, max_column)
    assert bounded == {key: v for key, v in full.items() if key[1] <= max_column}
