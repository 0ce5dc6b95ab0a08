"""Spot values and fast-tier runs of every identity check.

The deep runs (m up to 8 and 10) live in the acceptance suite; here the
focus is hand-frozen values and the report machinery, kept quick.
"""

import pytest

from qident import cli
from qident import identities as idn
from qident.rational import q, q_power, rf_sum
from qident.report import VerificationReport

M_FAST = 4


def test_lhs_rhs_anz1_spot_values():
    expected = q_power(-1) - q_power(-2) + q_power(-3)
    assert idn.lhs_anz1(0) == 0
    assert idn.rhs_anz1(0) == 0
    assert idn.lhs_anz1(1) == expected
    assert idn.rhs_anz1(1) == expected


def test_lhs_rhs_anz2_spot_values():
    expected = 1 - q_power(-1)
    assert idn.lhs_anz2(0) == expected
    assert idn.rhs_anz2(0) == expected


def test_lhs_rhs_anz3_spot_values():
    assert idn.lhs_anz3(0) == 0
    assert idn.rhs_anz3(0) == 0
    assert idn.lhs_anz3(1) == q_power(-1)
    assert idn.rhs_anz3(1) == q_power(-1)


def test_term_spot_values():
    from qident.qseries import pochhammer_inv_q2

    assert idn.term_a2(1, 1) == (1 - q) * q_power(-3)
    assert idn.term_b2(1, 1) == q_power(-1)
    assert idn.sum_a2_closed(1) == (1 - q) * q_power(-3)
    assert idn.sum_b2_closed(1) == q_power(-1)
    # top class k = m has unit coefficient
    for m in (1, 2, 3):
        assert idn.term_a(m, m) == q_power(-(2 * m * m + m)) / pochhammer_inv_q2(m - 1)
    assert idn.term_a(1, 1) + idn.term_b(1, 1) == idn.lhs_anz1(1)
    assert idn.term_c(1, 0) == idn.lhs_anz2(0)
    assert idn.term_d(1, 1) == q_power(-1)


def test_term_index_ranges():
    with pytest.raises(ValueError):
        idn.term_a(0, 3)
    with pytest.raises(ValueError):
        idn.term_a(4, 3)
    with pytest.raises(ValueError):
        idn.term_c1(5, 3)  # runs to m + 1 only
    with pytest.raises(ValueError):
        idn.term_d(2, 1)


@pytest.mark.parametrize(
    "rewrite, m",
    [
        (idn.hyper_sum_a2, 0),
        (idn.hyper_sum_b2, 0),
        (idn.phi_sum_a2, 0),
        (idn.phi_sum_b2, 0),
        (idn.phi_sum_c1, -1),  # a negative-length limit 2phi1, not its k = 0 term
    ],
)
def test_rewrites_refuse_an_empty_range(rewrite, m):
    with pytest.raises(ValueError):
        rewrite(m)


@pytest.mark.parametrize(
    "check",
    [
        idn.check_anz1,
        idn.check_anz2,
        idn.check_anz3,
        idn.check_eq4,
        idn.check_eq5,
        idn.check_a2_sum,
        idn.check_b2_sum,
        idn.check_c2_sum,
        idn.check_c1_sum,
        idn.check_splits,
        idn.check_d,
        idn.check_final_combine,
    ],
)
def test_every_check_passes_fast_tier(check):
    report = check(M_FAST)
    assert report.passed, report.summary()
    assert report.n_checked > 0


def test_identity_id_coverage():
    reports = [check(1) for check in idn._CHECKS]
    assert tuple(r.identity for r in reports) == idn.IDENTITY_IDS


def test_injected_error_produces_counterexample():
    report = VerificationReport("ANZ1-mutated", params={"m_max": 1})
    for m in range(2):
        # a deliberately wrong right side: flipped sign inside the sum
        body = rf_sum(
            -idn._alt_sign(i)
            * (q_power(2 * i + 1) + 1)
            * q_power(-i * (i + 1))
            for i in range(1, m + 1)
        )
        wrong = q_power(-m) * body / (q + 1)
        report.record({"m": m}, idn.lhs_anz1(m), wrong)
    assert not report.passed
    fail = report.first_failure
    assert fail is not None and fail.index == {"m": 1}
    assert fail.lhs is not None and fail.rhs is not None
    assert report.to_json_dict()["counterexample"]["index"] == {"m": 1}


def test_verify_all_aggregates_and_passes():
    reports = idn.verify_all(m_max=2, qseries_n_max=2, tuples_per_n=4, seed=3)
    assert len(reports) == len(idn.IDENTITY_IDS) + 3
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError):
        idn.verify_all(m_max=0)


def test_closed_side_caches_cover_the_m_max_cap():
    # verify all reads every m = 0..m_max of each closed side more than once
    for side in (idn.rhs_anz1, idn.rhs_anz2, idn.rhs_anz3):
        assert side.cache_parameters()["maxsize"] >= cli._MAXIMUM["m_max"] + 1, side
