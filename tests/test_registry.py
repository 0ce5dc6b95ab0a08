"""Audit of the check registry: selector coverage, report order, and the
number of comparisons each check records over its documented index range."""

import json

import pytest

from qident import cli
from qident import identities as idn


def _tri(n: int) -> int:
    return n * (n + 1) // 2


def expected_checked(identity: str, m: int) -> int:
    """Comparisons over each check's index range at m_max = m.

    ANZ1-3: m = 0..M.  EQ4/EQ5: two routes per m = 0..M.  A2/B2: three
    routes per m = 1..M.  C1: three routes per m = 0..M.  C2: one closed
    comparison per m = 0..M plus one termwise per k = 1..m+1.  AB_SPLIT:
    k = 1..m for m = 1..M plus k = 1..m+1 for m = 0..M.  D_EQ_B2: k = 1..m for
    m = 1..M plus two routes per m = 0..M.  FINAL_COMBINE: per index
    i = 1..M and per m = 1..M.
    """
    return {
        "ANZ1": m + 1,
        "ANZ2": m + 1,
        "ANZ3": m + 1,
        "EQ4": 2 * (m + 1),
        "EQ5": 2 * (m + 1),
        "A2_SUM": 3 * m,
        "B2_SUM": 3 * m,
        "C2_SUM": (m + 1) + _tri(m + 1),
        "C1_SUM": 3 * (m + 1),
        "AB_SPLIT": _tri(m) + _tri(m + 1),
        "D_EQ_B2": _tri(m) + 2 * (m + 1),
        "FINAL_COMBINE": 2 * m,
    }[identity]


def _verify_ids(capsys, *argv):
    code = cli.main(["verify", *argv])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    return [row["identity"] for row in rows]


def test_every_identity_in_exactly_one_selector():
    groups = list(idn.SELECTORS.values())
    for identity in idn.IDENTITY_IDS:
        assert sum(identity in group for group in groups) == 1, identity
    assert sorted(i for group in groups for i in group) == sorted(idn.IDENTITY_IDS)


def test_registry_order_and_names():
    assert idn.IDENTITY_IDS == tuple(idn.CHECKS)
    assert idn._CHECKS == tuple(idn.CHECKS.values())
    assert idn.CHECKS["AB_SPLIT"] is idn.check_splits
    assert idn.CHECKS["D_EQ_B2"] is idn.check_d
    assert cli.VERIFY_SELECTORS == (
        "anz1", "anz2", "anz3", "eq4", "eq5", "splits",
        "qseries", "marginals", "normalization", "all",
    )


@pytest.mark.parametrize(
    "selector, ids",
    [
        ("anz1", ["ANZ1"]),
        ("anz2", ["ANZ2"]),
        ("anz3", ["ANZ3"]),
        ("eq4", ["EQ4", "A2_SUM", "B2_SUM", "FINAL_COMBINE"]),
        ("eq5", ["EQ5", "C1_SUM", "C2_SUM"]),
        ("splits", ["AB_SPLIT", "D_EQ_B2"]),
    ],
)
def test_selector_output_order(capsys, selector, ids):
    assert _verify_ids(capsys, selector, "--m-max", "1") == ids


def test_verify_all_report_order_is_stable(capsys):
    argv = [
        "all", "--m-max", "1", "--qseries-n-max", "1", "--tuples-per-n", "1",
        "--order", "2", "--k-max", "1",
    ]
    expected = [
        *idn.IDENTITY_IDS,
        "qchu", "transform", "limit-transform",
        "marginals-sp", "normalization-sp", "marginals-o", "normalization-o",
    ]
    assert _verify_ids(capsys, *argv) == expected
    assert _verify_ids(capsys, *argv) == expected


@pytest.mark.parametrize("m_max", [1, 2, 3, 4])
def test_checked_counts_match_index_ranges(m_max):
    for identity, check in idn.CHECKS.items():
        report = check(m_max)
        assert report.identity == identity
        assert report.n_skipped == 0
        assert report.n_checked == expected_checked(identity, m_max), identity


def test_every_check_compares_something_at_m_max_1():
    for identity, check in idn.CHECKS.items():
        assert check(1).n_checked >= 1, identity


@pytest.mark.parametrize("m_max", [0, -1])
@pytest.mark.parametrize("identity", list(idn.CHECKS))
def test_check_refuses_m_max_below_one(identity, m_max):
    # A2_SUM, B2_SUM and FINAL_COMBINE would compare nothing and pass
    with pytest.raises(ValueError, match="m_max must be at least 1"):
        idn.CHECKS[identity](m_max)
