"""The three target q-polynomial identities and their derivation chain.

Every check compares two independently computed elements of Q(q):

* the enumeration side sums the partition weights of each size: ``_sweep``
  applies the head to ``partitions.column_table``, a transfer-matrix sweep
  that shares nothing with the other sides but kernel arithmetic.  One
  sweep to size n gives the sides of every size up to n, so each check binds
  the table of its m_max once and indexes it: ANZ1 and EQ4 read the sign +1
  table, ANZ2, ANZ3, EQ5 and D_EQ_B2 the sign -1 one, and ``_sweep`` keeps
  two tables, so the checks at one m_max build one per (constraint, sign).
  ``lhs_*`` read one size from a table of their own; ``_enumerated``, the
  sum over the enumerated partitions themselves, is the tests' reference
  for the sweep,
* the term side rebuilds the same quantity from first-column classes via
  the coefficient-extraction closed form (``term_*`` on ``_column``, and
  their sums ``sum_*``),
* the closed side evaluates the displayed alternating sums (``rhs_*``,
  ``sum_*_closed``, on ``_alternating``) and their hypergeometric rewrites
  (``hyper_*`` on ``_s_sum``, ``phi_*`` on ``_limit``).

Each displayed shape is written once, as one of those builders, and each
public value is one builder call times its displayed prefactor, or a sum of
such values (``rhs_anz2`` is the closed c1 sum plus the closed c2 sum).  No
check ever compares a formula against itself; that separation is the
entire point of the package.

Identity ids: ANZ1/ANZ2/ANZ3 are the three target identities (even size
with odd parts of even multiplicity; odd and even size with even parts of
even multiplicity).  EQ4/EQ5 are the reduced forms the term sums must
satisfy, and the remaining ids cover the termwise splits, the closed-form
sums, and the final recombination.

Each check is written once, as a generator of (index, lhs, rhs) rows, and
registered under its id in ``CHECKS``; one runner records the rows in a
``VerificationReport``.  ``IDENTITY_IDS``, ``verify_all`` and the CLI
selectors (``SELECTORS``: selector -> ids, in output order) all read from
that registry.

Representation: every value here is a ``cleared.Cleared``, an integer
Laurent polynomial in x = 1/q over a product of factors (1 - x^j).  The
partition weights, the Pochhammer products, the coefficient lemma and the
closed-form summands are units of that kernel, so the chain runs on integer
lists with no polynomial gcd, and a comparison is an equality of integer
lists over one common denominator.  The hypergeometric rewrites reach the
kernel through the generic ``qseries.pochhammer`` and
``qseries.terminating_sum``, and ``term_d`` through ``TruncatedSeries``.
The values interoperate with ``RationalFunction`` (``to_rational``, ``str``
and ``evaluate`` are the canonical ones).  ``coeff_u_lemma`` is built from
its factors, x^{m-k} (x^{2k};x^2)_{m-k} / (x^2;x^2)_{m-k}, and
``summand_weight`` (the weights ``partitions --weights`` prints) is
``partitions.kernel_weight`` times its head (1 - x^{columns_1}).  Their Q(q)
references, ``qseries.coeff_u_lemma`` (a ratio of generic Pochhammer
products through ``qbinomial_coefficient``) and
``partitions.summand_weight``, take a different route and stay on
``RationalFunction``.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache, wraps

from .cleared import ZERO, Cleared, csum, pochhammer_inv_q2, q, q_power
from .partitions import ParityConstraint, column_table, enumerate_partitions, kernel_weight
from .qseries import (
    DEFAULT_SEED,
    limit_two_phi_one,
    pochhammer,
    random_hypergeometric_reports,
    reciprocal_pochhammer_series,
)
from .report import VerificationReport

#: Cache size of the closed right sides ``rhs_anz*``: one entry per m, so
#: m = 0..128 stay cached, which follows the CLI's ``--m-max`` cap of 128.
#: Three checks read rhs_anz1 and two read each of the others.
_SIDE_CACHE = 129


def _alt_sign(i: int) -> int:
    """(-1)^(i-1), valid for i = 0 as well."""
    return 1 if i % 2 else -1


def _require_range(k: int, lo: int, hi: int) -> None:
    if not lo <= k <= hi:
        raise ValueError(f"index k={k} outside [{lo}, {hi}]")


def _enumerated(size: int, constraint: ParityConstraint, sign: int) -> Cleared:
    """Sum of summand_weight(p, sign) over the partitions p of size under
    constraint: the reference the tests hold ``_sweep`` to."""
    return csum(summand_weight(p, sign) for p in enumerate_partitions(size, constraint))


@lru_cache(maxsize=2)  # one table per (constraint, sign) at one m_max
def _sweep(constraint: ParityConstraint, sign: int, n: int) -> tuple[Cleared, ...]:
    """Entry s <= n: the sum of summand_weight(p, sign) over the partitions p
    of s under constraint, each ``column_table`` entry times its head taken as
    value - value x^{N_1}, so both halves share one denominator."""
    sides: list[list] = [[] for _ in range(n + 1)]
    for (size, count), value in column_table(constraint, sign, n).items():
        sides[size] += (value, -value * q_power(-count))
    return tuple(map(csum, sides))


def _alternating(m: int, first: int, summand: Callable[[int], Cleared]) -> Cleared:
    """sum_{i=first}^{m} (-1)^{i-1} summand(i) / (1/q^2;1/q^2)_{m-i}."""
    return csum(
        _alt_sign(i) * summand(i) / pochhammer_inv_q2(m - i)
        for i in range(first, m + 1)
    )


def _column(k: int, m: int, exponent: int) -> Cleared:
    """q^{-exponent} / (1/q^2;1/q^2)_{k-1} * coeff_u_lemma(k, m), 1 <= k <= m."""
    _require_range(k, 1, m)
    return q_power(-exponent) / pochhammer_inv_q2(k - 1) * coeff_u_lemma(k, m)


def _s_sum(m: int, exponent: Callable[[int], int]) -> Cleared:
    """sum_{s=0}^{m-1} (-1)^s (q^{2m-2};q^{-2})_s q^{exponent(s)}
    / (1/q^2;1/q^2)_s^2, for m >= 1."""
    if m < 1:
        raise ValueError("defined for m >= 1")
    return csum(
        (1 if s % 2 == 0 else -1)
        * pochhammer(q_power(2 * m - 2), q_power(-2), s)
        / pochhammer_inv_q2(s) ** 2
        * q_power(exponent(s))
        for s in range(m)
    )


def _limit(n: int, z_exponent: int) -> Cleared:
    """limit_two_phi_one(n, q^{-2}, q^{-2}, q^{z_exponent}); n < 0 raises."""
    return limit_two_phi_one(n, q_power(-2), q_power(-2), q_power(z_exponent))


# ---------------------------------------------------------------------------
# Enumeration sides
# ---------------------------------------------------------------------------

def summand_weight(partition, sign: int) -> Cleared:
    """``partitions.summand_weight`` on the kernel: the kernel weight times
    its head (1 - x^{columns_1}), which is 0 for the empty partition."""
    return kernel_weight(partition, sign) * (1 - q_power(-partition.num_parts))


#: The (constraint, sign) of the sweep behind ANZ1, and the one sweep that
#: ANZ2 (odd sizes) and ANZ3 (even sizes) share.
_ANZ1 = (ParityConstraint.ODD_PARTS_EVEN_MULTIPLICITY, +1)
_ANZ23 = (ParityConstraint.EVEN_PARTS_EVEN_MULTIPLICITY, -1)


def lhs_anz1(m: int) -> Cleared:
    """Sum of sign +1 weights over partitions of 2m whose odd parts all
    occur with even multiplicity."""
    return _sweep(*_ANZ1, 2 * m)[2 * m]


def lhs_anz2(m: int) -> Cleared:
    """Sum of sign -1 weights over partitions of 2m+1 whose even parts all
    occur with even multiplicity."""
    return _sweep(*_ANZ23, 2 * m + 1)[2 * m + 1]


def lhs_anz3(m: int) -> Cleared:
    """Sum of sign -1 weights over partitions of 2m whose even parts all
    occur with even multiplicity."""
    return _sweep(*_ANZ23, 2 * m)[2 * m]


# ---------------------------------------------------------------------------
# Closed-form right sides
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_SIDE_CACHE)
def rhs_anz1(m: int) -> Cleared:
    """1/(q^m (q+1)) * sum_{i=1}^{m} (-1)^{i-1} (q^{2i+1}+1)
    / (q^{i(i+1)} (1/q^2;1/q^2)_{m-i}); empty sum for m = 0."""
    body = _alternating(
        m, 1, lambda i: (q_power(2 * i + 1) + 1) * q_power(-i * (i + 1))
    )
    return q_power(-m) * body / (q + 1)


@lru_cache(maxsize=_SIDE_CACHE)
def rhs_anz2(m: int) -> Cleared:
    """1/(q^m (1/q^2;1/q^2)_m) + 1/q^{m+1} * sum_{i=0}^{m} (-1)^{i-1}
    / (q^{i(i+1)} (1/q^2;1/q^2)_{m-i}): the closed c1 sum plus the closed c2 sum."""
    return sum_c1_closed(m) + sum_c2_closed(m)


@lru_cache(maxsize=_SIDE_CACHE)
def rhs_anz3(m: int) -> Cleared:
    """1/q^m * sum_{i=1}^{m} (-1)^{i-1} / (q^{i(i-1)} (1/q^2;1/q^2)_{m-i})."""
    return q_power(-m) * _alternating(m, 1, lambda i: q_power(-i * (i - 1)))


# ---------------------------------------------------------------------------
# First-column class terms (coefficient-extraction route)
# ---------------------------------------------------------------------------

def coeff_u_lemma(k: int, m: int) -> Cleared:
    """``qseries.coeff_u_lemma`` on the kernel, the unit built from its
    factors: x^{m-k} (x^{2k}; x^2)_{m-k} / (x^2; x^2)_{m-k}, which is 0 for
    k = 0 < m."""
    if k < 0 or m < k:
        raise ValueError(f"need m >= k >= 0, got k={k}, m={m}")
    n = m - k
    if not k and n:
        return ZERO
    exps = [(2 * (k + i), -1) for i in range(n)] + [(2 * i, 1) for i in range(1, n + 1)]
    return Cleared(shift=n, exps=exps)


def term_a(k: int, m: int) -> Cleared:
    """Even first-column class 2k of the sign +1 sum, after absorbing the
    (1 - q^{-2k}) head into the Pochhammer."""
    return _column(k, m, 2 * k * k + k)


def term_b(k: int, m: int) -> Cleared:
    """Odd first-column class 2k-1 of the sign +1 sum, with its explicit
    (1 - q^{1-2k}) head."""
    return (1 - q_power(1 - 2 * k)) * _column(k, m, 2 * k * k - k)


def term_a2(k: int, m: int) -> Cleared:
    """First piece of the regrouped split of term_a + term_b."""
    return (1 - q) * _column(k, m, 2 * k * k + k)


def term_b2(k: int, m: int) -> Cleared:
    """Second piece of the regrouped split of term_a + term_b."""
    return _column(k, m, 2 * k * k - k)


def term_c1(k: int, m: int) -> Cleared:
    """Head-free part of the odd first-column class term of the odd-size
    sign -1 sum (index runs to k = m+1)."""
    return _column(k, m + 1, 2 * k * k - 3 * k + 1)


def term_c2(k: int, m: int) -> Cleared:
    """Correction part of the split: -q^{1-2k} * term_c1."""
    return -q_power(1 - 2 * k) * term_c1(k, m)


def term_c(k: int, m: int) -> Cleared:
    """Odd first-column class term of the odd-size sign -1 sum, with its
    (1 - q^{1-2k}) head; equals term_c1 + term_c2 by construction."""
    return (1 - q_power(1 - 2 * k)) * term_c1(k, m)


def _d_series(k: int, order: int):
    """The truncated series of 1/(u/q; 1/q^2)_k through u^order."""
    return reciprocal_pochhammer_series(q_power(-1), q_power(-2), k, order)


def _d_term(k: int, m: int, series) -> Cleared:
    """term_d(k, m) read from ``_d_series(k, order)`` for any order >= m - k:
    the coefficients do not depend on the order the series is truncated at."""
    head = q_power(-(2 * k * k - k)) / pochhammer_inv_q2(k - 1)
    return head * series.coefficient(m - k)


def term_d(k: int, m: int) -> Cleared:
    """Even first-column class term of the even-size sign -1 sum.

    The coefficient of u^{m-k} is extracted from the truncated series of
    1/(u/q; 1/q^2)_k rather than from the closed form, so the comparison
    against term_b2 genuinely crosses two computation routes.
    """
    _require_range(k, 1, m)
    return _d_term(k, m, _d_series(k, m - k))


def sum_ab(m: int) -> Cleared:
    return csum(term_a(k, m) + term_b(k, m) for k in range(1, m + 1))


def sum_c(m: int) -> Cleared:
    return csum(term_c(k, m) for k in range(1, m + 2))


def sum_d(m: int) -> Cleared:
    return csum(term_d(k, m) for k in range(1, m + 1))


# ---------------------------------------------------------------------------
# Closed forms and hypergeometric rewrites of the term sums
# ---------------------------------------------------------------------------

def sum_a2_closed(m: int) -> Cleared:
    """1/(q^m (1+q)) * sum_{i=1}^{m} (-1)^{i-1} q^{-i(i+1)} (1 - q^{2i})
    / (1/q^2;1/q^2)_{m-i}."""
    body = _alternating(m, 1, lambda i: q_power(-i * (i + 1)) * (1 - q_power(2 * i)))
    return q_power(-m) * body / (1 + q)


def sum_b2_closed(m: int) -> Cleared:
    """q^{-m} * sum_{i=1}^{m} (-1)^{i-1} q^{-i(i+1)} q^{2i}
    / (1/q^2;1/q^2)_{m-i}."""
    body = _alternating(m, 1, lambda i: q_power(-i * (i + 1)) * q_power(2 * i))
    return q_power(-m) * body


def sum_c2_closed(m: int) -> Cleared:
    """q^{-m-1} * sum_{i=0}^{m} (-1)^{i-1} q^{-i(i+1)} / (1/q^2;1/q^2)_{m-i}."""
    return q_power(-(m + 1)) * _alternating(m, 0, lambda i: q_power(-i * (i + 1)))


def sum_c1_closed(m: int) -> Cleared:
    """1/(q^m (1/q^2;1/q^2)_m)."""
    return q_power(-m) / pochhammer_inv_q2(m)


def hyper_sum_a2(m: int) -> Cleared:
    """The a2 sum as an explicit basic hypergeometric s-sum."""
    return q_power(-m) * (1 - q) * _s_sum(m, lambda s: -s * s - 3 * s - 2 * s * m - 2)


def hyper_sum_b2(m: int) -> Cleared:
    """The b2 sum as an explicit basic hypergeometric s-sum."""
    return q_power(-m) * _s_sum(m, lambda s: -s * s - s - 2 * s * m)


def phi_sum_a2(m: int) -> Cleared:
    """The a2 sum through the large-b limit of the terminating 2phi1."""
    return q_power(-m - 2) * (1 - q) * _limit(m - 1, -2 * m - 4)


def phi_sum_b2(m: int) -> Cleared:
    """The b2 sum through the large-b limit of the terminating 2phi1."""
    return q_power(-m) * _limit(m - 1, -2 * m - 2)


def hyper_sum_c1(m: int) -> Cleared:
    """The c1 sum as an explicit k-sum with ascending base q^2."""
    body = csum(
        pochhammer(q_power(-2 * m), q_power(2), k)
        / pochhammer_inv_q2(k) ** 2
        * q_power(-2 * k * k)
        for k in range(m + 1)
    )
    return q_power(-m) * body


def phi_sum_c1(m: int) -> Cleared:
    """The c1 sum through the large-b limit of the terminating 2phi1."""
    return q_power(-m) * _limit(m, -2 * m - 2)


# ---------------------------------------------------------------------------
# Checks: one registry, one runner
# ---------------------------------------------------------------------------

#: Identity id -> check (m_max -> VerificationReport), in report order.
CHECKS: dict[str, Callable[[int], VerificationReport]] = {}


def _check(identity: str):
    """Register a generator of (index, lhs, rhs) rows as the check of
    ``identity``.  The decorated name becomes the check: a function of m_max
    that records every row, in order, in one VerificationReport.  An m_max
    below 1 raises ValueError, since some checks would then compare
    nothing."""

    def register(rows):
        @wraps(rows)
        def check(m_max: int) -> VerificationReport:
            if m_max < 1:
                raise ValueError("m_max must be at least 1")
            report = VerificationReport(identity, params={"m_max": m_max})
            for index, lhs, rhs in rows(m_max):
                report.record(index, lhs, rhs)
            return report

        CHECKS[identity] = check
        return check

    return register


@_check("ANZ1")
def check_anz1(m_max: int):
    lhs = _sweep(*_ANZ1, 2 * m_max)
    for m in range(m_max + 1):
        yield {"m": m}, lhs[2 * m], rhs_anz1(m)


@_check("ANZ2")
def check_anz2(m_max: int):
    lhs = _sweep(*_ANZ23, 2 * m_max + 1)
    for m in range(m_max + 1):
        yield {"m": m}, lhs[2 * m + 1], rhs_anz2(m)


@_check("ANZ3")
def check_anz3(m_max: int):
    lhs = _sweep(*_ANZ23, 2 * m_max + 1)
    for m in range(m_max + 1):
        yield {"m": m}, lhs[2 * m], rhs_anz3(m)


@_check("EQ4")
def check_eq4(m_max: int):
    """The term sum for the sign +1 identity against both the closed right
    side and the enumeration left side (the bridge)."""
    lhs = _sweep(*_ANZ1, 2 * m_max)
    for m in range(m_max + 1):
        total = sum_ab(m)
        yield {"m": m, "route": "terms-vs-closed"}, total, rhs_anz1(m)
        yield {"m": m, "route": "terms-vs-enumeration"}, total, lhs[2 * m]


@_check("EQ5")
def check_eq5(m_max: int):
    """The c-term sum against both the closed right side and the
    enumeration left side of the odd-size sign -1 identity."""
    lhs = _sweep(*_ANZ23, 2 * m_max + 1)
    for m in range(m_max + 1):
        total = sum_c(m)
        yield {"m": m, "route": "terms-vs-closed"}, total, rhs_anz2(m)
        yield {"m": m, "route": "terms-vs-enumeration"}, total, lhs[2 * m + 1]


@_check("A2_SUM")
def check_a2_sum(m_max: int):
    for m in range(1, m_max + 1):
        direct = csum(term_a2(k, m) for k in range(1, m + 1))
        yield {"m": m, "route": "direct-vs-closed"}, direct, sum_a2_closed(m)
        yield {"m": m, "route": "direct-vs-hyper"}, direct, hyper_sum_a2(m)
        yield {"m": m, "route": "direct-vs-limit-2phi1"}, direct, phi_sum_a2(m)


@_check("B2_SUM")
def check_b2_sum(m_max: int):
    for m in range(1, m_max + 1):
        direct = csum(term_b2(k, m) for k in range(1, m + 1))
        yield {"m": m, "route": "direct-vs-closed"}, direct, sum_b2_closed(m)
        yield {"m": m, "route": "direct-vs-hyper"}, direct, hyper_sum_b2(m)
        yield {"m": m, "route": "direct-vs-limit-2phi1"}, direct, phi_sum_b2(m)


@_check("C2_SUM")
def check_c2_sum(m_max: int):
    """Direct c2 sum against its closed form, plus the termwise relation
    c2_k = -b2_k with m replaced by m+1."""
    for m in range(m_max + 1):
        direct = csum(term_c2(k, m) for k in range(1, m + 2))
        yield {"m": m, "route": "direct-vs-closed"}, direct, sum_c2_closed(m)
        for k in range(1, m + 2):
            index = {"m": m, "k": k, "route": "c2-vs-neg-b2-shift"}
            yield index, term_c2(k, m), -term_b2(k, m + 1)


@_check("C1_SUM")
def check_c1_sum(m_max: int):
    for m in range(m_max + 1):
        direct = csum(term_c1(k, m) for k in range(1, m + 2))
        yield {"m": m, "route": "direct-vs-closed"}, direct, sum_c1_closed(m)
        yield {"m": m, "route": "direct-vs-hyper"}, direct, hyper_sum_c1(m)
        yield {"m": m, "route": "direct-vs-limit-2phi1"}, direct, phi_sum_c1(m)


@_check("AB_SPLIT")
def check_splits(m_max: int):
    """Termwise regroupings: a_k + b_k = a2_k + b2_k and c_k = c1_k + c2_k."""
    for m in range(1, m_max + 1):
        for k in range(1, m + 1):
            index = {"m": m, "k": k, "route": "ab-vs-a2b2"}
            yield index, term_a(k, m) + term_b(k, m), term_a2(k, m) + term_b2(k, m)
    for m in range(m_max + 1):
        for k in range(1, m + 2):
            index = {"m": m, "k": k, "route": "c-vs-c1c2"}
            yield index, term_c(k, m), term_c1(k, m) + term_c2(k, m)


@_check("D_EQ_B2")
def check_d(m_max: int):
    """d_k = b2_k termwise (series extraction vs closed coefficient), and
    the d sum against both sides of the even-size sign -1 identity."""
    lhs = _sweep(*_ANZ23, 2 * m_max + 1)
    series = {k: _d_series(k, m_max - k) for k in range(1, m_max + 1)}
    d = {
        (k, m): _d_term(k, m, series[k])
        for m in range(1, m_max + 1)
        for k in range(1, m + 1)
    }
    for (k, m), value in d.items():
        yield {"m": m, "k": k, "route": "d-vs-b2"}, value, term_b2(k, m)
    for m in range(m_max + 1):
        total = csum(d[k, m] for k in range(1, m + 1))
        yield {"m": m, "route": "terms-vs-closed"}, total, rhs_anz3(m)
        yield {"m": m, "route": "terms-vs-enumeration"}, total, lhs[2 * m]


@_check("FINAL_COMBINE")
def check_final_combine(m_max: int):
    """The recombination that finishes the sign +1 identity:
    (1-q^{2i})/(1+q) + q^{2i} = (q^{2i+1}+1)/(1+q) per index, and
    sum_a2_closed + sum_b2_closed = rhs_anz1 per m."""
    for i in range(1, m_max + 1):
        yield (
            {"i": i, "route": "per-index"},
            (1 - q_power(2 * i)) / (1 + q) + q_power(2 * i),
            (q_power(2 * i + 1) + 1) / (1 + q),
        )
    for m in range(1, m_max + 1):
        index = {"m": m, "route": "closed-sums-vs-rhs"}
        yield index, sum_a2_closed(m) + sum_b2_closed(m), rhs_anz1(m)


IDENTITY_IDS = tuple(CHECKS)
_CHECKS = tuple(CHECKS.values())

#: CLI selector -> identity ids, in output order.  This is not registry
#: order: ``verify eq5`` reports C1_SUM before C2_SUM.
SELECTORS = {
    "anz1": ("ANZ1",),
    "anz2": ("ANZ2",),
    "anz3": ("ANZ3",),
    "eq4": ("EQ4", "A2_SUM", "B2_SUM", "FINAL_COMBINE"),
    "eq5": ("EQ5", "C1_SUM", "C2_SUM"),
    "splits": ("AB_SPLIT", "D_EQ_B2"),
}


def verify_all(
    m_max: int = 10,
    seed: int = DEFAULT_SEED,
    qseries_n_max: int = 8,
    tuples_per_n: int = 20,
) -> list[VerificationReport]:
    """Run every identity check for m up to m_max plus the randomized
    hypergeometric sweeps; returns the reports in a stable order."""
    reports = [check(m_max) for check in CHECKS.values()]
    reports.extend(
        random_hypergeometric_reports(
            n_max=qseries_n_max, tuples_per_n=tuples_per_n, seed=seed
        )
    )
    return reports
