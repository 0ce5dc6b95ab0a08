"""Symplectic- and orthogonal-type measures on integer partitions.

Each family weights a partition by u^size times the exact unit
partitions.kernel_weight, normalized by the infinite product
prod_{i>=1} (1 - u^2/q^{2i-1}) (divided by 1+u for the orthogonal family).
Every exact value is a ``cleared.Cleared``, so the series below compute on
the integer kernel with no polynomial gcd and divide no series: each
marginal coefficient is a unit times ``identities.coeff_u_lemma``.  The
marginals are checked against ``partitions.column_table``, the weights
summed by first column; the numeric weights evaluate it on integer pairs.

The infinite product is handled two ways:

* for identity checks it is expanded exactly as a truncated series in u by
  Euler's formula (Andrews, *The Theory of Partitions*, ch. 2), with x = 1/q:
  prod_{i>=1} (1 - u^2 x^{2i-1}) = sum_j (-1)^j x^{j^2} u^{2j} / (x^2;x^2)_j;
  only finitely many coefficients are needed, and each is a unit;
* for numeric probabilities it is truncated to ``product_cutoff`` factors,
  with a certified multiplicative tail bound from the geometric series.

The sampler draws from the renormalized restriction of the measure to
partitions of bounded size; the normalizing product cancels there, so the
draw weights are exact rationals.  Their CDF is kept as integer thresholds
T_i = ceil(cdf_i * 2^53).  ``random.Random.random()`` returns k / 2^53 for
an integer 0 <= k < 2^53, and for an integer k, cdf_i > k / 2^53 holds
exactly when T_i > k, so bisecting the integers T at k draws the same
partition as bisecting the exact rational CDF at random().  Every T_i and
every k is an integer of at most 2^53, hence an exact double, so the draws
bisect a float copy of T at the float k with the same outcome.  A sample is
planned (``plan_sample``) before its first draw, and ``SamplePlan.draw``
then yields the draws in batches of ``BATCH``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, repeat, starmap

from .cleared import ONE, ZERO, csum, pochhammer_inv_q2, q_power
from .identities import coeff_u_lemma
from .partitions import ParityConstraint, Partition, column_table
from .partitions import enumerate_partitions, kernel_weight  # noqa: F401 -- tests patch it
from .qseries import TruncatedSeries, pochhammer
from .report import VerificationReport


class Family(Enum):
    """The two measure families and their partition constraints."""

    SP = "sp"
    O = "o"

    @property
    def constraint(self) -> ParityConstraint:
        if self is Family.SP:
            return ParityConstraint.ODD_PARTS_EVEN_MULTIPLICITY
        return ParityConstraint.EVEN_PARTS_EVEN_MULTIPLICITY

    @property
    def sign(self) -> int:
        return +1 if self is Family.SP else -1


def _tail_bound(q: Fraction, u: Fraction, cutoff: int) -> Fraction:
    """sum_{i > cutoff} u^2 / q^{2i-1}, in closed form (a geometric series)."""
    return u**2 * q ** (1 - 2 * cutoff) / (q**2 - 1)


@dataclass(frozen=True)
class MeasureParams:
    """Numeric evaluation parameters: the point (q, u) and the cutoff I of
    the normalizing product, with its certified relative tail bound."""

    q: Fraction
    u: Fraction
    product_cutoff: int
    tail_tolerance: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "u", Fraction(self.u))
        object.__setattr__(self, "tail_tolerance", Fraction(self.tail_tolerance))
        if self.q <= 1:
            raise ValueError("q must exceed 1")
        if not 0 < self.u < 1:
            raise ValueError("u must lie strictly between 0 and 1")
        if self.product_cutoff < 0:
            raise ValueError("product cutoff must be nonnegative")
        if self.tail_tolerance <= 0:
            raise ValueError("tail tolerance must be positive")
        if self.tail_bound > self.tail_tolerance:
            raise ValueError(
                f"cutoff {self.product_cutoff} leaves tail bound "
                f"{self.tail_bound} > tolerance {self.tail_tolerance}"
            )

    @property
    def tail_bound(self) -> Fraction:
        """Upper bound on sum_{i > cutoff} u^2 / q^{2i-1}; the truncated
        product exceeds the infinite one by at most this relative amount."""
        return _tail_bound(self.q, self.u, self.product_cutoff)

    @classmethod
    def with_tolerance(cls, q, u, tolerance) -> "MeasureParams":
        """Choose the smallest cutoff whose tail bound meets the tolerance.

        The bound falls as the cutoff grows, so the search doubles an upper
        cutoff until the bound meets the tolerance and then bisects, with
        the exact comparison at every step: O(log cutoff) comparisons
        instead of one per cutoff (the cutoff grows like 1/(q - 1))."""
        q, u, tolerance = Fraction(q), Fraction(u), Fraction(tolerance)
        if q <= 1 or not 0 < u < 1 or tolerance <= 0:
            raise ValueError("need q > 1, 0 < u < 1 and a positive tolerance")

        def too_loose(cutoff: int) -> bool:
            return _tail_bound(q, u, cutoff) > tolerance

        low, high = -1, 0  # too_loose(low) holds (vacuously at -1)
        while too_loose(high):
            low, high = high, 2 * high + 1
        while high - low > 1:
            mid = (low + high) // 2
            if too_loose(mid):
                low = mid
            else:
                high = mid
        return cls(q, u, high, tolerance)


def truncated_prefactor(family: Family, params: MeasureParams) -> Fraction:
    """prod_{i=1}^{cutoff} (1 - u^2/q^{2i-1}) = (u^2/q; 1/q^2)_cutoff,
    divided by 1+u for O."""
    q, u = params.q, params.u
    value = pochhammer(u**2 / q, 1 / q**2, params.product_cutoff)
    return value / (1 + u) if family is Family.O else value


@dataclass(frozen=True)
class ProbValue:
    """An exact probability computed with the truncated normalizer.

    The true probability lies in [value * (1 - tail_bound), value].
    """

    value: Fraction
    tail_bound: Fraction


def prob(partition: Partition, family: Family, params: MeasureParams) -> ProbValue:
    """Measure of one partition, exactly 0 if the constraint fails."""
    if not family.constraint.admits(partition):
        return ProbValue(Fraction(0), Fraction(0))
    value = truncated_prefactor(family, params) * _weights([partition], family, params)[0]
    return ProbValue(value, params.tail_bound)


# ---------------------------------------------------------------------------
# Exact series identities: first-column marginals and normalization
# ---------------------------------------------------------------------------

def marginal_series(family: Family, parity: str, k: int, order: int) -> TruncatedSeries:
    """Core series in u of the first-column class (without the shared
    normalizing prefactor, and without 1/(1+u) for O):

        SP, column 2k:    u^{2k} / (q^{2k^2+k} (1/q^2;1/q^2)_k   (u^2/q;1/q^2)_k)
        SP, column 2k-1:  u^{2k} / (q^{2k^2-k} (1/q^2;1/q^2)_{k-1}(u^2/q;1/q^2)_k)
        O,  column 2k-1:  u^{2k-1}/(q^{2k^2-3k+1}(1/q^2;1/q^2)_{k-1}(u^2/q;1/q^2)_k)
        O,  column 2k:    u^{2k} / (q^{2k^2-k} (1/q^2;1/q^2)_k   (u^2/q;1/q^2)_k)

    k = 0 with even parity is the empty-partition class, the constant 1.
    By the q-binomial theorem, u^{2n} has the coefficient
    ``coeff_u_lemma(k, k + n)`` in 1/(u^2/q;1/q^2)_k, so each coefficient
    is set as a product of two units.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0 and parity == "odd":
        raise ValueError("the odd-column index starts at k = 1")
    if family is Family.SP:
        if parity == "even":
            lead, expo, poch_len = 2 * k, 2 * k * k + k, k
        else:
            lead, expo, poch_len = 2 * k, 2 * k * k - k, k - 1
    else:
        if parity == "odd":
            lead, expo, poch_len = 2 * k - 1, 2 * k * k - 3 * k + 1, k - 1
        else:
            lead, expo, poch_len = 2 * k, 2 * k * k - k, k
    head = q_power(-expo) / pochhammer_inv_q2(poch_len)
    coeffs = [ZERO] * (order + 1)
    for n in range((order - lead) // 2 + 1):
        coeffs[lead + 2 * n] = head * coeff_u_lemma(k, k + n)
    return TruncatedSeries(order, tuple(coeffs))


def first_column_marginal(family: Family, column: int, order: int) -> TruncatedSeries:
    """Marginal core series for a literal first-column value."""
    if column < 0:
        raise ValueError("column must be nonnegative")
    if column % 2 == 0:
        return marginal_series(family, "even", column // 2, order)
    return marginal_series(family, "odd", (column + 1) // 2, order)


def marginal_vs_bruteforce(family: Family, k_max: int, order: int) -> VerificationReport:
    """Compare every marginal coefficient of u^j (j <= order) for first
    columns up to 2*k_max against the kernel weights of that class summed by
    ``column_table``; a negative k_max, which compares nothing, raises ValueError."""
    if k_max < 0:
        raise ValueError("k_max must be at least 0")
    report = VerificationReport(
        f"marginals-{family.value}", params={"k_max": k_max, "order": order}
    )
    table = column_table(family.constraint, family.sign, order, 2 * k_max)
    for column in range(2 * k_max + 1):
        series = first_column_marginal(family, column, order)
        for j in range(order + 1):
            brute = table.get((j, column), ZERO)
            report.record({"column": column, "u_power": j}, series.coefficient(j), brute)
    return report


def prefactor_series(order: int) -> TruncatedSeries:
    """Exact expansion of prod_{i>=1} (1 - u^2/q^{2i-1}) through u^order.

    By Euler's formula the coefficient of u^{2j} is the unit
    (-1)^j q^{-j^2} / (1/q^2;1/q^2)_j and every odd power vanishes, so the
    truncation is exact even though every factor of the product
    contributes at order u^2.
    """
    coeffs = [ZERO] * (order + 1)
    for j in range(order // 2 + 1):
        term = q_power(-j * j) / pochhammer_inv_q2(j)
        coeffs[2 * j] = -term if j % 2 else term
    return TruncatedSeries(order, tuple(coeffs))


def normalization_check(family: Family, order: int) -> VerificationReport:
    """Verify, coefficient by coefficient through u^order, that the sum of
    all first-column marginal cores times the family prefactor equals 1."""
    report = VerificationReport(
        f"normalization-{family.value}", params={"order": order}
    )
    # column c starts at u^c or later, so columns 0..order cover u^0..u^order
    columns = [first_column_marginal(family, c, order) for c in range(order + 1)]
    total = TruncatedSeries(
        order, tuple(csum(s.coeffs[j] for s in columns) for j in range(order + 1))
    )
    product = list((total * prefactor_series(order)).coeffs)
    if family is Family.O:  # divided by 1 + u in place, j ascending
        for j in range(1, order + 1):
            product[j] -= product[j - 1]
    for j in range(order + 1):
        report.record({"u_power": j}, product[j], ONE if j == 0 else ZERO)
    return report


# ---------------------------------------------------------------------------
# Truncated-support sampling
# ---------------------------------------------------------------------------

def _weights(partitions, family: Family, params: MeasureParams) -> list[Fraction]:
    """u^size * kernel_weight(p, family.sign) at q = a/b for each partition
    p, on integer pairs.  With x = b/a, the exponent E of x is split as in
    ``column_table``: a run of m parts v, with N parts >= v and the next
    part w < v (0 after the last), adds (v - w) binom(N, 2) + m g(v), and
    1/(x^2;x^2)_k is the tabled pair a^{k(k+1)} / prod_{i<=k} (a^{2i} - b^{2i})."""
    a, b = params.q.numerator, params.q.denominator
    c, d = params.u.numerator, params.u.denominator
    odd = 1 if family.sign == 1 else 0  # g(v) = (v + odd) // 2
    table = [(0, 1)]  # 1/(x^2;x^2)_k as (power of a, integer denominator)
    weights = []
    for p in partitions:
        parts = p.parts + (0,)  # the part 0 ends the last run
        den, size, expo, a_expo, count = 1, 0, 0, 0, 0
        while parts[count]:  # count: N, the parts >= v
            v = parts[count]
            m = parts.count(v)
            count += m
            size += m * v
            expo += (v - parts[count]) * (count * (count - 1) // 2) + m * ((v + odd) // 2)
            k = m // 2
            while len(table) <= k:
                i, (last_expo, last_den) = len(table), table[-1]
                table.append((last_expo + 2 * i, last_den * (a ** (2 * i) - b ** (2 * i))))
            a_expo += table[k][0]
            den *= table[k][1]
        a_expo -= expo
        num, den = c**size * b**expo * a ** max(a_expo, 0), d**size * den * a ** max(-a_expo, 0)
        weights.append(Fraction(num, den))
    return weights


def support_weights(
    family: Family, params: MeasureParams, max_size: int
) -> tuple[list[Partition], list[Fraction]]:
    """Unnormalized weights u^size * coefficient(q) over the truncated
    support, in enumeration order with sizes ascending.  Each is positive
    (q > 1 and 0 < u < 1), and the first, the empty partition's, is 1."""
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    support = [p for n in range(max_size + 1) for p in enumerate_partitions(n, family.constraint)]
    return support, _weights(support, family, params)


def truncated_distribution(
    family: Family, params: MeasureParams, max_size: int
) -> list[tuple[Partition, Fraction]]:
    """The measure renormalized to partitions of size <= max_size, as exact
    rationals (the normalizing product cancels in the renormalization)."""
    support, weights = support_weights(family, params, max_size)
    total = sum(weights)  # >= 1, as support_weights says
    return [(p, w / total) for p, w in zip(support, weights)]


def truncated_mass_bound(params: MeasureParams, support_mass: Fraction) -> Fraction:
    """Upper bound on the true measure outside the support, given the
    probability ``support_mass`` computed for the support with the truncated
    prefactor: 1 - (1 - tail_bound) * support_mass, clamped at 0."""
    return max(1 - (1 - params.tail_bound) * support_mass, Fraction(0))


#: random.Random.random() returns k / RANDOM_SCALE for an integer k.
RANDOM_SCALE = 1 << 53


def cdf_thresholds(weights: list[Fraction], total: Fraction) -> list[int]:
    """The integer inverse-CDF thresholds T_i = ceil(cdf_i * 2^53) of the
    positive ``weights``, where cdf_i is their i-th partial sum over
    ``total``; the last threshold is 2^53.  Each T_i lies in [1, 2^53], and
    every integer of at most 2^53 is a double, so ``float(T_i) == T_i``."""
    thresholds = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        thresholds.append(math.ceil(acc * RANDOM_SCALE / total))
    return thresholds


#: Draws per batch of ``SamplePlan.draw``: each batch is drawn, checked and
#: bisected in C-level passes, so memory stays bounded at any count.
BATCH = 1 << 16


@dataclass(frozen=True)
class SamplePlan:
    """Everything a sample fixes before its first draw: the enumerated
    truncated support, the float grid of its ``cdf_thresholds`` and the
    truncation accounting."""

    family: Family
    params: MeasureParams
    max_size: int
    seed: int
    support: tuple[Partition, ...]
    grid: tuple[float, ...]
    support_probability: Fraction
    truncated_mass_bound: Fraction

    def metadata(self) -> dict:
        """The parameters and the truncation accounting, as JSON values."""
        return {
            "family": self.family.value,
            "params": {
                "q": str(self.params.q),
                "u": str(self.params.u),
                "product_cutoff": self.params.product_cutoff,
                "tail_tolerance": str(self.params.tail_tolerance),
            },
            "max_size": self.max_size,
            "seed": self.seed,
            "support_probability": str(self.support_probability),
            "truncated_mass_bound": str(self.truncated_mass_bound),
        }

    def draw(self, count: int):
        """Yield the support indices of ``count`` draws from
        ``random.Random(seed)``, in lists of at most ``BATCH``.

        Each draw takes k = random() * 2^53, an exact integer below 2^53,
        and is kept as the support index ``bisect_right(grid, k)``.  Since
        cdf_i > k / 2^53 exactly when T_i > k, this is the index the exact
        rational CDF gives at random(); the last threshold, 2^53, exceeds
        every k.  Every T_i and every k is an integer of at most 2^53, hence
        an exact double, so each float comparison is the integer one.

        Each batch is checked before it is bisected: a random() that is not
        k / 2^53 with 0 <= k < 2^53 (0.1, 1.0, a negative value, inf or NaN)
        raises ValueError, naming the first such value, instead of being
        drawn."""
        rng = random.Random(self.seed)
        scale = float(RANDOM_SCALE)
        for start in range(0, count, BATCH):
            draws = starmap(rng.random, repeat((), min(BATCH, count - start)))
            xs = list(map(scale.__mul__, draws))  # exact: a power-of-two scaling
            if not (all(map(float.is_integer, xs)) and min(xs) >= 0 and max(xs) < scale):
                x = next(x for x in xs if not (x.is_integer() and 0 <= x < scale))
                raise ValueError(f"random() returned {x / scale!r}, not k / 2^53 in [0, 1)")
            yield list(map(bisect_right, repeat(self.grid), xs))

    def rows(self, batches, render):
        """``render(p)`` for the partition p of every support index, one list
        per batch of indices (such as those of ``draw``).  ``render`` runs
        once per distinct index, and its result is shared by all of that
        index's draws in every batch."""
        rendered: dict[int, object] = {}
        for batch in batches:
            for i in set(batch).difference(rendered):
                rendered[i] = render(self.support[i])
            yield list(map(rendered.__getitem__, batch))


@dataclass(frozen=True)
class SampleResult(SamplePlan):
    """Draws from the truncated measure plus the truncation accounting.

    The draws are kept as ``indices`` into ``support``, the enumerated
    truncated support; ``partitions`` maps them to the partitions."""

    indices: tuple[int, ...]

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return tuple(map(self.support.__getitem__, self.indices))

    def render_draws(self, render) -> list:
        """``render(p)`` for every draw p, in draw order, from ``rows``."""
        return next(self.rows([self.indices], render))

    def to_json_dict(self) -> dict:
        return {
            "samples": self.render_draws(Partition.to_json),
            "metadata": self.metadata(),
        }


def plan_sample(family: Family, params: MeasureParams, max_size: int, seed: int) -> SamplePlan:
    """The ``SamplePlan`` of draws over the enumerated truncated support.

    A negative seed raises ValueError: ``random.Random`` seeds an int from
    its absolute value, so -s would repeat the draws of s.
    ``truncated_mass_bound`` is a rigorous upper bound on the true measure
    of partitions outside the support, combining the enumerated mass with
    the prefactor tail bound."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    support, weights = support_weights(family, params, max_size)
    total = sum(weights)  # >= 1, as support_weights says
    raw_mass = truncated_prefactor(family, params) * total
    return SamplePlan(
        family=family,
        params=params,
        max_size=max_size,
        seed=seed,
        support=tuple(support),
        grid=tuple([float(t) for t in cdf_thresholds(weights, total)]),  # exact
        support_probability=raw_mass,
        truncated_mass_bound=truncated_mass_bound(params, raw_mass),
    )


def sample(
    family: Family,
    params: MeasureParams,
    max_size: int,
    count: int,
    seed: int,
) -> SampleResult:
    """``count`` inverse-CDF draws over the enumerated truncated support:
    the batches of ``plan_sample(...).draw(count)``, collected.
    Deterministic for a fixed seed; a negative count or seed raises
    ValueError."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    plan = plan_sample(family, params, max_size, seed)
    indices = tuple(chain.from_iterable(plan.draw(count)))
    return SampleResult(**vars(plan), indices=indices)
