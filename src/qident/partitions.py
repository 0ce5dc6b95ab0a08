"""Integer partitions, parity-constrained enumeration, and exact weights.

A partition is a weakly decreasing tuple of positive parts.  The statistics
used by the weight formulas are cached on the partition: size, column
lengths of the diagram (the conjugate parts), part multiplicities, and the
number of odd parts.

Two parity constraints matter here: "every odd part has even multiplicity"
(the symplectic side, weight exponent sign +1) and "every even part has
even multiplicity" (the orthogonal side, sign -1).

``kernel_weight`` builds the weight on the integer kernel from
``multiplicity_factors``; ``identities.summand_weight`` is it times its head
(1 - x^{columns_1}), and ``column_table`` sums it by size and first column
for the ANZ sides and the marginals.
``cl_numerator`` computes the same weights in Q(q), and ``summand_weight``
is its coefficient times the head: the independent route the tests check
the kernel against.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, reduce

from .cleared import ONE, Cleared, csum
from .qseries import pochhammer_inv_q2
from .rational import RationalFunction, q_power


class ParityConstraint(Enum):
    """Which part parities are forced to occur an even number of times."""

    NONE = "none"
    ODD_PARTS_EVEN_MULTIPLICITY = "odd-even-mult"
    EVEN_PARTS_EVEN_MULTIPLICITY = "even-even-mult"

    def admits_run(self, part: int, multiplicity: int) -> bool:
        if self is ParityConstraint.ODD_PARTS_EVEN_MULTIPLICITY:
            return part % 2 == 0 or multiplicity % 2 == 0
        if self is ParityConstraint.EVEN_PARTS_EVEN_MULTIPLICITY:
            return part % 2 == 1 or multiplicity % 2 == 0
        return True

    def admits(self, partition: "Partition") -> bool:
        return all(
            self.admits_run(part, mult)
            for part, mult in partition.multiplicities.items()
        )


class Partition:
    """Immutable integer partition with cached statistics."""

    def __init__(self, parts=()):
        parts = tuple(parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        self.parts = parts

    @cached_property
    def size(self) -> int:
        return sum(self.parts)

    @cached_property
    def num_parts(self) -> int:
        """The first column length of the diagram."""
        return len(self.parts)

    @cached_property
    def multiplicities(self) -> dict[int, int]:
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Column lengths of the diagram, i.e. the conjugate's parts."""
        parts = self.parts
        columns = []
        count = len(parts)  # parts >= i, found from the smallest part up
        for i in range(1, parts[0] + 1 if parts else 1):
            while parts[count - 1] < i:
                count -= 1
            columns.append(count)
        return tuple(columns)

    @cached_property
    def odd_count(self) -> int:
        return sum(1 for p in self.parts if p % 2)

    def conjugate(self) -> "Partition":
        return Partition(self.columns)

    def to_json(self) -> list[int]:
        return list(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)!r})"

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")" if self.parts else "()"


def enumerate_partitions(
    n: int, constraint: ParityConstraint = ParityConstraint.NONE
) -> list[Partition]:
    """All partitions of n admitted by the constraint, in descending
    lexicographic order of their part sequences; n = 0 gives the empty
    partition (which every constraint admits vacuously).

    The generator works run by run -- it fixes a part value and its full
    multiplicity before descending -- so constrained branches are pruned
    without filtering the unconstrained list.
    """
    if n < 0:
        raise ValueError("partition size must be nonnegative")
    out: list[Partition] = []
    acc: list[int] = []

    def descend(remaining: int, max_part: int) -> None:
        if remaining == 0:
            out.append(Partition(acc))
            return
        for part in range(min(max_part, remaining), 0, -1):
            for mult in range(remaining // part, 0, -1):
                if not constraint.admits_run(part, mult):
                    continue
                acc.extend([part] * mult)
                descend(remaining - part * mult, part - 1)
                del acc[len(acc) - mult:]

    descend(n, n)
    return out


def weight_exponent(partition: Partition, sign: int) -> int:
    """The integer (sum_i columns_i^2 + sign * odd_count) / 2.

    Integrality holds for every partition because both the column-square
    sum and the odd-part count are congruent to the size mod 2; a violation
    would indicate corrupted statistics, so it raises rather than rounding.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    total = sum(c * c for c in partition.columns) + sign * partition.odd_count
    if total % 2:
        raise ValueError(f"non-integral weight exponent for {partition}")
    return total // 2


def multiplicity_factors(partition: Partition) -> dict[int, int]:
    """prod_i (x^2;x^2)_{floor(m_i / 2)} with x = 1/q, as the exponent e_j
    of each factor (1 - x^j): the denominator of a kernel weight."""
    exps: dict[int, int] = {}
    for mult in partition.multiplicities.values():
        for j in range(2, mult + 1, 2):
            exps[j] = exps.get(j, 0) + 1
    return exps


def summand_weight(partition: Partition, sign: int) -> RationalFunction:
    """The summand attached to a partition on the enumeration side of the
    target identities: the ``cl_numerator`` coefficient times the head
    (1 - q^{-columns_1}).  The empty partition weighs exactly 0 because
    1 - q^0 = 0."""
    return (1 - q_power(-partition.num_parts)) * cl_numerator(partition, sign)[0]


def cl_numerator(partition: Partition, sign: int) -> tuple[RationalFunction, int]:
    """The partition-dependent factor of the Cohen-Lenstra type measures,
    without the shared normalizing product: returns (coefficient, power)
    where the measure's lambda-term is coefficient * u^power, with

        coefficient = 1 / (q^{weight_exponent} * prod_i (1/q^2;1/q^2)_{floor(m_i/2)})

    over the parts i present; the empty partition gives (1, 0)."""
    pochhammers = reduce(
        lambda acc, m: acc * pochhammer_inv_q2(m // 2),
        partition.multiplicities.values(),
        RationalFunction.one(),
    )
    return q_power(-weight_exponent(partition, sign)) / pochhammers, partition.size


def kernel_weight(partition: Partition, sign: int) -> Cleared:
    """The coefficient of ``cl_numerator`` on the integer kernel, a unit:
    x^{weight_exponent} / prod_i (x^2;x^2)_{floor(m_i/2)} with x = 1/q."""
    exps = multiplicity_factors(partition)
    return Cleared(shift=weight_exponent(partition, sign), exps=exps)


def column_table(
    constraint: ParityConstraint, sign: int, n: int, max_column: int | None = None
) -> dict:
    """{(size, N_1): sum of kernel_weight(p, sign)} over the partitions p of
    sizes <= n under constraint, N_1 their first column; empty classes are absent.
    With N_v the number of parts >= v, sum_i columns_i^2 = 2 sum_v
    binom(N_v, 2) + size, so a kernel weight is x^{sum_v binom(N_v, 2) +
    sum_parts g(p)} over prod_v (x^2;x^2)_{floor(m_v/2)}, with g(p) =
    ceil(p/2) for sign +1 and floor(p/2) for sign -1.  Each factor depends
    on one part value v and N_v alone, so a transfer-matrix sweep over
    v = n, ..., 1 with the state (size so far, N_v) sums all the weights.
    N_v only grows as v falls, so with ``max_column`` a run that takes N_v
    past it is skipped, and the table holds the columns N_1 <= max_column."""
    g = (lambda v: (v + 1) // 2) if sign == 1 else (lambda v: v // 2)
    if max_column is None:
        max_column = n  # N_1 <= size <= n
    state = {(0, 0): ONE}
    for v in range(n, 0, -1):
        # run of mult parts v: x^{mult g(v)} / (x^2;x^2)_{floor(mult/2)}
        runs = [
            (mult, Cleared(shift=mult * g(v), exps=[(2 * i, 1) for i in range(1, mult // 2 + 1)]))
            for mult in range(n // v + 1)
            if not mult or constraint.admits_run(v, mult)
        ]
        buckets: dict[tuple[int, int], list] = {}
        for (size, count), value in state.items():
            top = min((n - size) // v, max_column - count)  # the largest mult
            for mult, run in runs:
                if mult > top:
                    break
                buckets.setdefault((size + mult * v, count + mult), []).append(value * run)
        state = {
            (size, count): csum(terms) * Cleared(shift=count * (count - 1) // 2)
            for (size, count), terms in buckets.items()
        }
    return state
