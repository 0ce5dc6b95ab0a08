"""An independent witness for ANZ1-3 in plain integers modulo a prime.

Every chain comparison goes through the kernel's ``__eq__`` and
``_expand``, so one kernel defect could pass both sides at once.  Here the
partition sums (over this file's own partition generator) and the
displayed alternating sums are evaluated at integer points q modulo
p = 2^61 - 1, and the library's values are read from their ``shift``,
``num`` and ``exps`` fields alone; all four must agree.  The witness only
guards against a shared defect: a check's verdict stays an equality of
kernel values.
"""

import pytest

from qident import identities as idn

P = 2**61 - 1
POINTS = (3, 5, 10)
M_MAX = 12
#: Every factor index (1 - x^j) used below stays at or under this bound,
#: and the order of each point mod P exceeds it.
J_MAX = 256


def _inv(a):
    return pow(a, -1, P)


def test_points_have_order_above_every_factor_index():
    for q in POINTS:
        power = 1
        for j in range(1, J_MAX + 1):
            power = power * q % P
            assert power != 1, (q, j)


def _partitions(n, largest=None):
    """Partitions of n as weakly decreasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _admitted(parts, odd_restricted):
    """Every odd (or, with odd_restricted False, even) part occurs an even
    number of times."""
    restricted = 1 if odd_restricted else 0
    return all(parts.count(p) % 2 == 0 for p in set(parts) if p % 2 == restricted)


def _pochhammer_x2(x, n):
    """(x^2; x^2)_n mod P."""
    out = 1
    for j in range(1, n + 1):
        out = out * (1 - pow(x, 2 * j, P)) % P
    return out


def _weight(parts, sign, x):
    """(1 - x^{columns_1}) x^{(sum columns^2 + sign odd)/2} / prod (x^2;x^2)_{m_i // 2}."""
    if not parts:
        return 0
    columns = [sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1)]
    odd = sum(p % 2 for p in parts)
    exponent, rem = divmod(sum(c * c for c in columns) + sign * odd, 2)
    assert rem == 0
    den = 1
    for p in set(parts):
        den = den * _pochhammer_x2(x, parts.count(p) // 2) % P
    return (1 - pow(x, len(parts), P)) * pow(x, exponent, P) * _inv(den) % P


def _direct(size, odd_restricted, sign, x):
    return sum(
        _weight(parts, sign, x)
        for parts in _partitions(size)
        if _admitted(parts, odd_restricted)
    ) % P


def _alternating(m, first, summand, x):
    """sum_{i=first}^{m} (-1)^{i-1} summand(i) / (1/q^2;1/q^2)_{m-i}, mod P."""
    return sum(
        (1 if i % 2 else -1) * summand(i) * _inv(_pochhammer_x2(x, m - i))
        for i in range(first, m + 1)
    ) % P


def _displayed(name, m, q):
    x = _inv(q)
    if name == "anz1":
        body = _alternating(m, 1, lambda i: (pow(q, 2 * i + 1, P) + 1) * pow(x, i * (i + 1), P), x)
        return body * pow(x, m, P) * _inv(q + 1) % P
    if name == "anz2":
        body = _alternating(m, 0, lambda i: pow(x, i * (i + 1), P), x)
        return (pow(x, m, P) * _inv(_pochhammer_x2(x, m)) + pow(x, m + 1, P) * body) % P
    body = _alternating(m, 1, lambda i: pow(x, i * (i - 1), P), x)
    return pow(x, m, P) * body % P


def _library(value, q):
    """x^shift N(x) prod_j (1 - x^j)^(-e_j) at x = 1/q, from the fields."""
    x = _inv(q)
    top = sum(c * pow(x, i, P) for i, c in enumerate(value.num))
    out = top * pow(x, value.shift, P) % P
    for j, e in value.exps:
        assert 1 <= j <= J_MAX, j
        factor = (1 - pow(x, j, P)) % P
        out = out * pow(factor, -e, P) % P
    return out


#: name -> (size of index m, odd parts restricted?, sign)
SIDES = {
    "anz1": (lambda m: 2 * m, True, 1),
    "anz2": (lambda m: 2 * m + 1, False, -1),
    "anz3": (lambda m: 2 * m, False, -1),
}


@pytest.mark.parametrize("name", sorted(SIDES))
def test_partition_sum_closed_sum_and_library_agree_mod_p(name):
    size, odd_restricted, sign = SIDES[name]
    lhs, rhs = getattr(idn, f"lhs_{name}"), getattr(idn, f"rhs_{name}")
    for m in range(M_MAX + 1):
        for q in POINTS:
            direct = _direct(size(m), odd_restricted, sign, _inv(q))
            assert _displayed(name, m, q) == direct, (name, m, q)
            assert _library(lhs(m), q) == direct, (name, m, q, "lhs")
            assert _library(rhs(m), q) == direct, (name, m, q, "rhs")
