"""Workload definitions and known answers for the qident benchmark.

This module never imports qident.  Every expected answer here is derived
from the documented index ranges of the checks (or computed with plain
``Fraction`` arithmetic), never read back from the program under test, so a
verifier that returns wrong counts or passes everything cannot score
perfectly.

A workload is a list of CLI invocations (argv lists for ``qident.cli.main``)
plus a list of known-false controls, all generated from the benchmark seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOAD_NAMES = ("anz-chain", "hyper-sweep", "series", "dist-numeric")

# Full sizes make each pass take about 9-11 s on a 2.1 GHz Xeon: one long
# pass averages out the machine's second-scale speed swings far better than
# several short ones.  The smoke mode uses the tiny sizes.
SIZES = {
    "full": {
        "m_max": 8,
        "qseries_n_max": 8,
        "tuples_per_n": 40,
        "k_max": 4,
        "order": 18,
        "max_size": 16,
        "count": 200000,
    },
    "tiny": {
        "m_max": 3,
        "qseries_n_max": 3,
        "tuples_per_n": 3,
        "k_max": 1,
        "order": 4,
        "max_size": 5,
        "count": 200,
    },
}

ANZ_SELECTORS = ("anz1", "anz2", "anz3", "eq4", "eq5", "splits")

# (family, q) points of dist-numeric, all at u = 1/2.  The q = 11/10 point
# crashes today (the exact truncated prefactor is too large to print); it
# stays in the workload so the crash is counted until it is fixed.
DIST_POINTS = (("sp", "2"), ("o", "6/5"), ("o", "11/10"))
DIST_U = Fraction(1, 2)
DIST_TAIL_TOLERANCE = Fraction(1, 10**9)  # the CLI's default --tail-tol


@dataclass
class Workload:
    name: str
    seed: int
    invocations: list[list[str]]
    expectations: list[dict]
    controls: list[dict]


# ---------------------------------------------------------------------------
# Expected verify reports, from the documented index ranges
# ---------------------------------------------------------------------------

def _tri(n: int) -> int:
    return n * (n + 1) // 2


def expected_anz_reports(selector: str, m: int) -> list[tuple[str, int]]:
    """(identity, checked) per report line of ``verify <selector> --m-max m``.

    ANZ1-3 compare m = 0..M; EQ4/EQ5 compare two routes per m = 0..M;
    A2/B2 compare three routes per m = 1..M; FINAL_COMBINE compares per
    index i = 1..M and per m = 1..M; C1 three routes per m = 0..M; C2 one
    closed comparison per m = 0..M plus one termwise comparison per
    k = 1..m+1; AB_SPLIT k = 1..m for m = 1..M plus k = 1..m+1 for m = 0..M;
    D_EQ_B2 k = 1..m for m = 1..M plus two routes per m = 0..M.
    """
    table = {
        "anz1": [("ANZ1", m + 1)],
        "anz2": [("ANZ2", m + 1)],
        "anz3": [("ANZ3", m + 1)],
        "eq4": [
            ("EQ4", 2 * (m + 1)),
            ("A2_SUM", 3 * m),
            ("B2_SUM", 3 * m),
            ("FINAL_COMBINE", 2 * m),
        ],
        "eq5": [
            ("EQ5", 2 * (m + 1)),
            ("C1_SUM", 3 * (m + 1)),
            ("C2_SUM", (m + 1) + _tri(m + 1)),
        ],
        "splits": [
            ("AB_SPLIT", _tri(m) + _tri(m + 1)),
            ("D_EQ_B2", _tri(m) + 2 * (m + 1)),
        ],
    }
    return table[selector]


def _verify_expectation(reports, params, allow_skips=False) -> dict:
    return {
        "kind": "verify",
        "reports": [
            {"identity": ident, "checked": checked, "params": p}
            for (ident, checked), p in zip(reports, params)
        ],
        "allow_skips": allow_skips,
    }


# ---------------------------------------------------------------------------
# Independent Fraction arithmetic for the known answers of controls and dist
# ---------------------------------------------------------------------------

def _poch(a: Fraction, r: Fraction, n: int) -> Fraction:
    value = Fraction(1)
    for j in range(n):
        value *= 1 - a * r**j
    return value


def _qchu_control(rng: random.Random) -> dict:
    """A q-Chu-Vandermonde instance with b altered on the closed side only.

    The draw is repeated until every Pochhammer denominator is nonzero and
    the altered closed side differs from the true one, so FAIL is the only
    correct verdict.
    """
    n = 3
    while True:
        b = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        qb = Fraction(rng.randint(2, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        b_altered = b + 1
        if qb in (0, 1, -1) or b_altered == 0:
            continue
        if any(_poch(qb, qb, k) == 0 or _poch(c, qb, k) == 0 for k in range(n + 1)):
            continue
        if _poch(c / b, qb, n) == _poch(c / b_altered, qb, n):
            continue
        return {
            "kind": "qchu-altered-b",
            "n": n,
            "b": str(b),
            "c": str(c),
            "q": str(qb),
            "b_altered": str(b_altered),
        }


def product_cutoff(q: Fraction, u: Fraction, tol: Fraction) -> int:
    """Smallest I with u^2 q^(1-2I) / (q^2 - 1) <= tol, by doubling and
    bisection on exact rationals."""

    def ok(i):
        return u**2 * q ** (1 - 2 * i) / (q**2 - 1) <= tol

    hi = 1
    while not ok(hi):
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def admitted_partitions(family: str, max_size: int) -> list[tuple[int, ...]]:
    """Partitions of size <= max_size admitted by the family's constraint:
    sp forbids odd parts of odd multiplicity, o even parts of odd
    multiplicity."""
    bad_parity = 1 if family == "sp" else 0
    out = []

    def gen(n, largest, prefix):
        if n == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(n, largest), 0, -1):
            prefix.append(part)
            gen(n - part, part, prefix)
            prefix.pop()

    for n in range(max_size + 1):
        gen(n, n, [])
    keep = []
    for p in out:
        if all(p.count(v) % 2 == 0 for v in set(p) if v % 2 == bad_parity):
            keep.append(p)
    return keep


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------

def build(name: str, seed: int, size: str = "full") -> Workload:
    """The invocations, known answers and controls of one workload."""
    s = SIZES[size]
    rng = random.Random(f"qident-bench:{name}:{seed}")
    if name == "anz-chain":
        m = s["m_max"]
        invocations = [["verify", sel, "--m-max", str(m)] for sel in ANZ_SELECTORS]
        expectations = []
        for sel in ANZ_SELECTORS:
            reports = expected_anz_reports(sel, m)
            expectations.append(
                _verify_expectation(reports, [{"m_max": m}] * len(reports))
            )
        cm = rng.randint(1, m)
        controls = [
            {"kind": "anz1-plus-monomial", "m": cm, "degree": rng.randint(-2 * cm, 2)}
        ]
        return Workload(name, seed, invocations, expectations, controls)
    if name == "hyper-sweep":
        n_max, tpn = s["qseries_n_max"], s["tuples_per_n"]
        invocations = [
            [
                "verify", "qseries", "--seed", str(seed),
                "--qseries-n-max", str(n_max), "--tuples-per-n", str(tpn),
            ]
        ]
        checked = (n_max + 1) * tpn
        params = {"n_max": n_max, "tuples_per_n": tpn, "seed": seed}
        reports = [(ident, checked) for ident in ("qchu", "transform", "limit-transform")]
        expectations = [_verify_expectation(reports, [params] * 3, allow_skips=True)]
        return Workload(name, seed, invocations, expectations, [_qchu_control(rng)])
    if name == "series":
        k, order = s["k_max"], s["order"]
        invocations = [
            ["verify", "marginals", "--k-max", str(k), "--order", str(order)],
            ["verify", "normalization", "--order", str(order)],
        ]
        marg = (2 * k + 1) * (order + 1)
        expectations = [
            _verify_expectation(
                [("marginals-sp", marg), ("marginals-o", marg)],
                [{"k_max": k, "order": order}] * 2,
            ),
            _verify_expectation(
                [("normalization-sp", order + 1), ("normalization-o", order + 1)],
                [{"order": order}] * 2,
            ),
        ]
        small = min(order, 6)
        controls = [
            {
                "kind": "normalization-against-one",
                "family": rng.choice(("sp", "o")),
                "order": small,
                "u_power": rng.randint(1, small),
            }
        ]
        return Workload(name, seed, invocations, expectations, controls)
    if name == "dist-numeric":
        max_size, count = s["max_size"], s["count"]
        invocations, expectations = [], []
        for family, q in DIST_POINTS:
            base = ["--family", family, "--q", q, "--u", str(DIST_U), "--max-size", str(max_size)]
            point = {
                "family": family,
                "q": q,
                "u": str(DIST_U),
                "max_size": max_size,
                "cutoff": product_cutoff(Fraction(q), DIST_U, DIST_TAIL_TOLERANCE),
            }
            invocations.append(["dist", "eval"] + base)
            expectations.append({"kind": "dist-eval", **point})
            invocations.append(
                ["dist", "sample"] + base + ["--count", str(count), "--seed", str(seed)]
            )
            expectations.append(
                {"kind": "dist-sample", **point, "count": count, "seed": seed}
            )
        return Workload(name, seed, invocations, expectations, [])
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Checking one invocation's outcome against its known answer
# ---------------------------------------------------------------------------

def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_invocation(expect: dict, outcome: dict) -> tuple[str | None, int]:
    """Return (problem or None, exact checks confirmed).

    ``outcome`` holds ``exit``, ``error`` and ``stdout`` of one CLI call.
    For verify invocations the confirmed count is the number of exact
    comparisons the program reported (skips excluded); for dist invocations
    it is the number of output records (probabilities, draws) the benchmark
    checked.
    """
    if outcome["error"] is not None:
        return f"exception: {outcome['error'].strip().splitlines()[-1]}", 0
    if outcome["exit"] != 0:
        return f"exit code {outcome['exit']}, expected 0", 0
    try:
        rows = _json_lines(outcome["stdout"])
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON lines: {exc}", 0
    kind = expect["kind"]
    if kind == "verify":
        return _check_verify(expect, rows)
    if kind == "dist-eval":
        return _check_eval(expect, rows)
    return _check_sample(expect, rows)


def _check_verify(expect, rows):
    want = expect["reports"]
    if len(rows) != len(want):
        return f"{len(rows)} report lines, expected {len(want)}", 0
    total = 0
    for row, w in zip(rows, want):
        ident = w["identity"]
        if row.get("identity") != ident:
            return f"report {row.get('identity')!r}, expected {ident!r}", 0
        if row.get("pass") is not True or row.get("counterexample") is not None:
            return f"{ident}: verdict FAIL, expected PASS", 0
        if row.get("checked") != w["checked"]:
            return f"{ident}: checked {row.get('checked')}, expected {w['checked']}", 0
        if row.get("params") != w["params"]:
            return f"{ident}: params {row.get('params')}, expected {w['params']}", 0
        if not expect["allow_skips"] and row.get("skipped") != 0:
            return f"{ident}: {row.get('skipped')} skips, expected none", 0
        total += row["checked"]
    return None, total


def _check_eval(expect, rows):
    if not rows:
        return "no output", 0
    *lines, summary = rows
    support = admitted_partitions(expect["family"], expect["max_size"])
    got = [tuple(r.get("partition", ())) for r in lines]
    if sorted(got) != sorted(support) or len(set(got)) != len(got):
        return "listed partitions differ from the admitted support", 0
    sizes = [sum(p) for p in got]
    if sizes != sorted(sizes):
        return "partitions not in ascending size order", 0
    probs = [Fraction(r["probability"]) for r in lines]
    if any(p <= 0 for p in probs):
        return "a probability is not positive", 0
    q, u = Fraction(expect["q"]), Fraction(expect["u"])
    tail = u**2 * q ** (1 - 2 * expect["cutoff"]) / (q**2 - 1)
    if any(Fraction(r["tail_bound"]) != tail for r in lines):
        return "a tail bound differs from the minimal-cutoff bound", 0
    if sum(probs) != Fraction(summary["support_probability"]):
        return "probabilities do not sum to support_probability", 0
    if not 0 <= Fraction(summary["truncated_mass_bound"]) <= 1:
        return "truncated_mass_bound outside [0, 1]", 0
    return None, len(lines)


def _check_sample(expect, rows):
    if len(rows) != 1:
        return f"{len(rows)} output lines, expected 1", 0
    samples, meta = rows[0]["samples"], rows[0]["metadata"]
    support = set(admitted_partitions(expect["family"], expect["max_size"]))
    if len(samples) != expect["count"]:
        return f"{len(samples)} draws, expected {expect['count']}", 0
    if any(tuple(p) not in support for p in samples):
        return "a draw lies outside the admitted support", 0
    for key in ("family", "max_size", "seed"):
        if meta[key] != expect[key]:
            return f"metadata {key} = {meta[key]!r}, expected {expect[key]!r}", 0
    want = {
        "q": expect["q"],
        "u": expect["u"],
        "product_cutoff": expect["cutoff"],
        "tail_tolerance": str(DIST_TAIL_TOLERANCE),
    }
    if meta["params"] != want:
        return f"params {meta['params']}, expected {want}", 0
    if not 0 < Fraction(meta["support_probability"]) <= 1:
        return "support_probability outside (0, 1]", 0
    if not 0 <= Fraction(meta["truncated_mass_bound"]) <= 1:
        return "truncated_mass_bound outside [0, 1]", 0
    return None, len(samples)
