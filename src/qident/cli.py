"""Command-line front end: verification, enumeration, evaluation, sampling.

Output is one JSON object per line (``--format json``, the default) or a
human-readable line per check (``--format text``).  Identical invocations
produce byte-identical output: all randomness is seeded, serialization is
canonical (sorted keys), and orderings are deterministic.

Exit codes: 0 all checks passed, 1 at least one check failed or stdout
was closed before the output ended, 2 usage error.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import distributions, identities, qseries
from .distributions import Family, MeasureParams
from .partitions import ParityConstraint, enumerate_partitions
from .report import VerificationReport

VERIFY_SELECTORS = (
    *identities.SELECTORS, "qseries", "marginals", "normalization", "all"
)

_DEFAULT_TAIL_TOLERANCE = Fraction(1, 10**9)

# Smallest accepted value of every integer option, by argparse dest.
_MINIMUM = {
    "m_max": 1,
    "order": 0,
    "k_max": 0,
    "tuples_per_n": 1,
    "qseries_n_max": 0,
    "n": 0,
    "max_size": 0,
    "count": 0,
}

# Largest accepted value of an integer option, by argparse dest.  Each cap
# bounds the work of the slowest command that the option sizes; the README's
# Caps table gives what each bounds and its measured time and peak memory.
_MAXIMUM = {
    "count": 10_000_000,
    "max_size": 56,
    "n": 42,
    "order": 128,
    "k_max": 64,
    "m_max": 128,
    "qseries_n_max": 112,
    "tuples_per_n": 10_000,
}

# Largest cutoff of the normalizing product that ``dist`` computes: the
# exact prefactor's numerator and denominator grow like cutoff^2 bits (see
# the README's Caps table).
_MAX_PRODUCT_CUTOFF = 128


def _json(obj) -> str:
    """The canonical compact JSON text of every stdout row."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj: dict) -> None:
    print(_json(obj))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/r': {text}") from exc


def _add_bounded(parser, flag: str, default=None, what="", shown=None, **kwargs) -> None:
    """Add the integer option ``flag``; its help names ``what`` it is, its
    cap from _MAXIMUM and its default (``shown`` where the parser has none)."""
    cap = f"at most {_MAXIMUM[flag[2:].replace('-', '_')]}"
    text = f"{what}, {cap}" if what else cap
    shown = default if shown is None else shown
    if shown is not None:
        text += f" (default: {shown})"
    parser.add_argument(flag, type=int, default=default, help=text, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description=(
            "Exact verification of q-series partition identities and the "
            "associated partition distributions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run identity checks")
    verify.add_argument("selector", choices=VERIFY_SELECTORS)
    _add_bounded(verify, "--m-max", shown="$QIDENT_M_MAX or 10")
    _add_bounded(verify, "--order", 12, "series order D")
    _add_bounded(verify, "--k-max", 3, "marginal column half-range")
    verify.add_argument("--seed", type=int, default=qseries.DEFAULT_SEED)
    _add_bounded(verify, "--tuples-per-n", 20)
    _add_bounded(verify, "--qseries-n-max", 8)
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.set_defaults(func=cmd_verify)

    parts = sub.add_parser("partitions", help="enumerate constrained partitions")
    _add_bounded(parts, "--n", what="partition size", required=True)
    parts.add_argument(
        "--constraint", choices=sorted(c.value for c in ParityConstraint), default="none"
    )
    parts.add_argument("--weights", choices=("none", "sp", "o"), default="none")
    parts.add_argument("--format", choices=("json", "text"), default="json")
    parts.set_defaults(func=cmd_partitions)

    dist = sub.add_parser("dist", help="evaluate or sample the measures")
    dist_sub = dist.add_subparsers(dest="action", required=True)

    def add_dist_args(p):
        p.add_argument("--family", choices=("sp", "o"), required=True)
        p.add_argument("--q", type=_fraction, required=True)
        p.add_argument("--u", type=_fraction, required=True)
        _add_bounded(p, "--max-size", 6, "largest partition size")
        p.add_argument(
            "--tail-tol", type=_fraction, default=_DEFAULT_TAIL_TOLERANCE,
            help="relative tail bound of the normalizing product, whose cutoff "
            f"may be at most {_MAX_PRODUCT_CUTOFF} (default: 1/10^9)",
        )
        p.add_argument("--format", choices=("json", "text"), default="json")

    deval = dist_sub.add_parser("eval", help="per-partition probabilities")
    add_dist_args(deval)
    deval.set_defaults(func=cmd_dist_eval)

    dsample = dist_sub.add_parser("sample", help="draw partitions")
    add_dist_args(dsample)
    _add_bounded(dsample, "--count", 10, "number of draws")
    dsample.add_argument("--seed", type=int, default=qseries.DEFAULT_SEED)
    dsample.set_defaults(func=cmd_dist_sample)

    return parser


# The per-family series checks by selector; ``all`` runs both, family by family.
_FAMILY_CHECKS = {
    "marginals": lambda family, args: distributions.marginal_vs_bruteforce(
        family, args.k_max, args.order
    ),
    "normalization": lambda family, args: distributions.normalization_check(
        family, args.order
    ),
}


def _verify_reports(args) -> list[VerificationReport]:
    selector = args.selector
    everything = selector == "all"
    if everything:
        ids = identities.IDENTITY_IDS
    else:
        ids = identities.SELECTORS.get(selector, ())
    reports = [identities.CHECKS[identity](args.m_max) for identity in ids]
    if everything or selector == "qseries":
        reports += qseries.random_hypergeometric_reports(
            n_max=args.qseries_n_max, tuples_per_n=args.tuples_per_n, seed=args.seed
        )
    kinds = [c for name, c in _FAMILY_CHECKS.items() if everything or name == selector]
    reports += [check(family, args) for family in Family for check in kinds]
    return reports


def cmd_verify(args) -> int:
    reports = _verify_reports(args)
    for report in reports:
        if args.format == "json":
            _emit(report.to_json_dict())
        else:
            print(report.summary())
    return 0 if all(r.passed for r in reports) else 1


def cmd_partitions(args) -> int:
    constraint = ParityConstraint(args.constraint)
    sign = None if args.weights == "none" else Family(args.weights).sign
    for p in enumerate_partitions(args.n, constraint):
        # the kernel weight, printed through its canonical Q(q) form
        weight = identities.summand_weight(p, sign) if sign is not None else None
        if args.format == "json":
            row = {"partition": p.to_json()}
            if sign is not None:
                row["weight"] = weight.to_rational().as_dict()
            _emit(row)
        else:
            line = str(p.to_json())
            if sign is not None:
                line += f"  weight={weight}"
            print(line)
    return 0


def _measure_params(args) -> MeasureParams:
    try:
        params = MeasureParams.with_tolerance(args.q, args.u, args.tail_tol)
    except ValueError as exc:
        raise _Usage(str(exc)) from exc
    if params.product_cutoff > _MAX_PRODUCT_CUTOFF:
        raise _Usage(
            f"--q, --u and --tail-tol need a product cutoff of {params.product_cutoff}, "
            f"above the cap of {_MAX_PRODUCT_CUTOFF}"
        )
    return params


def _products(x: Fraction, weights: list[Fraction]):
    """Yield str(x * w) for each weight w.  x's numerator and denominator
    become decimals once; each row cancels as Fraction.__mul__ does, then
    forms its digits by exact decimal arithmetic (at the largest precision,
    with Inexact and Rounded trapped, so each step is exact or raises),
    whose printing is linear.  No weight is read before its own row.
    Like str, a part over sys.get_int_max_str_digits() digits raises."""
    P, Q = x.numerator, x.denominator
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
    top, bottom = decimal.Decimal(P), decimal.Decimal(Q)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, as before 3.10.7
    for w in weights:
        n, d = w.numerator, w.denominator
        g1, g2 = math.gcd(P, d), math.gcd(n, Q)
        num = ctx.multiply(ctx.divide_int(top, g1), n // g2)
        den = ctx.multiply(d // g1, ctx.divide_int(bottom, g2))
        if limit and max(num.adjusted(), den.adjusted()) >= limit:
            raise ValueError(f"Exceeds the limit ({limit} digits) for integer string "
                             "conversion; use sys.set_int_max_str_digits() to increase the limit")
        yield (str(num) if num else "0") if den == 1 else f"{num}/{den}"  # never "-0"


def cmd_dist_eval(args) -> int:
    family = Family(args.family)
    params = _measure_params(args)
    support, weights = distributions.support_weights(family, params, args.max_size)
    prefactor = distributions.truncated_prefactor(family, params)
    tail_bound = str(params.tail_bound)
    for p, weight, value in zip(support, weights, _products(prefactor, weights)):
        if args.format == "json":
            _emit(
                {
                    "partition": p.to_json(),
                    "probability": value,
                    "tail_bound": tail_bound,
                }
            )
        else:
            print(f"{p.to_json()}  p={float(prefactor * weight):.6g} ({value})")
    total = prefactor * sum(weights)  # one product instead of one per row
    bound = distributions.truncated_mass_bound(params, total)
    summary = {
        "support_probability": str(total),
        "truncated_mass_bound": str(bound),
    }
    if args.format == "json":
        _emit(summary)
    else:
        print(f"total={float(total):.6g}  truncated_mass_bound={float(bound):.3g}")
    return 0


def cmd_dist_sample(args) -> int:
    if args.seed < 0:  # not in _MINIMUM: verify qseries accepts negative seeds
        raise _Usage(f"--seed must be at least 0, got {args.seed}")
    family = Family(args.family)
    params = _measure_params(args)
    plan = distributions.plan_sample(family, params, args.max_size, args.seed)
    # A generator: nothing is drawn before the first row is asked for, so
    # everything else is rendered first and a value that cannot be printed
    # stops the run before any draw.  Each batch's rows are written as drawn.
    batches = plan.draw(args.count)
    if args.format == "json":
        # the to_json_dict() text: "metadata" sorts before "samples"
        sys.stdout.write(f'{{"metadata":{_json(plan.metadata())},"samples":[')
        separator = ""
        for rows in plan.rows(batches, lambda p: _json(p.to_json())):
            sys.stdout.write(separator + ",".join(rows))
            separator = ","
        print("]}")
    else:
        tail = (
            f"seed={plan.seed} support={float(plan.support_probability):.6g} "
            f"truncated_mass_bound={float(plan.truncated_mass_bound):.3g}"
        )
        for rows in plan.rows(batches, lambda p: f"{p.to_json()}\n"):
            sys.stdout.write("".join(rows))
        print(tail)
    return 0


class _Usage(Exception):
    """Semantic argument error, reported like a parse error (exit 2)."""


def _check_numbers(args) -> None:
    """Fill in the QIDENT_M_MAX default and range-check every integer option."""
    if args.command == "verify" and args.m_max is None:
        text = os.environ.get("QIDENT_M_MAX", "10")
        try:
            args.m_max = int(text)
        except ValueError:
            raise _Usage(f"QIDENT_M_MAX must be an integer, got {text!r}") from None
    for dest, low in _MINIMUM.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if value < low:
            raise _Usage(f"{flag} must be at least {low}, got {value}")
        if value > _MAXIMUM.get(dest, value):
            raise _Usage(f"{flag} must be at most {_MAXIMUM[dest]}, got {value}")


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except _Usage as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")  # one stderr line
        return 2  # unreachable; keeps type-checkers happy
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull, so that
        # the flush at interpreter exit writes nowhere instead of raising.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
