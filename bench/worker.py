"""One benchmark pass: a fresh interpreter that runs a workload's CLI
invocations through ``qident.cli.main`` and then its known-false controls.

Started by run.py with the repository root as working directory.  It reads
one JSON job from stdin and writes one JSON result to stdout.  Every cache
in qident starts cold, as it does for each CLI user.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from qident import cli  # noqa: E402


def run_invocations(main, invocations):
    """Call main(argv) for each invocation, capturing stdout; exceptions
    are recorded with their traceback and counted by the driver."""
    outcomes = []
    start = time.perf_counter()
    for argv in invocations:
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # any crash is one failed operation
            code = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        text = buf.getvalue()
        outcomes.append({
            "argv": argv,
            "exit": code,
            "error": error,
            "seconds": elapsed,
            "stdout": text,
        })
    verdict_s = time.perf_counter() - start
    for o in outcomes:
        data = o["stdout"].encode()
        o["bytes"] = len(data)
        o["digest"] = hashlib.sha256(data).hexdigest()
    return verdict_s, outcomes


def run_control(spec):
    """Submit one comparison that must come back FAIL; return the verdict
    the program reached (True means it wrongly passed).

    Imported here, not at the top: if a refactor of the program removes a
    name a control uses, that control fails and is counted, and the CLI
    passes still run."""
    from fractions import Fraction

    from qident import distributions, identities, qseries
    from qident.rational import RationalFunction, q_power
    from qident.report import VerificationReport

    report = VerificationReport(f"control:{spec['kind']}")
    kind = spec["kind"]
    if kind == "anz1-plus-monomial":
        m = spec["m"]
        report.record(
            {"m": m}, identities.lhs_anz1(m), identities.rhs_anz1(m) + q_power(spec["degree"])
        )
    elif kind == "qchu-altered-b":
        n = spec["n"]
        b, c, qb, b2 = (Fraction(spec[k]) for k in ("b", "c", "q", "b_altered"))
        b, c, qb, b2 = (RationalFunction(v) for v in (b, c, qb, b2))
        z = c * qb**n / b
        lhs = qseries.two_phi_one(qseries.HypergeometricSpec(n, b, c, qb, z))
        rhs = qseries.pochhammer(c / b2, qb, n) / qseries.pochhammer(c, qb, n)
        report.record({"n": n}, lhs, rhs)
    elif kind == "normalization-against-one":
        family = distributions.Family(spec["family"])
        norm = distributions.normalization_check(family, spec["order"])
        coeff = norm.results[spec["u_power"]].lhs_value
        report.record({"u_power": spec["u_power"]}, coeff, RationalFunction.one())
    else:
        raise ValueError(f"unknown control {kind!r}")
    return report.passed


def main():
    job = json.load(sys.stdin)
    ready_ns = time.monotonic_ns()
    result = {"ready_ns": ready_ns}
    if job.get("setup_only"):
        json.dump(result, sys.stdout)
        return 0

    tracer = None
    entry = cli.main
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(job["pass_id"])
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)
    verdict_s, outcomes = run_invocations(entry, job["invocations"])
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = trace_summary(tracer)

    controls = []
    for spec in job["controls"]:
        try:
            controls.append({"spec": spec, "passed": run_control(spec), "error": None})
        except Exception:
            controls.append({"spec": spec, "passed": None, "error": traceback.format_exc()})

    result.update(
        verdict_s=verdict_s,
        invocations=outcomes,
        controls=controls,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        tracer.write_jsonl(job["spans_path"], {"workload": job["workload"], "seed": job["seed"]})
    json.dump(result, sys.stdout)
    return 0


def trace_summary(tracer):
    """Raw per-pass trace figures; run.py turns them into metrics."""
    from qident import qseries
    from qident.rational import RationalFunction

    calls, self_ns = tracer.self_times()
    max_den, max_bits = 0, 0
    for value in tracer.compared:
        if isinstance(value, RationalFunction):
            max_den = max(max_den, value.den.degree)
            for poly in (value.num, value.den):
                for c in poly.coeffs:
                    max_bits = max(max_bits, c.numerator.bit_length(), c.denominator.bit_length())
    cached = getattr(qseries, "pochhammer_inv_q2", None)
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    return {
        "calls": calls,
        "self_ns": self_ns,
        "counts": dict(tracer.counts),
        "lhs_anz1_ns": {str(m): ns for m, ns in tracer.first_call_ns.items()},
        "max_den_degree": max_den,
        "max_coeff_bits": max_bits,
        "pochhammer_inv_q2": {
            "hits": info.hits if info else 0,
            "misses": info.misses if info else 0,
        },
        "missing": tracer.missing,
    }


if __name__ == "__main__":
    sys.exit(main())
