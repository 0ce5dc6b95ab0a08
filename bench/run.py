"""qident benchmark: cold-start CLI workloads with known answers.

    python3 bench/run.py --workload anz-chain --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Each pass is a fresh one-thread interpreter (bench/worker.py) that imports
qident, runs the workload's CLI invocations through ``qident.cli.main`` and
then its known-false controls.  Passes run one at a time until ``--seconds``
have elapsed.  Every verdict and output is checked against a known answer
derived inside the benchmark (bench/workloads.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics from the traced passes (bench/tracer.py).  A run record
with the environment, every sample and the stdout digests is written under
bench/out/, and a digest that changed since an earlier source tree is
reported on stderr.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

SETUP_PROBES = 10  # setup-only interpreters per run, on top of one per pass
MIN_PASSES = 2  # untraced passes per --trace 0 run, however short --seconds is
RUN_DEADLINE_S = 170  # a run must end within the driver's 180 s

# Passes import qident the way an installed CLI does, from cached bytecode
# (written under src/ by the first pass), whatever the caller's environment.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "comparisons_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}

PER_LAYER = {
    "rational.poly_gcd.calls": "count",
    "rational.poly_gcd.self_s": "s",
    "rational.poly_gcd.nontrivial_ratio": "ratio",
    "rational.Polynomial.mul.calls": "count",
    "rational.Polynomial.mul.coeff_products": "count",
    "rational.Polynomial.mul.self_s": "s",
    "rational.Polynomial.divmod.calls": "count",
    "rational.Polynomial.divmod.self_s": "s",
    "rational.RationalFunction.mul.self_s": "s",
    "rational.RationalFunction.add.self_s": "s",
    "rational.rf_sum.calls": "count",
    "rational.rf_sum.terms": "count",
    "rational.rf_sum.self_s": "s",
    "rational.RationalFunction.evaluate.calls": "count",
    "rational.RationalFunction.evaluate.self_s": "s",
    "rational.max_den_degree": "degree",
    "rational.max_coeff_bits": "bits",
    "partitions.enumerate_partitions.calls": "count",
    "partitions.enumerate_partitions.partitions": "count",
    "partitions.enumerate_partitions.self_s": "s",
    "partitions.summand_weight.self_s": "s",
    "partitions.cl_numerator.self_s": "s",
    "qseries.pochhammer.calls": "count",
    "qseries.pochhammer.self_s": "s",
    "qseries.two_phi_one.self_s": "s",
    "qseries.limit_two_phi_one.self_s": "s",
    "qseries.qchu_check.self_s": "s",
    "qseries.transform_check.self_s": "s",
    "qseries.limit_transform_check.self_s": "s",
    "qseries.sweeps.self_s": "s",
    "qseries.skip_ratio": "ratio",
    "qseries.pochhammer_inv_q2.hit_ratio": "ratio",
    "qseries.coeff_u_lemma.self_s": "s",
    "qseries.TruncatedSeries.mul.self_s": "s",
    "qseries.TruncatedSeries.reciprocal.self_s": "s",
    "identities.lhs.self_s": "s",
    "identities.rhs.self_s": "s",
    "identities.terms.self_s": "s",
    "identities.closed.self_s": "s",
    **{
        f"identities.check.{ident}.self_s": "s"
        for ident in (
            "ANZ1", "ANZ2", "ANZ3", "EQ4", "EQ5", "A2_SUM", "B2_SUM",
            "C2_SUM", "C1_SUM", "AB_SPLIT", "D_EQ_B2", "FINAL_COMBINE",
        )
    },
    **{f"identities.lhs_anz1.m{k}_s": "s" for k in range(4, 9)},
    "report.record.calls": "count",
    "report.record.self_s": "s",
    "report.skips": "count",
    "distributions.marginal_series.self_s": "s",
    "distributions.prefactor_series.self_s": "s",
    "distributions.marginal_vs_bruteforce.self_s": "s",
    "distributions.normalization_check.self_s": "s",
    "distributions.with_tolerance.self_s": "s",
    "distributions.product_cutoff": "count",
    "distributions.truncated_prefactor.calls": "count",
    "distributions.truncated_prefactor.self_s": "s",
    "distributions.prob.calls": "count",
    "distributions.prob.self_s": "s",
    "distributions.sample.self_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an operation failing)."""


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def spawn(job: dict, deadline: float) -> tuple[int, dict]:
    """Run one worker interpreter; return (spawn time ns, its result)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed before the pass could start")
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, WORKER],
        cwd=ROOT,
        env=WORKER_ENV,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a pass exceeded the run deadline") from None
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return spawn_ns, json.loads(out)


def evaluate_pass(wl, result, reference_digests) -> dict:
    """Check one pass against the known answers; count attempted and
    failed operations.  ``wrong`` counts failures that are wrong answers
    (as opposed to crashes)."""
    problems, checks, wrong = [], 0, 0
    for i, (expect, outcome) in enumerate(zip(wl.expectations, result["invocations"])):
        problem, confirmed = workloads.check_invocation(expect, outcome)
        if problem is None and outcome["digest"] != reference_digests[i]:
            problem = "stdout digest differs from the first pass of this seed"
        if problem is None:
            checks += confirmed
        else:
            problems.append({"op": " ".join(outcome["argv"]), "problem": problem})
            wrong += outcome["error"] is None
    for control in result["controls"]:
        if control["error"] is not None:
            problem = "exception: " + control["error"].strip().splitlines()[-1]
        elif control["passed"]:
            problem = "known-false comparison came back PASS"
            wrong += 1
        else:
            continue
        problems.append({"op": f"control {control['spec']}", "problem": problem})
    return {
        "attempted": len(result["invocations"]) + len(result["controls"]),
        "failed": len(problems),
        "wrong": wrong,
        "problems": problems,
        "checks": checks,
    }


def run_passes(wl, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    base = {
        "workload": wl.name,
        "seed": wl.seed,
        "invocations": wl.invocations,
        "controls": wl.controls,
        "spans_path": os.path.join(OUT_DIR, f"spans-{wl.name}.jsonl"),
    }
    setup_samples = []
    for _ in range(SETUP_PROBES):
        spawn_ns, res = spawn({**base, "setup_only": True}, deadline)
        setup_samples.append((res["ready_ns"] - spawn_ns) / 1e9)

    passes, digests = [], None
    measure_start, longest = time.monotonic(), 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_start = time.monotonic()
        spawn_ns, res = spawn({**base, "pass_id": len(passes), "trace": traced}, deadline)
        longest = max(longest, time.monotonic() - pass_start)
        setup_samples.append((res["ready_ns"] - spawn_ns) / 1e9)
        if digests is None:
            digests = [o["digest"] for o in res["invocations"]]
        verdict = evaluate_pass(wl, res, digests)
        for o in res["invocations"]:
            del o["stdout"]
        passes.append({"traced": traced, "result": res, "verdict": verdict})
        print(
            f"[bench] {wl.name} pass {len(passes) - 1}{' traced' if traced else ''}: "
            f"verdict {res['verdict_s']:.3f} s, {verdict['failed']}/{verdict['attempted']} failed",
            file=sys.stderr,
        )
        untraced = sum(not p["traced"] for p in passes)
        if trace:
            enough = 1 <= untraced < len(passes)
        else:
            enough = untraced >= MIN_PASSES
        # Start no pass that would likely end after --seconds of measuring.
        if enough and time.monotonic() - measure_start + longest > seconds:
            return {"setup_samples": setup_samples, "passes": passes}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it, or None
    when there are too few samples for one."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100 * (n - 10) // n, "value": sorted(samples)[n - 11], "samples": n}


def end_to_end_metrics(run) -> dict:
    passes = [p for p in run["passes"] if not p["traced"]]
    verdicts = [p["result"]["verdict_s"] for p in passes]
    return {
        "setup_s": statistics.median(run["setup_samples"]),
        "verdict_s": statistics.median(verdicts),
        "comparisons_per_s": statistics.median(
            p["verdict"]["checks"] / v for p, v in zip(passes, verdicts)
        ),
        "peak_rss_mb": statistics.median(p["result"]["peak_rss_kb"] / 1024 for p in passes),
        "ok_ops_ratio": ops_ratio(run["passes"]),
    }


def ops_ratio(passes) -> float:
    attempted = sum(p["verdict"]["attempted"] for p in passes)
    failed = sum(p["verdict"]["failed"] for p in passes)
    return (attempted - failed) / attempted


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, stdout_bytes: int) -> dict:
    """Per-layer figures of one traced pass."""
    calls, counts = summary["calls"], summary["counts"]
    self_s = {k: v / 1e9 for k, v in summary["self_ns"].items()}
    m = {}
    for name in PER_LAYER:
        span, _, suffix = name.rpartition(".")
        if suffix == "calls":
            m[name] = calls.get(span, 0)
        elif suffix == "self_s":
            m[name] = self_s.get(span, 0.0)
    drawn = sum(
        calls.get(f"qseries.{c}", 0)
        for c in ("qchu_check", "transform_check", "limit_transform_check")
    )
    skips = calls.get("report.record_skip", 0)
    poch = summary["pochhammer_inv_q2"]
    m.update({
        "rational.poly_gcd.nontrivial_ratio": _ratio(
            counts.get("poly_gcd.nontrivial", 0), calls.get("rational.poly_gcd", 0)
        ),
        "rational.Polynomial.mul.coeff_products": counts.get("Polynomial.mul.coeff_products", 0),
        "rational.rf_sum.terms": counts.get("rf_sum.terms", 0),
        "rational.max_den_degree": summary["max_den_degree"],
        "rational.max_coeff_bits": summary["max_coeff_bits"],
        "partitions.enumerate_partitions.partitions": counts.get(
            "enumerate_partitions.partitions", 0
        ),
        "qseries.skip_ratio": _ratio(skips, drawn),
        "qseries.pochhammer_inv_q2.hit_ratio": _ratio(poch["hits"], poch["hits"] + poch["misses"]),
        "report.skips": skips,
        "distributions.product_cutoff": counts.get("product_cutoff", 0),
        "cli.stdout_bytes": stdout_bytes,
    })
    for k in range(4, 9):
        m[f"identities.lhs_anz1.m{k}_s"] = summary["lhs_anz1_ns"].get(str(k), 0) / 1e9
    return m


def per_layer_metrics(run) -> dict:
    traced = [p for p in run["passes"] if p["traced"]]
    untraced = [p for p in run["passes"] if not p["traced"]]
    per_pass = []
    for p in traced:
        res = p["result"]
        m = layer_metrics(res["trace"], sum(o["bytes"] for o in res["invocations"]))
        library_ns = sum(v for k, v in res["trace"]["self_ns"].items() if k != "cli.main")
        m["trace.coverage_ratio"] = library_ns / 1e9 / res["verdict_s"]
        per_pass.append(m)
    unsteady = [
        name for name, unit in PER_LAYER.items()
        if unit not in ("s", "ratio") and len({m[name] for m in per_pass}) > 1
    ]
    if unsteady:
        print(f"[bench] counts differ between traced passes: {unsteady}", file=sys.stderr)
    missing = traced[0]["result"]["trace"]["missing"]
    if missing:
        print(f"[bench] traced names not found, reading 0: {missing}", file=sys.stderr)
    out = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_ratio"] = statistics.median(
        p["result"]["verdict_s"] for p in traced
    ) / statistics.median(p["result"]["verdict_s"] for p in untraced)
    return out


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, so runs can be told apart when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "qident")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def compare_digests(wl, size, run, env) -> list:
    """Compare this run's stdout digests with the last ones stored for the
    same invocation from another source tree, then store this run's."""
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    except (OSError, json.JSONDecodeError):
        store = {}
    changes = []
    first = run["passes"][0]["result"]["invocations"]
    for i, outcome in enumerate(first):
        key = f"{wl.name}|{size}|seed={wl.seed}|{i}|{' '.join(outcome['argv'])}"
        old = store.get(key)
        changed = old and old["digest"] != outcome["digest"]
        if changed and old["source_sha256"] != env["source_sha256"]:
            changes.append({"invocation": key, "before": old, "after": outcome["digest"]})
        store[key] = {
            "digest": outcome["digest"],
            "source_sha256": env["source_sha256"],
            "commit": env["commit"],
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    return changes


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    wl = workloads.build(name, seed, size)
    run = run_passes(wl, seconds, trace)
    env = environment()
    changes = compare_digests(wl, size, run, env)
    for change in changes:
        print(f"[bench] stdout digest changed: {change['invocation']}", file=sys.stderr)
    metrics = per_layer_metrics(run) if trace else end_to_end_metrics(run)
    units = PER_LAYER if trace else END_TO_END
    passes = run["passes"]
    result = {
        "correct": all(p["verdict"]["wrong"] == 0 for p in passes),
        "attempted": sum(p["verdict"]["attempted"] for p in passes),
        "failed": sum(p["verdict"]["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    untraced = [p["result"]["verdict_s"] for p in passes if not p["traced"]]
    record = {
        "environment": env,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "invocations": wl.invocations,
        "controls": wl.controls,
        "result": result,
        "failed_ops_ratio": 1 - ops_ratio(passes),
        "verdict_s_samples": untraced,
        "verdict_s_tail": tail_percentile(untraced),
        "setup_s_samples": run["setup_samples"],
        "digest_changes": changes,
        "passes": [
            {"traced": p["traced"], "verdict": p["verdict"], **p["result"]} for p in passes
        ],
    }
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}-{size}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def smoke() -> int:
    """Run every workload at tiny sizes in both modes and check that every
    metric BENCHMARK.json names is emitted with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOAD_NAMES):
        print(f"[smoke] workloads {names} != {list(workloads.WORKLOAD_NAMES)}", file=sys.stderr)
        ok = False
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOAD_NAMES:
            got = run_workload(name, 1, 0, trace, size="tiny")
            emitted = {k: v["unit"] for k, v in got["metrics"].items()}
            if emitted != wanted:
                missing = sorted(set(wanted) - set(emitted))
                extra = sorted(set(emitted) - set(wanted))
                wrong = sorted(k for k in wanted if k in emitted and emitted[k] != wanted[k])
                print(f"[smoke] {name} {key}: missing {missing} extra {extra} unit {wrong}",
                      file=sys.stderr)
                ok = False
            if not got["correct"]:
                print(f"[smoke] {name}: a wrong answer", file=sys.stderr)
                ok = False
            print(f"[smoke] {name} {key}: {len(emitted)} metrics, "
                  f"{got['failed']}/{got['attempted']} failed", file=sys.stderr)
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-size self-check")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"[bench] {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
