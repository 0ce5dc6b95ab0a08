"""Outside-in span tracing of the qident layers.

The program is not instrumented.  Instead ``Tracer.install`` wraps the
layers' public functions and class methods and rebinds each wrapper in
every ``qident`` module namespace (and class) that holds the original
object, so calls made through any import path are seen.  ``uninstall``
puts the originals back.

Spans (name, start, end, parent; the pass id is in the file's header) are
kept in memory in flat integer arrays -- a pass records up to about a
million of them -- and are written once, at the end of the pass, as JSONL.
Self time is a span's duration minus the time covered by its direct
children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from functools import update_wrapper

# (module, attribute path, span name).  Module-level functions are rebound
# wherever they were imported; methods are rebound on their class under
# every attribute name that holds them (``__radd__ = __add__``).
TRACED = (
    ("rational", "poly_gcd", "rational.poly_gcd"),
    ("rational", "rf_sum", "rational.rf_sum"),
    ("rational", "Polynomial.__mul__", "rational.Polynomial.mul"),
    ("rational", "Polynomial.__divmod__", "rational.Polynomial.divmod"),
    ("rational", "RationalFunction.__mul__", "rational.RationalFunction.mul"),
    ("rational", "RationalFunction.__add__", "rational.RationalFunction.add"),
    ("rational", "RationalFunction.evaluate", "rational.RationalFunction.evaluate"),
    ("partitions", "enumerate_partitions", "partitions.enumerate_partitions"),
    ("partitions", "summand_weight", "partitions.summand_weight"),
    ("partitions", "cl_numerator", "partitions.cl_numerator"),
    ("qseries", "pochhammer", "qseries.pochhammer"),
    ("qseries", "two_phi_one", "qseries.two_phi_one"),
    ("qseries", "limit_two_phi_one", "qseries.limit_two_phi_one"),
    ("qseries", "qchu_check", "qseries.qchu_check"),
    ("qseries", "transform_check", "qseries.transform_check"),
    ("qseries", "limit_transform_check", "qseries.limit_transform_check"),
    ("qseries", "random_hypergeometric_reports", "qseries.sweeps"),
    ("qseries", "coeff_u_lemma", "qseries.coeff_u_lemma"),
    ("qseries", "TruncatedSeries.__mul__", "qseries.TruncatedSeries.mul"),
    ("qseries", "TruncatedSeries.reciprocal", "qseries.TruncatedSeries.reciprocal"),
    ("report", "VerificationReport.record", "report.record"),
    ("report", "VerificationReport.record_skip", "report.record_skip"),
    ("distributions", "marginal_series", "distributions.marginal_series"),
    ("distributions", "prefactor_series", "distributions.prefactor_series"),
    ("distributions", "marginal_vs_bruteforce", "distributions.marginal_vs_bruteforce"),
    ("distributions", "normalization_check", "distributions.normalization_check"),
    ("distributions", "MeasureParams.with_tolerance", "distributions.with_tolerance"),
    ("distributions", "truncated_prefactor", "distributions.truncated_prefactor"),
    ("distributions", "prob", "distributions.prob"),
    ("distributions", "sample", "distributions.sample"),
)

# The identities layer, by function family.
IDENTITY_GROUPS = {
    "lhs": ("lhs_anz1", "lhs_anz2", "lhs_anz3"),
    "rhs": ("rhs_anz1", "rhs_anz2", "rhs_anz3"),
    "terms": (
        "term_a", "term_b", "term_a2", "term_b2", "term_c1", "term_c2",
        "term_c", "term_d", "sum_ab", "sum_c", "sum_d",
    ),
    "closed": (
        "sum_a2_closed", "sum_b2_closed", "sum_c2_closed", "sum_c1_closed",
        "hyper_sum_a2", "hyper_sum_b2", "hyper_sum_c1",
        "phi_sum_a2", "phi_sum_b2", "phi_sum_c1",
    ),
}

CHECK_IDS = {
    "check_anz1": "ANZ1",
    "check_anz2": "ANZ2",
    "check_anz3": "ANZ3",
    "check_eq4": "EQ4",
    "check_eq5": "EQ5",
    "check_a2_sum": "A2_SUM",
    "check_b2_sum": "B2_SUM",
    "check_c2_sum": "C2_SUM",
    "check_c1_sum": "C1_SUM",
    "check_splits": "AB_SPLIT",
    "check_d": "D_EQ_B2",
    "check_final_combine": "FINAL_COMBINE",
}

def _qident_modules():
    return [m for n, m in sys.modules.items() if n == "qident" or n.startswith("qident.")]


class Tracer:
    """Records spans and counters for one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, in start order.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.first_call_ns: dict[int, int] = {}  # lhs_anz1(m) -> ns
        self.compared: list = []
        self._undo: list = []
        self.missing: list[str] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """A span-recording wrapper around fn.  ``before(args)`` may return
        replacement args; ``after(args, result, duration_ns)`` observes the
        result outside the timed span."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
            if after is not None:
                after(args, result, end - starts[idx])
            return result

        update_wrapper(traced, fn)
        return traced

    def _rebind_function(self, original, wrapper):
        for module in _qident_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _rebind_method(self, cls, method_name, name, **hooks):
        raw = vars(cls)[method_name]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self.wrap(name, raw.__func__, **hooks))
        else:
            wrapper = self.wrap(name, raw, **hooks)
        for attr, value in list(vars(cls).items()):
            if value is raw:
                setattr(cls, attr, wrapper)
                self._undo.append((cls, attr, raw))

    def install(self):
        """Wrap every traced layer function; call after importing qident.

        A name that no longer exists (after a refactor of the program) is
        listed in ``missing`` and its metrics read 0."""
        hooks = self._hooks()
        targets = [(f"qident.{module}", path, name) for module, path, name in TRACED]
        targets += [
            ("qident.identities", fn, f"identities.{group}")
            for group, fns in IDENTITY_GROUPS.items()
            for fn in fns
        ]
        targets += [
            ("qident.identities", fn, f"identities.check.{ident}")
            for fn, ident in CHECK_IDS.items()
        ]
        for module_name, path, name in targets:
            owner = sys.modules.get(module_name)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
            elif cls_name:
                self._rebind_method(owner, attr, name, **hooks.get(path, {}))
            else:
                original = vars(owner)[attr]
                self._rebind_function(original, self.wrap(name, original, **hooks.get(path, {})))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- observation hooks ----------------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts
        compared = self.compared
        first_call = self.first_call_ns

        def gcd_after(args, result, dur):
            if result.degree > 0:
                counts["poly_gcd.nontrivial"] += 1

        def mul_after(args, result, dur):
            counts["Polynomial.mul.coeff_products"] += len(args[0].coeffs) * len(args[1].coeffs)

        def rf_sum_before(args):
            def counted(terms):
                for t in terms:
                    counts["rf_sum.terms"] += 1
                    yield t

            return (counted(args[0]),) + args[1:]

        def record_after(args, result, dur):
            compared.append(args[2])
            compared.append(args[3])

        def enum_after(args, result, dur):
            counts["enumerate_partitions.partitions"] += len(result)

        def lhs_anz1_after(args, result, dur):
            first_call.setdefault(args[0], dur)

        def cutoff_after(args, result, dur):
            counts["product_cutoff"] = max(counts["product_cutoff"], result.product_cutoff)

        return {
            "poly_gcd": {"after": gcd_after},
            "Polynomial.__mul__": {"after": mul_after},
            "rf_sum": {"before": rf_sum_before},
            "VerificationReport.record": {"after": record_after},
            "enumerate_partitions": {"after": enum_after},
            "MeasureParams.with_tolerance": {"after": cutoff_after},
            "lhs_anz1": {"after": lhs_anz1_after},
        }

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (calls, self time in ns)."""
        n = len(self.span_name)
        child = [0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for i in range(n):
            name = self.names[names[i]]
            calls[name] += 1
            self_ns[name] += ends[i] - starts[i] - child[i]
        return dict(calls), dict(self_ns)

    def write_jsonl(self, path, header: dict):
        """Write a header record naming the fields and span names, then one
        [id, name index, start, end, parent] array per span, with times in
        ns since the pass's first span."""
        t0 = self.span_start[0] if self.span_start else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                **header,
                "pass": self.pass_id,
                "t0_ns": t0,
                "names": self.names,
                "fields": ["id", "name", "start_ns", "end_ns", "parent"],
            }) + "\n")
            for i in range(len(self.span_name)):
                fh.write(json.dumps([
                    i, self.span_name[i], self.span_start[i] - t0,
                    self.span_end[i] - t0, self.span_parent[i],
                ]) + "\n")
