"""Per-layer spans recorded from outside flagsplit.

The tracer rebinds public functions of each layer to timing wrappers.  Since
modules bind names with `from .x import y`, a module-level function is
rebound in every flagsplit module that holds it; a method is rebound on its
class.  No flagsplit source is touched, and `uninstall` restores every
binding.

Spans live in flat typed arrays (one entry per call: name, start, end,
parent span, request id) and are written out when the run ends.  Counters
that give work done are recorded by the same wrappers.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (layer module, attribute path, span name).  A span name's first component
# is its layer.
TARGETS = [
    ("rootdata", "build_group_datum", "rootdata.build_group_datum"),
    ("rootdata", "GroupDatum.negative_root_generators", "rootdata.negative_root_generators"),
    ("rootdata", "GroupDatum.in_group", "rootdata.in_group"),
    ("rootdata", "GroupDatum.levi_longest_word", "rootdata.levi_longest_word"),
    ("rootdata", "GroupDatum.levi_longest_representative", "rootdata.levi_longest_representative"),
    ("charts", "big_cell_chart", "charts.build"),
    ("charts", "levi_center_chart", "charts.build"),
    ("charts", "sl_entry_big_cell", "charts.build"),
    ("charts", "sl_explicit_chart", "charts.build"),
    ("charts", "specialization_family", "charts.build"),
    ("matrix", "column_minor", "matrix.column_minor"),
    ("matrix", "exp_nilpotent", "matrix.exp_nilpotent"),
    ("matrix", "PolyMatrix.__mul__", "matrix.mul"),
    ("poly", "Polynomial.__mul__", "poly.mul"),
    ("poly", "Polynomial.__rmul__", "poly.mul"),
    ("poly", "Polynomial.substitute", "poly.substitute"),
    ("sections", "build_sigma_pair", "sections.build_sigma_pair"),
    ("sections", "SectionProduct.evaluate", "sections.evaluate"),
    ("sections", "equivariance_suite", "sections.equivariance_suite"),
    ("vanishing", "max_multiplicity_verdict", "vanishing.max_multiplicity_verdict"),
    ("vanishing", "sl_order_table_check", "vanishing.sl_order_table_check"),
    ("vanishing", "order_at_center", "vanishing.order_at_center"),
    ("vanishing", "sigma_plus_unit_at_identity", "vanishing.sigma_plus_unit_at_identity"),
    ("splitting", "splitting_coefficient", "splitting.coefficient"),
    ("splitting", "local_splitting_coefficient", "splitting.coefficient"),
    ("splitting", "squarefree_probe", "splitting.squarefree"),
    ("splitting", "rnc_search", "splitting.rnc_search"),
    ("splitting", "rnc_verify", "splitting.rnc_verify"),
    ("splitting", "skew_minor_claim", "splitting.skew"),
    ("cli", "run_suite", "cli.run_suite"),
    ("cli", "emit_report", "cli.emit_report"),
]


def _chart_key(fn_name, args, kwargs):
    """(chart kind, group, args) with a group reduced to (family, n)."""
    def norm(a):
        return (a.family, a.n) if hasattr(a, "family") and hasattr(a, "n") else a
    return (fn_name, tuple(norm(a) for a in args),
            tuple(sorted((k, norm(v)) for k, v in kwargs.items())))


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.request_id = -1
        self.counts = Counter()
        self.chart_keys = set()
        self._stack = []
        self._restore = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, after):
        nid = self._id(name)
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, requests, stack = self.parent, self.request, self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _after_hook(self, span_name, attr):
        counts = self.counts
        if span_name == "poly.mul":
            def after(args, kwargs, result):
                a, b = args
                counts["poly.mul.term_pairs"] += len(a.terms) * (
                    len(b.terms) if hasattr(b, "terms") else 1)
            return after
        if span_name == "sections.evaluate":
            def after(args, kwargs, result):
                counts["sections.evaluate.terms_out"] += len(result.terms)
            return after
        if span_name == "charts.build":
            keys = self.chart_keys

            def after(args, kwargs, result):
                keys.add(_chart_key(attr, args, kwargs))
            return after
        if span_name == "splitting.coefficient" and attr == "splitting_coefficient":
            def after(args, kwargs, result):
                if result.status != "computed":
                    counts["splitting.guard_trips"] += 1
            return after
        if span_name == "splitting.squarefree":
            def after(args, kwargs, result):
                counts["splitting.squarefree.trials"] += result["trials"]
                counts["splitting.squarefree.discarded"] += result["discarded"]
            return after
        if span_name == "cli.emit_report":
            def after(args, kwargs, result):
                counts["cli.emit_report.bytes"] += len(result.encode())
            return after
        return None

    def install(self):
        """Rebind every target in the imported flagsplit to a wrapper."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and k.split(".")[0] == "flagsplit"]
        for layer, path, span_name in TARGETS:
            owner = sys.modules[f"flagsplit.{layer}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(span_name, original,
                                 self._after_hook(span_name, attr))
            if outer:  # a method: rebind on its class
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        """Header line of JSON, then the raw arrays in header order."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "byteorder": sys.byteorder,
            "arrays": [["name_id", "H"], ["start", "d"], ["end", "d"],
                       ["parent", "q"], ["request", "q"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent,
                        self.request):
                arr.tofile(fh)


def self_times(names, name_id, start, end, parent):
    """Per span name: (calls, self seconds).  A span's self time is its
    duration minus the durations of its direct children; in one thread the
    children of a span are disjoint and lie inside it."""
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = [0] * len(names)
    own = [0.0] * len(names)
    for i in range(n):
        k = name_id[i]
        calls[k] += 1
        own[k] += end[i] - start[i] - child[i]
    return {name: (calls[k], own[k]) for k, name in enumerate(names)}


def layer_metrics(tracer):
    """Per-layer metric name -> (value, unit); a layer's figures sum every
    span name that starts with the layer's prefix."""
    table = self_times(tracer.names, tracer.name_id, tracer.start, tracer.end,
                       tracer.parent)
    counts = tracer.counts

    def calls(prefix):
        return sum(c for name, (c, _) in table.items() if name.startswith(prefix))

    def own(prefix):
        return sum(s for name, (_, s) in table.items() if name.startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    trials = counts["splitting.squarefree.trials"]
    discarded = counts["splitting.squarefree.discarded"]
    builds = calls("charts.")
    return {
        "rootdata.calls": (calls("rootdata."), "count"),
        "rootdata.self_s": (own("rootdata."), "s"),
        "charts.builds": (builds, "count"),
        "charts.self_s": (own("charts."), "s"),
        "charts.distinct_ratio": (ratio(len(tracer.chart_keys), builds), "ratio"),
        "matrix.column_minor.calls": (calls("matrix.column_minor"), "count"),
        "matrix.self_s": (own("matrix."), "s"),
        "poly.mul.calls": (calls("poly.mul"), "count"),
        "poly.mul.term_pairs": (counts["poly.mul.term_pairs"], "count"),
        "poly.mul.self_s": (own("poly.mul"), "s"),
        "poly.substitute.calls": (calls("poly.substitute"), "count"),
        "poly.substitute.self_s": (own("poly.substitute"), "s"),
        "sections.evaluate.calls": (calls("sections.evaluate"), "count"),
        "sections.evaluate.terms_out": (counts["sections.evaluate.terms_out"], "count"),
        "sections.self_s": (own("sections."), "s"),
        "vanishing.calls": (calls("vanishing."), "count"),
        "vanishing.self_s": (own("vanishing."), "s"),
        "splitting.coefficient.self_s": (own("splitting.coefficient"), "s"),
        "splitting.guard_trips": (counts["splitting.guard_trips"], "count"),
        "splitting.squarefree.self_s": (own("splitting.squarefree"), "s"),
        "splitting.squarefree.discard_ratio": (ratio(discarded, trials + discarded), "ratio"),
        "splitting.rnc_search.self_s": (own("splitting.rnc_search"), "s"),
        "splitting.rnc_verify.self_s": (own("splitting.rnc_verify"), "s"),
        "cli.run_suite.self_s": (own("cli.run_suite"), "s"),
        "cli.emit_report.self_s": (own("cli.emit_report"), "s"),
        "cli.emit_report.bytes": (counts["cli.emit_report.bytes"], "count"),
    }
