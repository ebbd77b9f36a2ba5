"""Per-layer spans and counters, taken from outside cedga.

The benchmark wraps cedga's public entry points where their callers look
them up and puts the originals back afterwards; nothing under ``src/`` is
edited.  Functions are patched as module attributes, methods on their
classes.  ``morphisms`` imports ``composable_words`` by name, so the
enumerator is patched in both ``analysis`` and ``morphisms``; the
``LinearSolver``, ``Presentation`` and ``RewriteSystem`` methods live on
classes that every importer shares.

A timing pass records spans (name, start, end, parent, job) and sums each
layer's self time: a span's duration minus the time of its child spans.
A counting pass, run separately so that counting does not inflate the
timed self times, counts calls and work items, including every arithmetic
call on a coefficient ring.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


def _calls(a, k, r):
    return {"calls": 1}


def _calls_terms(a, k, r):
    return {"calls": 1, "terms": len(r)}


def _enumerated(a, k, r):
    return {"calls": 1, "words": len(r)}


def _h0_report(a, k, r):
    return {"rules": len(r.rules), "basis": r.dimension,
            "truncated": int(r.truncated)}


def patch_points(pkg):
    """(owner, attribute, layer, counts(args, kwargs, result)) for each
    wrapped entry point; counts returns {counter suffix: increment}."""
    an, mo, al = pkg.analysis, pkg.morphisms, pkg.algebra
    solver, pres, rewrite = an.LinearSolver, al.Presentation, an.RewriteSystem
    return [
        (an, "composable_words", "analysis.enumerate", _enumerated),
        (mo, "composable_words", "analysis.enumerate", _enumerated),
        (solver, "add_column", "analysis.eliminate",
         lambda a, k, r: {"columns": 1, "nonzeros": len(a[2])}),
        (solver, "solve", "analysis.eliminate",
         lambda a, k, r: {"solves": 1, "nonzeros": len(a[1]),
                          "infeasible": int(r is None)}),
        (pres, "d_word", "algebra.d_word", _calls_terms),
        (pres, "apply_differential", "algebra.apply_differential",
         _calls_terms),
        (pres, "mul", "algebra.mul", _calls),
        (rewrite, "normal_form", "analysis.rewrite",
         lambda a, k, r: {"normal_form_calls": 1}),
        (rewrite, "orient", "analysis.rewrite",
         lambda a, k, r: {"orient_calls": 1}),
        (rewrite, "interreduce", "analysis.rewrite", None),
        (an, "h0", "analysis.h0", _h0_report),
        (mo, "obstruct_y_filling", "morphisms.obstruct", None),
        (mo, "verify_chain_map", "morphisms.verify", None),
        (mo, "verify_augmentation", "morphisms.verify", None),
        (mo, "partial_linearize", "morphisms.verify", None),
        (pkg.dsl, "parse", "dsl.parse",
         lambda a, k, r: {"bytes": len(a[0])}),
        (pkg.dsl, "serialize", "dsl.serialize",
         lambda a, k, r: {"bytes": len(r)}),
        (pkg.cli, "main", "cli", None),
    ]


RING_OPS = ("add", "sub", "neg", "mul", "inverse", "div")

# Per-layer metrics reported by a traced run, in print order.
SELF_TIMES = ("analysis.enumerate", "analysis.eliminate", "algebra.d_word",
              "algebra.apply_differential", "algebra.mul", "analysis.rewrite",
              "analysis.h0", "morphisms.obstruct", "morphisms.verify",
              "dsl.parse", "dsl.serialize", "cli", "job")
COUNTS = ("analysis.enumerate.calls", "analysis.enumerate.words",
          "analysis.eliminate.columns", "analysis.eliminate.nonzeros",
          "analysis.eliminate.solves", "analysis.eliminate.infeasible",
          "algebra.d_word.calls", "algebra.d_word.terms",
          "algebra.apply_differential.calls",
          "algebra.apply_differential.terms", "algebra.mul.calls",
          "analysis.rewrite.normal_form_calls",
          "analysis.rewrite.orient_calls", "analysis.h0.rules",
          "analysis.h0.basis", "analysis.h0.truncated", "dsl.parse.bytes",
          "dsl.serialize.bytes", "coefficients.ops.Q",
          "coefficients.ops.GF2", "coefficients.ops.laurent")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Tracer:
    """Spans kept in memory; self time summed per span name."""

    def __init__(self, keep_spans):
        self.self_s = defaultdict(float)
        self.spans = [] if keep_spans else None
        self.job = None
        self._stack = []
        self._next_id = 0

    def call(self, name, fn, args=(), kwargs=None):
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id]
        stack = self._stack
        parent = stack[-1] if stack else None
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            stack.pop()
            duration = t1 - t0
            self.self_s[name] += duration - frame[0]
            if parent is not None:
                parent[0] += duration
            if self.spans is not None:
                self.spans.append((name, t0, t1, span_id,
                                   parent[1] if parent else None, self.job))

    def install(self, pkg):
        patches = Patches()
        for owner, attr, layer, _ in patch_points(pkg):
            patches.replace(owner, attr, self._wrap(layer, vars(owner)[attr]))
        return patches

    def _wrap(self, layer, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs)
        return traced

    def write(self, path):
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "id",
                                            "parent", "job"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install_counting(pkg, counts: Counter):
    """Count calls and work items at every patch point and ring op."""
    patches = Patches()
    for owner, attr, layer, counter in patch_points(pkg):
        if counter is not None:
            patches.replace(owner, attr,
                            _counting(vars(owner)[attr], layer, counter,
                                      counts))
    ring = pkg.coefficients.CoeffRing
    for op in RING_OPS:
        patches.replace(ring, op, _ring_counting(vars(ring)[op], counts))
    return patches


def _counting(fn, layer, counter, counts):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        for key, n in counter(args, kwargs, result).items():
            counts[f"{layer}.{key}"] += n
        return result
    return counted


def _ring_counting(fn, counts):
    def counted(ring, *args):
        counts["coefficients.ops." + ring.kind] += 1
        return fn(ring, *args)
    return counted
