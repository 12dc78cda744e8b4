"""Span tracing from outside the program, for the traced benchmark pass.

Each wrapper replaces a function under the name its caller looks it up by
(``translate.py`` does ``from .after import af_class``, so the wrapper goes on
``pastdra.translate.af_class``).  A span's self time is its duration minus the
time covered by the spans it encloses.  A call that re-enters the span that
is already innermost (recursion through a module global, as in
``proplogic.canonicalize``) belongs to that span and opens none.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Module-global tables whose size is read at the end of a child.  A table
# that a later version no longer has is reported as absent.
TABLES = {
    "formula.interned": ("pastdra.formula", "_interned"),
    "proplogic.bdd_nodes": ("pastdra.proplogic", "_nodes"),
    "after.afloc_memo": ("pastdra.after", "_afloc_memo"),
}


class Tracer:
    def __init__(self):
        self.self_s = {}      # span name -> summed self time
        self.calls = {}       # span name -> number of spans
        self.counts = {}      # counter name -> summed count
        self._stack = []      # open spans as [name, time of child spans]

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                self_s[name] = self_s.get(name, 0.0) + took - frame[1]
                calls[name] = calls.get(name, 0) + 1
        return wrapper

    def observed(self, fn, observe):
        """Wrap ``fn`` to pass each result to ``observe``, no span."""
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            observe(out)
            return out
        return wrapper

    def report(self):
        return {"self_s": self.self_s, "calls": self.calls,
                "counts": self.counts}


def install(tracer):
    """Patch the layer entry points of an imported ``pastdra``."""
    formula = sys.modules["pastdra.formula"]
    proplogic = sys.modules["pastdra.proplogic"]
    automata = sys.modules["pastdra.automata"]
    hoa = sys.modules["pastdra.hoa"]
    lasso = sys.modules["pastdra.lasso"]
    # The package attribute ``pastdra.translate`` is the function.
    tr = sys.modules["pastdra.translate"]
    span, observed, add = tracer.span, tracer.observed, tracer.add

    formula.parse = span("formula.parse", formula.parse)
    proplogic.canonicalize = span("proplogic.canonicalize",
                                  proplogic.canonicalize)
    automata.accepts = span("automata.accepts", automata.accepts)
    automata._explore = observed(
        automata._explore,
        lambda out: add("automata.explored_states", len(out[0])))
    hoa.export_hoa = observed(
        span("hoa.export", hoa.export_hoa),
        lambda text: add("hoa.bytes", len(text.encode())))
    lasso.holds = span("lasso.holds", lasso.holds)

    for name in ("enumerate_past_sets", "is_saturated"):
        setattr(tr, name, span("rewrites.past_sets", getattr(tr, name)))
    for name in ("rewrite_set", "rewrite_under", "wc",
                 "rewrite_mu_limit", "rewrite_nu_limit"):
        setattr(tr, name, span("rewrites.limits", getattr(tr, name)))
    tr.af_loc = span("after.af_loc", tr.af_loc)
    tr.af_class = span("after.af_class", tr.af_class)
    tr.cascade = span("automata.cascade", tr.cascade)
    tr.build_wc_automaton = observed(
        span("translate.bed", tr.build_wc_automaton),
        lambda bed: add("translate.bed_states", len(bed.trans)))
    cls = tr.TranslationContext
    cls.rc = span("translate.rc", cls.rc)

    def context_sizes(ctx):
        add("rewrites.past_sets", ctx.k)
        add("translate.branches", 1 << (len(ctx.mu) + len(ctx.nu)))

    tr.TranslationContext = observed(span("translate.context", cls),
                                     context_sizes)
    tr.translate = span("translate.translate", tr.translate)


def table_sizes():
    out = {}
    for metric, (module, attr) in TABLES.items():
        table = getattr(sys.modules.get(module), attr, None)
        if table is not None:
            out[metric] = len(table)
    return out
