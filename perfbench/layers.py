"""Per-layer spans for the traced benchmark pass.

`install()` wraps the public entry points of the assoc2 modules from outside
the package.  Each wrapped call records a span (name, start, end, parent) in
memory; `Recorder.summary()` derives self times (span duration minus the
durations of its direct child spans) and counts from them at the end.

Every attribute of an assoc2 module that refers to a wrapped function is
rebound, so calls through aliases such as audit's
`from .twoassoc import count_W` are seen too.  The hot predicates
`RankedPoset.leq` and `alternating_sum` are not wrapped: leq runs millions of
times per pass and a wrapper would dominate what it measures.
"""

from __future__ import annotations

import itertools
import sys
import time
from array import array

# (span name, module, owner class or None, attribute)
TARGETS = [
    ("trees.enumerate_Kr", "trees", None, "enumerate_Kr"),
    ("trees.count_K", "trees", None, "count_K"),
    ("trees.all_bracketings", "trees", None, "all_bracketings"),
    ("twoassoc.validate_two_bracketing", "twoassoc", None, "validate_two_bracketing"),
    ("twoassoc.enumerate_Wn", "twoassoc", None, "enumerate_Wn"),
    ("twoassoc.count_W", "twoassoc", None, "count_W"),
    ("poset.from_order", "poset", "RankedPoset", "from_order"),
    ("poset.closure", "poset", "RankedPoset", "__init__"),
    ("poset.verify_eulerian", "poset", "RankedPoset", "verify_eulerian"),
    ("poset.diamond_failures", "poset", "RankedPoset", "diamond_failures"),
    ("poset.mobius", "poset", "RankedPoset", "mobius"),
    ("poset.flag_f_vector", "poset", None, "flag_f_vector"),
    ("poset.cd_index", "poset", None, "cd_index"),
    ("poset.reduced_product", "poset", None, "reduced_product"),
    ("poset.fiber_product", "poset", None, "fiber_product"),
    ("series.solve_F", "series", None, "solve_F"),
    ("series.solve_f", "series", None, "solve_f"),
    ("audit.audit_desk", "audit", None, "audit_desk"),
    ("audit.audit_counts", "audit", None, "audit_counts"),
    ("audit.audit_identities", "audit", None, "audit_identities"),
    ("audit.audit_fiber_products", "audit", None, "audit_fiber_products"),
    ("audit.audit_reduced_products", "audit", None, "audit_reduced_products"),
    ("audit.bounded_graded_family", "audit", None, "bounded_graded_family"),
    ("audit.fiber_rank_counts", "audit", None, "fiber_rank_counts"),
    ("audit.audit_eulerian", "audit", None, "audit_eulerian"),
    ("cli.main", "cli", None, "main"),
]

# Calls whose key was already seen in this process count as memo hits.
MEMO_KEYS = {
    "twoassoc.enumerate_Wn": lambda n, *rest, **kw: (tuple(n), rest, tuple(sorted(kw.items()))),
    "series.solve_F": lambda tree, max_degree: (tree, max_degree),
}


class Recorder:
    """Spans of one process, kept in flat arrays until the pass ends."""

    def __init__(self, names):
        self.names = list(names)
        self.name_of = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.open = [-1]
        self.counts: dict[str, int] = {}
        self.seen: dict[str, set] = {name: set() for name in MEMO_KEYS}

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def wrap(self, name, fn):
        nid = self.name_of[name]
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, open_spans = self.span_start, self.span_end, self.open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(span_start)
            span_name.append(nid)
            span_parent.append(open_spans[-1])
            span_end.append(0.0)
            open_spans.append(sid)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                open_spans.pop()

        return traced

    def summary(self) -> dict:
        """Self time and calls per span name, (parent, child) call counts, counters."""
        n = len(self.span_start)
        child = [0.0] * n
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        edges: dict[tuple[str, str], int] = {}
        for sid in range(n):
            nid = self.span_name[sid]
            dur = self.span_end[sid] - self.span_start[sid]
            self_s[nid] += dur - child[sid]
            calls[nid] += 1
            parent = self.span_parent[sid]
            key = (self.names[self.span_name[parent]] if parent >= 0 else "-", self.names[nid])
            edges[key] = edges.get(key, 0) + 1
        return {
            "spans": n,
            "self_s": dict(zip(self.names, self_s)),
            "calls": dict(zip(self.names, calls)),
            "edges": [[p, c, k] for (p, c), k in sorted(edges.items())],
            "counts": dict(self.counts),
        }


def _hooked(rec: Recorder, name: str, fn):
    """Add the counters that come from arguments and return values."""
    if name in MEMO_KEYS:
        key_of, seen = MEMO_KEYS[name], rec.seen[name]

        def memo(*args, **kwargs):
            key = key_of(*args, **kwargs)
            if key in seen:
                rec.add(name + ".memo_hits", 1)
                return fn(*args, **kwargs)
            seen.add(key)
            result = fn(*args, **kwargs)
            if name == "twoassoc.enumerate_Wn":
                rec.add("twoassoc.faces", len(result))
            return result
        return memo
    if name == "poset.from_order":
        def from_order(cls, ranked_labels, leq, meta=None):
            probes = itertools.count()
            tick = probes.__next__

            def probe(x, y):
                tick()
                return leq(x, y)
            try:
                return fn(cls, ranked_labels, probe, meta)
            finally:
                rec.add("poset.from_order.pairs_probed", next(probes))
        return from_order
    if name == "poset.closure":
        def init(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            rec.add("poset.covers", len(self.cover_pairs))
        return init
    if name == "poset.verify_eulerian":
        def verify(self):
            report = fn(self)
            rec.add("poset.verify_eulerian.pairs_checked", report.pairs_checked)
            return report
        return verify
    if name == "poset.flag_f_vector":
        def flag(P):
            fv = fn(P)
            rec.add("poset.flag_f_vector.rank_sets", len(fv.entries))
            return fv
        return flag
    return fn


def install() -> Recorder:
    """Wrap every target once and rebind all of its aliases in assoc2."""
    rec = Recorder(name for name, *_ in TARGETS)
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "assoc2" or key.startswith("assoc2."))]
    for name, module, owner, attr in TARGETS:
        mod = sys.modules["assoc2." + module]
        if owner is not None:
            cls = getattr(mod, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                inner = rec.wrap(name, _hooked(rec, name, raw.__func__))
                setattr(cls, attr, classmethod(inner))
            else:
                setattr(cls, attr, rec.wrap(name, _hooked(rec, name, raw)))
            continue
        orig = getattr(mod, attr)
        traced = rec.wrap(name, _hooked(rec, name, orig))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, traced)
    return rec
