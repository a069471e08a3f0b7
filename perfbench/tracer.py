"""Spans around the calls into each ietword layer, for the traced run.

install() replaces a layer's public functions, in every ietword module
that holds them, with wrappers that record a span: [id, parent, name,
start, end, attrs]. The parent is the span open when the call began, so
library calls made by `cli.main` are its children. A span's self time is
its duration minus its children's, which do not overlap (one thread).
The worker opens one root span per operation, `op.<kind>`.

Exact scalar arithmetic and comparisons run millions of times, so they
keep only a call count and a total time, for the outermost call.

FactorSet construction computes every level of the index up front, one
`words.counts` span per level, so that the consumer of the index is
timed on its own work and the index on its own.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

SPANNED = {
    "config": ["parse_iet_config"],
    "iet": ["natural_coding", "check_regular", "check_idoc", "essential_codings",
            "cylinder", "apply", "apply_inverse"],
    "rauzy": ["build_k_graph", "validate_evolution"],
    "orders": ["search_orders", "check_orders"],
    "reconstruct": ["cylinder_measures", "reconstruct_iet", "verify_roundtrip"],
    "cli": ["main"],
}
COMPARE = ["sign", "__lt__", "__eq__"]
ARITH = ["__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
         "__rtruediv__", "__neg__"]


class Tracer:
    def __init__(self):
        self.spans = []
        self.hot = {"exact.compare": [0, 0.0], "exact.arith": [0, 0.0]}
        self.counts = {}
        self._open = []
        self._hot_busy = False

    def begin(self, name, attrs=None):
        span = [len(self.spans), self._open[-1][0] if self._open else None,
                name, perf_counter(), None, attrs or {}]
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span):
        span[4] = perf_counter()
        self._open.pop()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span[5] = attrs(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_hot(self, name, fn):
        stats = self.hot[name]

        def timed(*args):
            if self._hot_busy:
                return fn(*args)
            self._hot_busy = True
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                stats[1] += perf_counter() - t0
                stats[0] += 1
                self._hot_busy = False
        return timed

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "parent": s[1], "name": s[2],
                                     "start": s[3], "end": s[4],
                                     "attrs": s[5]}) + "\n")
            fh.write(json.dumps({"hot": self.hot, "counts": self.counts}) + "\n")


_ATTRS = {
    "iet.natural_coding": lambda a, r: {"letters": len(r)},
    "iet.check_regular": lambda a, r: {"steps": a[0].k * a[1],
                                       "collided": r.collided},
    "iet.check_idoc": lambda a, r: {"steps": (a[0].k - 1) * a[1],
                                    "collided": r.collided},
    # both one-sided limits at an interior point
    "iet.essential_codings": lambda a, r: {"steps": 2 * a[3]},
    "iet.cylinder": lambda a, r: {"nonempty": bool(r)},
    "rauzy.build_k_graph": lambda a, r: {"arcs": len(r.arcs)},
    "orders.search_orders": lambda a, r: {"found": len(r)},
}


def install(tracer: Tracer) -> None:
    mods = {name: m for name, m in sys.modules.items()
            if name.startswith("ietword.") and m is not None}
    for layer, names in SPANNED.items():
        module = mods[f"ietword.{layer}"]
        for fname in names:
            orig = getattr(module, fname)
            key = f"{layer}.{fname}"
            wrapped = tracer.wrap(key, orig, _ATTRS.get(key))
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)

    scalar = mods["ietword.exact"].ExactScalar
    for group, names in (("exact.compare", COMPARE), ("exact.arith", ARITH)):
        for fname in names:
            setattr(scalar, fname, tracer.wrap_hot(group, getattr(scalar, fname)))

    factor_set = mods["ietword.words"].FactorSet
    plain_init = factor_set.__init__

    def forced_init(fs, word, max_len, *args, **kwargs):
        span = tracer.begin("words.FactorSet")
        try:
            plain_init(fs, word, max_len, *args, **kwargs)
            for n in range(1, max_len + 1):
                level = tracer.begin("words.counts")
                got = fs.counts(n)
                tracer.end(level)
                level[5] = {"n": n, "windows": len(word) - n + 1,
                            "distinct": len(got)}
        finally:
            tracer.end(span)
    factor_set.__init__ = forced_init


# ------------------------------------------------------------- metrics

def layer_metrics(tracer: Tracer, cycles: int, overhead_s: float) -> dict:
    """The per-layer metrics, per traced cycle (counts and times alike)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    parent_name = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[4] - s[3]
    for s in spans:
        parent_name[s[0]] = spans[s[1]][2] if s[1] is not None else None

    def total(name, where=lambda s: True):
        return sum(s[4] - s[3] for s in spans if s[2] == name and where(s))

    def self_time(name):
        return sum(s[4] - s[3] - child_time[s[0]] for s in spans if s[2] == name)

    def attr(name, key, where=lambda s: True):
        return sum(s[5].get(key, 0) for s in spans if s[2] == name and where(s))

    def calls(name, where=lambda s: True):
        return sum(1 for s in spans if s[2] == name and where(s))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    def hot_us(group):
        n, t = tracer.hot[group]
        return ratio(t, n, 1e6)

    free = lambda s: not s[5].get("collided")     # noqa: E731
    short = lambda s: s[5]["n"] <= 6              # noqa: E731
    in_search = lambda s: parent_name[s[0]] == "orders.search_orders"  # noqa: E731
    reg_steps = attr("iet.check_regular", "steps", free) + \
        attr("iet.check_idoc", "steps", free)
    reg_free_s = total("iet.check_regular", free) + total("iet.check_idoc", free)
    windows = attr("words.counts", "windows")
    distinct = attr("words.counts", "distinct")
    search_s = total("orders.search_orders")
    tried = calls("orders.check_orders", in_search)
    cyl_calls = calls("iet.cylinder")

    per_cycle = {
        "exact.compare_us": (hot_us("exact.compare"), "us", False),
        "exact.arith_us": (hot_us("exact.arith"), "us", False),
        "iet.natural_coding_s": (total("iet.natural_coding"), "s", True),
        "iet.us_per_letter": (ratio(total("iet.natural_coding"),
                                    attr("iet.natural_coding", "letters"), 1e6),
                              "us", False),
        "iet.check_regular_s": (total("iet.check_regular"), "s", True),
        "iet.check_idoc_s": (total("iet.check_idoc"), "s", True),
        "iet.us_per_orbit_step": (ratio(reg_free_s, reg_steps, 1e6), "us", False),
        "iet.essential_codings_s": (total("iet.essential_codings"), "s", True),
        "iet.essential_us_per_step": (ratio(total("iet.essential_codings"),
                                            attr("iet.essential_codings", "steps"),
                                            1e6), "us", False),
        "iet.cylinder_s": (total("iet.cylinder"), "s", True),
        "iet.cylinder_calls": (cyl_calls, "count", True),
        "iet.cylinder_nonempty_ratio": (ratio(attr("iet.cylinder", "nonempty"),
                                              cyl_calls), "ratio", False),
        "iet.apply_us": (ratio(total("iet.apply"), calls("iet.apply"), 1e6),
                         "us", False),
        "iet.apply_inverse_us": (ratio(total("iet.apply_inverse"),
                                       calls("iet.apply_inverse"), 1e6),
                                 "us", False),
        "words.counts_s.short": (total("words.counts", short), "s", True),
        "words.counts_s.long": (total("words.counts", lambda s: not short(s)),
                                "s", True),
        "words.windows_scanned": (windows, "count", True),
        "words.distinct_factors": (distinct, "count", True),
        "words.distinct_per_window": (ratio(distinct, windows), "ratio", False),
        "rauzy.build_k_graph_s": (total("rauzy.build_k_graph"), "s", True),
        "rauzy.arcs": (attr("rauzy.build_k_graph", "arcs"), "count", True),
        "rauzy.validate_self_s": (self_time("rauzy.validate_evolution"), "s", True),
        "orders.search_s": (search_s, "s", True),
        "orders.check_s": (total("orders.check_orders"), "s", True),
        "orders.pairs_tried": (tried, "count", True),
        "orders.pairs_found": (attr("orders.search_orders", "found"), "count", True),
        "orders.us_per_pair": (ratio(search_s, tried, 1e6), "us", False),
        "reconstruct.measures_s": (total("reconstruct.cylinder_measures"), "s", True),
        "reconstruct.candidate_s": (self_time("reconstruct.reconstruct_iet"),
                                    "s", True),
        "reconstruct.roundtrip_s": (total("reconstruct.verify_roundtrip"), "s", True),
        "config.parse_s": (total("config.parse_iet_config"), "s", True),
        "cli.self_s": (self_time("cli.main"), "s", True),
        "cli.bytes_read": (tracer.counts.get("cli.bytes_read", 0), "B", True),
        "cli.bytes_written": (tracer.counts.get("cli.bytes_written", 0), "B", True),
    }
    out = {name: {"value": v / cycles if summed else v, "unit": unit}
           for name, (v, unit, summed) in per_cycle.items()}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out
