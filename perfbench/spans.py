"""Spans around qflab's public functions, recorded from outside the
library.

Modules import these functions by name (`from .arith import
square_split`), so a function is wrapped at every point of use: each
attribute of a `qflab` module that holds the function is replaced while
tracing is installed and restored afterwards.  Spans (name, start, end,
parent span) are kept in flat in-memory arrays and written out once, at
the end of the run.  A span's self time is its duration minus the time
its child spans cover; a name's busy time counts only the spans with no
ancestor of the same name.
"""

from __future__ import annotations

import json
import os
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

# (defining module, attribute, span name); RepQuery methods are patched
# on the class, which every importer shares
FUNCTIONS = (
    ("qflab.theta", "theta_coeffs", "theta.theta_coeffs"),
    ("qflab.theta", "represent_count", "theta.represent_count"),
    ("qflab.arith", "square_split", "arith.square_split"),
    ("qflab.arith", "h_factor", "arith.h_factor"),
    ("qflab.search", "search_diagonal", "search.search_diagonal"),
    ("qflab.reduction", "canonical_form", "reduction.canonical_form"),
    ("qflab.reduction", "minkowski_reduce", "reduction.minkowski_reduce"),
    ("qflab.reduction", "is_isometric", "reduction.is_isometric"),
    ("qflab.cache", "cache_theta", "cache.cache_theta"),
    ("qflab.cache", "form_hash", "cache.form_hash"),
    ("qflab.qseries", "eta_expansion", "qseries.eta_expansion"),
    ("qflab.qseries", "eta_quotient_expansion", "qseries.eta_quotient_expansion"),
    ("qflab.qseries", "quotient_coefficient", "qseries.quotient_coefficient"),
    ("qflab.regularity", "is_strongly_s_regular", "regularity.is_strongly_s_regular"),
    ("qflab.regularity", "genus_pair_identity_check",
     "regularity.genus_pair_identity_check"),
    ("qflab.regularity", "check_indistinguishable",
     "regularity.check_indistinguishable"),
    ("qflab.verify", "run_table1", "verify.run_table1"),
    ("qflab.verify", "run_props", "verify.run_props"),
    ("qflab.verify", "run_lemma54", "verify.run_lemma54"),
)
METHODS = (
    ("qflab.theta", "RepQuery", "__init__", "theta.RepQuery.build"),
    ("qflab.theta", "RepQuery", "count", "theta.RepQuery.count"),
)

# span names reported as {calls, s}; SELF_TIMED ones also as self_s
TIMED = (
    "theta.RepQuery.build", "theta.RepQuery.count", "theta.represent_count",
    "theta.theta_coeffs", "arith.square_split", "arith.h_factor",
    "reduction.canonical_form", "reduction.minkowski_reduce",
    "reduction.is_isometric", "cache.cache_theta", "qseries.eta_expansion",
    "qseries.eta_quotient_expansion", "qseries.quotient_coefficient",
    "regularity.is_strongly_s_regular", "regularity.genus_pair_identity_check",
    "regularity.check_indistinguishable",
)
SELF_TIMED = ("cache.cache_theta", "regularity.is_strongly_s_regular",
              "regularity.genus_pair_identity_check",
              "regularity.check_indistinguishable")


def _snapshot(directory) -> dict:
    try:
        with os.scandir(directory) as entries:
            return {e.name: (e.stat().st_size, e.stat().st_mtime_ns)
                    for e in entries if e.name.endswith(".json")}
    except FileNotFoundError:
        return {}


class Tracer:
    """Installs span wrappers on qflab's public functions and turns the
    recorded spans into per-layer metrics.  `clock` gives span times;
    the worker passes its unscaled work clock, which stops while the
    benchmark checks outputs or calibrates."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.span_names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.counts = dict.fromkeys(
            ("points", "count_repeats", "search_examined", "search_filtered",
             "search_passed", "cache_hits", "cache_misses", "cache_bytes_read",
             "cache_bytes_written"), 0)
        self._seen_queries = weakref.WeakKeyDictionary()
        self._split_args: set = set()
        self._cache_key = None
        self._cache_before = None
        self._points = self._points_of_use()

    # -- installation ------------------------------------------------

    @staticmethod
    def _points_of_use():
        """(owner, attribute, span name) for every place a traced function
        is reachable under its public name."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "qflab" or name.startswith("qflab.")}
        points = []
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(modules[mod_name], attr)
            for mod in modules.values():
                for key, value in vars(mod).items():
                    if value is original:
                        points.append((mod, key, span))
        for mod_name, cls_name, attr, span in METHODS:
            points.append((getattr(modules[mod_name], cls_name), attr, span))
        return points

    def install(self):
        for owner, attr, span in self._points:
            current = getattr(owner, attr)
            self._saved.append((owner, attr, current))
            setattr(owner, attr, self._wrap(current, span))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _name_id(self, span: str) -> int:
        if span not in self.span_names:
            self.span_names.append(span)
        return self.span_names.index(span)

    def _wrap(self, fn, span: str):
        nid = self._name_id(span)
        pre = getattr(self, "_pre_" + span.replace(".", "_"), None)
        post = getattr(self, "_post_" + span.replace(".", "_"), None)
        start, end, name, parent, stack = (self.start, self.end, self.name,
                                           self.parent, self._stack)
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            if pre is not None:
                pre(args, kwargs)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                post(idx, args, kwargs, result)
            return result

        return traced

    # -- counters taken at the same boundaries ----------------------

    def _pre_theta_RepQuery_count(self, args, kwargs):
        query, m = args[0], args[1]
        seen = self._seen_queries.get(query)
        if seen is None:
            seen = self._seen_queries[query] = set()
        if m in seen:
            self.counts["count_repeats"] += 1
        else:
            seen.add(m)

    def _pre_arith_square_split(self, args, kwargs):
        self._split_args.add(args)

    def _post_theta_theta_coeffs(self, idx, args, kwargs, result):
        self.counts["points"] += sum(result)

    def _post_search_search_diagonal(self, idx, args, kwargs, result):
        self.counts["search_examined"] += result.examined
        self.counts["search_filtered"] += result.filtered_out

    def _post_regularity_is_strongly_s_regular(self, idx, args, kwargs, result):
        up = self.parent[idx]
        if (result.passed and up >= 0
                and self.span_names[self.name[up]] == "search.search_diagonal"):
            self.counts["search_passed"] += 1

    def _post_cache_form_hash(self, idx, args, kwargs, result):
        self._cache_key = result

    def _cache_dir(self, args, kwargs):
        from qflab.cache import resolve_cache_dir
        explicit = args[2] if len(args) > 2 else kwargs.get("cache_dir")
        return resolve_cache_dir(explicit)

    def _pre_cache_cache_theta(self, args, kwargs):
        directory = self._cache_dir(args, kwargs)
        self._cache_key = None
        self._cache_before = None if directory is None else _snapshot(directory)

    def _post_cache_cache_theta(self, idx, args, kwargs, result):
        before = self._cache_before
        if before is None:
            return
        after = _snapshot(self._cache_dir(args, kwargs))
        written = [name for name, stat in after.items() if before.get(name) != stat]
        read = before.get(f"theta-{self._cache_key}.json")
        if read is not None:
            self.counts["cache_bytes_read"] += read[0]
        if written:
            self.counts["cache_misses"] += 1
            self.counts["cache_bytes_written"] += sum(after[n][0] for n in written)
        else:
            self.counts["cache_hits"] += 1

    # -- results ----------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        return name, parent, dur

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each per traced pass."""
        name, parent, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        # a span nested in a span of its own name adds no busy time
        nested = np.zeros(len(dur), dtype=bool)
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            nested[live] |= name[anc[live]] == name[live]
            anc[live] = parent[anc[live]]

        def agg(span):
            if span not in self.span_names:
                return 0, 0.0, 0.0
            mask = name == self.span_names.index(span)
            return (int(mask.sum()), float(dur[mask & ~nested].sum()),
                    float(self_time[mask].sum()))

        out: dict[str, float] = {}
        per = 1.0 / max(passes, 1)
        for span in TIMED:
            calls, busy, own = agg(span)
            out[f"{span}.calls"] = calls * per
            out[f"{span}.s"] = busy * per
            if span in SELF_TIMED:
                out[f"{span}.self_s"] = own * per
        c = self.counts

        def frac(num, den):
            return num / den if den else 0.0

        count_calls = agg("theta.RepQuery.count")[0]
        split_calls = agg("arith.square_split")[0]
        out["theta.RepQuery.count.repeat_frac"] = frac(c["count_repeats"], count_calls)
        out["arith.square_split.distinct_frac"] = frac(len(self._split_args), split_calls)
        out["theta.points_per_s"] = frac(c["points"], out["theta.theta_coeffs.s"] / per)
        _, _, search_self = agg("search.search_diagonal")
        checks = c["search_examined"] - c["search_filtered"]
        out["search.self_s"] = search_self * per
        out["search.examined"] = c["search_examined"] * per
        out["search.filtered"] = c["search_filtered"] * per
        out["search.full_checks"] = checks * per
        out["search.prune_frac"] = frac(c["search_filtered"], c["search_examined"])
        out["search.pass_frac"] = frac(c["search_passed"], checks)
        lookups = c["cache_hits"] + c["cache_misses"]
        out["cache.hits"] = c["cache_hits"] * per
        out["cache.misses"] = c["cache_misses"] * per
        out["cache.hit_frac"] = frac(c["cache_hits"], lookups)
        out["cache.bytes_read"] = c["cache_bytes_read"] * per
        out["cache.bytes_written"] = c["cache_bytes_written"] * per
        return out

    def write(self, path) -> None:
        """All spans, for offline inspection (numpy .npz)."""
        name, parent, _ = self._arrays()
        np.savez(path, name=name, parent=parent,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 names=np.array(json.dumps(self.span_names)))
