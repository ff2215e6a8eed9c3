"""Spans at holonorm's module boundaries, recorded from outside the library.

Wrappers are installed on the module attributes through which callers resolve
each public function: ``interp`` binds the norm functions by name, ``cli`` and
``search`` bind ``check`` and ``make_grid_function`` by name, ``cli`` binds the
search functions by name, and ``norms`` reaches ``pairs.<engine>`` by
attribute.  Each wrapper appends a span
(id, name, start, end, parent, operation) to an in-memory list; spans are
written out when the run ends.  A span's self time is its duration minus the
durations of its children (calls are nested and single threaded).
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter

from holonorm import cli, expr, grid, interp, norms, pairs, search

NORM_CALLS = ("holder_norm", "sup_norm", "lp_norm", "sup_t_lp_norm", "diff_quotient_seminorm")
SUP_ENGINES = ("pair_quotient_sup", "kdiff_quotient_sup", "kdiff_time_quotient_sup")

# (module, attribute, span name); one wrapper per span name.
TARGETS = (
    [(cli, "main", "cli.main"),
     (cli, "random_search", "search.random_search"),
     (cli, "refine_search", "search.refine_search")]
    + [(m, "check", "interp.check") for m in (interp, cli, search)]
    + [(interp, f, f"norms.{f}") for f in NORM_CALLS]
    + [(norms, f, f"norms.{f}")
       for f in ("holder_seminorm_space", "holder_seminorm_time", "derivative_field")]
    + [(pairs, f, f"pairs.{f}") for f in SUP_ENGINES]
    + [(expr, "parse", "expr.parse")]
    + [(m, "make_grid_function", "grid.make_grid_function") for m in (grid, cli, search)]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, op, info]
        self.ops: list[str] = []  # operation id -> workload op key
        self.counters: dict[int, dict] = {}  # operation id -> benchmark-side counts
        self._stack: list[int] = []
        self._seen: set = set()  # norm calls already made in this operation
        self._keep: list = []  # grids named in _seen, kept alive so ids stay unique
        self._saved: list = []
        originals = {}
        for module, attr, name in TARGETS:
            originals.setdefault(name, getattr(module, attr))
        self._wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        self._as_grid_callable = expr.as_grid_callable

    # -- installation ---------------------------------------------------------

    def install(self):
        self._saved = [(m, a, getattr(m, a)) for m, a, _ in TARGETS]
        self._saved.append((expr, "as_grid_callable", expr.as_grid_callable))
        for module, attr, name in TARGETS:
            setattr(module, attr, self._wrappers[name])
        expr.as_grid_callable = self._traced_grid_callable

    def uninstall(self):
        for module, attr, fn in self._saved:
            setattr(module, attr, fn)
        self._saved = []

    def begin(self, key: str) -> int:
        self.ops.append(key)
        self._seen.clear()
        self._keep.clear()
        return len(self.ops) - 1

    def add(self, op: int, counts: dict):
        self.counters[op] = counts

    # -- spans ------------------------------------------------------------------

    def _traced_grid_callable(self, e):
        return self._wrap("expr.eval", self._as_grid_callable(e))

    def _info(self, name, args, kwargs, out):
        if name.startswith("pairs."):
            return {"mode": out.mode, "pairs": out.examined}
        if name == "grid.make_grid_function":
            return {"values": int(out.values.size)}
        if name.split(".")[1] in NORM_CALLS:
            key = (id(args[0]), name, args[1:], tuple(sorted(kwargs.items())))
            repeat = key in self._seen
            self._seen.add(key)
            self._keep.append(args[0])
            return {"repeat": repeat}
        return None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    len(self.ops) - 1, None]
            self.spans.append(span)
            self._stack.append(sid)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            span[6] = self._info(name, args, kwargs, out)
            return out

        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "op_key": self.ops[op],
                                     "info": info}) + "\n")

    # -- per-layer metrics --------------------------------------------------------

    def _per_op(self) -> list[dict]:
        """Layer counts and times of each traced operation."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        per_op = [defaultdict(float, self.counters.get(i, {})) for i in range(len(self.ops))]
        for sid, name, start, end, _, op, info in self.spans:
            c = per_op[op]
            dur = end - start
            self_s = dur - child[sid]
            layer, func = name.split(".")
            c[f"{layer}.self_s"] += self_s
            if layer == "pairs":
                mode = info["mode"]
                c[f"pairs.{mode}_calls"] += 1
                c[f"pairs.{mode}_s"] += dur
                c[f"pairs.{mode}_pairs"] += info["pairs"]
            elif func in NORM_CALLS:
                c["norms.norm_calls"] += 1
                c["norms.repeats"] += info["repeat"]
                if func == "holder_norm":
                    c["norms.holder_norm_s"] += dur
                elif func == "diff_quotient_seminorm":
                    c["norms.dq_s"] += dur
                elif func in ("lp_norm", "sup_t_lp_norm"):
                    c["norms.lebesgue_s"] += dur
            elif func == "holder_seminorm_space":
                c["norms.seminorm_space_s"] += dur
            elif func == "holder_seminorm_time":
                c["norms.seminorm_time_s"] += dur
            elif func == "derivative_field":
                c["norms.derivative_field_calls"] += 1
                c["norms.derivative_field_s"] += dur
            elif name == "interp.check":
                c["interp.check_calls"] += 1
            elif name == "expr.parse":
                c["expr.parse_calls"] += 1
                c["expr.parse_s"] += dur
            elif name == "expr.eval":
                c["expr.eval_s"] += dur
            elif layer == "grid":
                c["grid.make_calls"] += 1
                c["grid.values_sampled"] += info["values"]
            elif name == "cli.main":
                c["cli.calls"] += 1
        return per_op

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures for one pass over the workload: for each
        operation the median over its traced executions, summed."""
        by_key = defaultdict(list)
        for key, counts in zip(self.ops, self._per_op()):
            by_key[key].append(counts)
        total = defaultdict(float)
        for runs in by_key.values():
            for name in set().union(*runs):
                total[name] += statistics.median(r.get(name, 0.0) for r in runs)
        m = {name: total[name] for name in (
            "pairs.sampled_calls", "pairs.sampled_s", "pairs.sampled_pairs",
            "pairs.exhaustive_calls", "pairs.exhaustive_s", "pairs.exhaustive_pairs",
            "norms.norm_calls", "norms.holder_norm_s", "norms.seminorm_space_s",
            "norms.seminorm_time_s", "norms.dq_s", "norms.lebesgue_s",
            "norms.derivative_field_calls", "norms.derivative_field_s", "norms.self_s",
            "interp.check_calls", "interp.self_s",
            "expr.parse_calls", "expr.parse_s", "expr.eval_s",
            "grid.make_calls", "grid.values_sampled",
            "search.evals", "search.self_s", "cli.calls", "cli.self_s", "cli.bytes_written")}
        m["grid.make_s"] = total["grid.self_s"]
        for mode in ("sampled", "exhaustive"):
            secs = total[f"pairs.{mode}_s"]
            m[f"pairs.{mode}_pairs_per_s"] = total[f"pairs.{mode}_pairs"] / secs if secs else 0.0
        calls = total["pairs.sampled_calls"] + total["pairs.exhaustive_calls"]
        m["pairs.sampled_frac"] = total["pairs.sampled_calls"] / calls if calls else 0.0
        norm_calls = total["norms.norm_calls"]
        m["norms.repeat_frac"] = total["norms.repeats"] / norm_calls if norm_calls else 0.0
        durs = sorted(s[3] - s[2] for s in self.spans if s[1] == "interp.check")
        n = len(durs)
        m["interp.check_s_p50"] = statistics.median(durs) if durs else 0.0
        # The highest percentile with at least ten samples beyond it; with
        # ten samples or fewer, the maximum.
        tail = n - 11 if n > 10 else n - 1
        m["interp.check_s_tail"] = durs[tail] if durs else 0.0
        m["interp.check_s_tail_pct"] = 100.0 * (tail + 1) / n if durs else 0.0
        m["interp.check_s_samples"] = n
        return m
