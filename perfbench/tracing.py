"""The traced run: benchmark-side spans plus the spans ``repro.obs`` emits.

:class:`LayerTracer` wraps public entry points of the modules that have
no span of their own (DSL parsing, dependency graphs, the PHP front
end) in ``obs.span`` calls made from this file, so one ``obs.collect()``
tree holds both kinds of span.  After each input the tree is folded
into self time per layer (a span's duration minus the part its child
spans cover); the folded rows stay in memory until the run ends.

Cache keying is called thousands of times per solve, too often for an
``obs`` span each (that would double a wide solve).  Its outermost calls
are recorded as bare clock intervals instead, and the fold moves each
interval's time out of the innermost span it ran in.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

from common import BenchError

#: Span name -> layer that owns its self time.
LAYER_OF_SPAN = {
    "bench.parse": "constraints.parse",
    "bench.depgraph": "constraints.depgraph",
    "signature": "cache.keying",
    "bench.php_parse": "php.parse",
    "bench.php_cfg": "php.cfg",
    "bench.php_symexec": "php.symexec",
    "analyze": "analysis.self",
    "sink_query": "analysis.self",
    "solve": "solver.worklist.self",
    "precheck": "solver.worklist.self",
    "basic_constraints": "solver.worklist.self",
    "worklist_iteration": "solver.worklist.self",
    "ci": "solver.gci.self",
    "gci_factor": "solver.gci.factor",
    "gci_plan": "solver.gci.plan",
    "gci_combination": "solver.gci.combination",
    "gci_maximize": "solver.gci.maximize",
    "determinize": "automata.determinize",
    "hopcroft": "automata.hopcroft",
    "product": "automata.product",
    "left_quotient": "automata.left_quotient",
    "right_quotient": "automata.right_quotient",
    "inclusion_check": "automata.inclusion_check",
    "minimize": "automata.other",
    "complement": "automata.other",
    "eliminate_epsilon": "automata.other",
}

#: Layers reported with inclusive time (the denominators of stage shares).
INCLUSIVE = {
    "solve": "solver.worklist.solve",
    "ci": "solver.gci.group",
    "sink_query": "analysis.solve",
}

#: Every self-time layer, so a layer the path never reaches reads 0.
SELF_LAYERS = sorted(set(LAYER_OF_SPAN.values()))

CACHE_OPS_REPORTED = ("intersect", "left_quotient")

#: Figures only the serve-mix workload has (a daemon and an open-loop
#: client); the in-process workloads never reach these layers.
SERVER_METRICS = {
    "server.queue_wait_ms.mean": "ms",
    "server.request_ms.mean": "ms",
    "server.batch_size.mean": "count",
    "server.http_ms.mean": "ms",
    "server.deadline_exceeded": "count",
    "cache.store.hits": "count",
    "cache.store.misses": "count",
    "cache.store.writes": "count",
    "client.latency_ms.p90.high_rate": "ms",
    "client.lag_ms.p90.base": "ms",
    "client.lag_ms.p90.high": "ms",
    "client.sent.base": "count",
    "client.sent.high": "count",
    "client.failed.base": "count",
    "client.failed.high": "count",
}


def _spanned(fn: Callable, name: str) -> Callable:
    from repro import obs

    @functools.wraps(fn)
    def inner(*args: Any, **kwargs: Any) -> Any:
        with obs.span(name):
            return fn(*args, **kwargs)

    return inner


class _Intervals:
    """Outermost-call clock intervals of a family of functions."""

    def __init__(self) -> None:
        self.depth = 0
        self.spans: list[tuple[float, float]] = []

    def wrap(self, fn: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def inner(*args: Any, **kwargs: Any) -> Any:
            if self.depth:
                return fn(*args, **kwargs)
            self.depth = 1
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((began, clock()))
                self.depth = 0

        return inner


class LayerTracer:
    """Installs the benchmark-side spans and folds per-input trees."""

    def __init__(self) -> None:
        self._restore: list[tuple[Any, str, Any]] = []
        self._keying = _Intervals()
        self.rows: list[dict[str, float]] = []
        self.unknown_spans: set[str] = set()

    # -- wrapping ---------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self) -> None:
        import repro.analysis.analyzer as analyzer
        import repro.server.handlers as handlers
        import repro.solver.api as api
        import repro.solver.worklist as worklist
        from repro.cache import LangCache
        from repro.php.symexec import SymbolicExecutor

        for module in (api, handlers):
            self._patch(module, "parse_problem",
                        lambda f: _spanned(f, "bench.parse"))
        self._patch(worklist, "build_graph",
                    lambda f: _spanned(f, "bench.depgraph"))
        # The memoized cache ops reach keying through these helpers;
        # struct_key and signature are the public ones.
        for attr in ("struct_key", "signature", "_signature",
                     "_sig_if_known", "_rec"):
            self._patch(LangCache, attr, self._keying.wrap)
        self._patch(analyzer, "parse_php",
                    lambda f: _spanned(f, "bench.php_parse"))
        self._patch(analyzer, "build_cfg",
                    lambda f: _spanned(f, "bench.php_cfg"))
        self._patch(SymbolicExecutor, "run_cfg",
                    lambda f: _spanned(f, "bench.php_symexec"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- folding ----------------------------------------------------------

    def begin(self) -> None:
        """Start a new input (call just before entering ``obs.collect``)."""
        self._keying.spans.clear()

    def fold(self, collector: Any, epoch: float, wall: float,
             cache_entries: int, solutions: int) -> None:
        """Reduce one input's trace to a row of per-layer figures.

        ``epoch`` is the clock reading the collector's span offsets
        count from (taken just before ``obs.collect``).
        """
        if collector.spans_dropped:
            raise BenchError("trace truncated; raise max_recorded_spans")
        row: dict[str, float] = defaultdict(float)
        flat: list[tuple[float, float, Any]] = []
        stack = list(collector.root.children)
        while stack:
            span = stack.pop()
            flat.append((epoch + span.start, epoch + span.start + span.duration,
                         span))
            stack.extend(span.children)
        self_time = {
            id(span): span.duration - sum(c.duration for c in span.children)
            for _, _, span in flat
        }
        covered = sum(span.duration for span in collector.root.children)
        keying = self._attribute_keying(flat, self_time)
        covered += keying["outside"]
        row["cache.keying"] += keying["inside"] + keying["outside"]
        for _, _, span in flat:
            layer = LAYER_OF_SPAN.get(span.name)
            if layer is None:
                self.unknown_spans.add(span.name)
                layer = "other"
            row[layer] += max(self_time[id(span)], 0.0)
            if span.name in INCLUSIVE:
                row[INCLUSIVE[span.name]] += span.duration
        snap = collector.metrics.snapshot()
        counters = snap["counters"]
        row["unattributed"] = max(wall - covered, 0.0)
        row["wall"] = wall
        row["maximize_calls"] = counters.get("span.gci_maximize", 0)
        row["queries"] = counters.get("span.sink_query", 0)
        row["states_visited"] = counters.get("states_visited", 0)
        row["combinations_total"] = counters.get("gci.combinations_total", 0)
        row["combinations_enumerated"] = counters.get(
            "gci.combinations_enumerated", 0)
        row["solutions"] = solutions
        row["cache_entries"] = cache_entries
        for key, value in counters.items():
            if key.startswith(("cache.hit.", "cache.miss.")):
                row[key] += value
        self.rows.append(dict(row))

    def _attribute_keying(self, flat, self_time) -> dict[str, float]:
        """Move each keying interval out of the innermost span around it.

        Spans opened inside an interval (the ``signature`` span and its
        kernels) keep their own time; only the rest of the interval is
        keying.  Returns the keying time found inside spans and outside
        every span.
        """
        flat.sort(key=lambda entry: entry[0])
        moved = {"inside": 0.0, "outside": 0.0}
        open_spans: list[tuple[float, float, Any]] = []
        index = 0
        for began, ended in sorted(self._keying.spans):
            while index < len(flat) and flat[index][0] < began:
                while open_spans and open_spans[-1][1] <= flat[index][0]:
                    open_spans.pop()
                open_spans.append(flat[index])
                index += 1
            while open_spans and open_spans[-1][1] <= began:
                open_spans.pop()
            nested, scan = 0.0, index
            while scan < len(flat) and flat[scan][0] < ended:
                nested += flat[scan][2].duration
                end_of = flat[scan][1]
                scan += 1
                while scan < len(flat) and flat[scan][0] < end_of:
                    scan += 1  # descendants of a span already counted
            own = max(ended - began - nested, 0.0)
            if open_spans:
                self_time[id(open_spans[-1][2])] -= own
                moved["inside"] += own
            else:
                moved["outside"] += own
        return moved

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-input means (ms or counts) and ratios over all rows."""
        rows = self.rows
        count = len(rows)

        def total(key: str) -> float:
            return sum(row.get(key, 0.0) for row in rows)

        def per_input_ms(key: str) -> float:
            return total(key) * 1000.0 / count

        out: dict[str, tuple[float, str]] = {}
        for layer in SELF_LAYERS:
            out[f"{layer}_ms"] = (per_input_ms(layer), "ms")
        for layer in INCLUSIVE.values():
            out[f"{layer}_ms"] = (per_input_ms(layer), "ms")
        out["unattributed_ms"] = (per_input_ms("unattributed"), "ms")
        out["solver.gci.maximize_calls"] = (
            total("maximize_calls") / count, "count")
        out["solver.gci.combinations_total"] = (
            total("combinations_total") / count, "count")
        enumerated = total("combinations_enumerated")
        out["solver.gci.combinations_enumerated"] = (enumerated / count, "count")
        out["solver.gci.solutions_per_combination"] = (
            total("solutions") / enumerated if enumerated else 0.0, "ratio")
        out["automata.states_visited"] = (total("states_visited") / count, "count")
        out["analysis.queries"] = (total("queries") / count, "count")
        hits = sum(v for k, v in _sum_prefixed(rows, "cache.hit.").items())
        misses = sum(v for k, v in _sum_prefixed(rows, "cache.miss.").items())
        out["cache.hit_ratio"] = (_ratio(hits, misses), "ratio")
        hit_by_op = _sum_prefixed(rows, "cache.hit.")
        miss_by_op = _sum_prefixed(rows, "cache.miss.")
        for op in CACHE_OPS_REPORTED:
            out[f"cache.hit_ratio.{op}"] = (
                _ratio(hit_by_op.get(op, 0.0), miss_by_op.get(op, 0.0)), "ratio")
        out["cache.entries"] = (total("cache_entries") / count, "count")
        return out


def _sum_prefixed(rows: list[dict[str, float]], prefix: str) -> dict[str, float]:
    sums: dict[str, float] = defaultdict(float)
    for row in rows:
        for key, value in row.items():
            if key.startswith(prefix):
                sums[key[len(prefix):]] += value
    return sums


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
