"""The in-process, closed-loop workloads: ``wide-solve`` and ``php-audit``.

One caller feeds inputs to the library one after another, each under a
fresh language cache, the way ``dprle solve`` and ``dprle analyze`` run
one file.  Input generation and answer checks happen outside the timed
region; only the call into the program is timed.
"""

from __future__ import annotations

import random
import time
from statistics import median
from typing import Any, Callable, Iterator

import inputs
from common import (
    BenchError,
    Report,
    SpeedProbe,
    cold_import_seconds,
    percentile,
    self_peak_rss_mb,
)
from tracing import SERVER_METRICS, LayerTracer

#: Cold interpreter starts whose median is ``setup_s``.
SETUP_STARTS = 9
#: Light-class and total samples needed so p90 has ten samples beyond it.
MIN_SAMPLES = 110
#: A run extends past ``--seconds`` to reach MIN_SAMPLES, up to this factor.
MAX_STRETCH = 2.5

WIDE_IMPORTS = ["repro.solver.api", "repro.constraints.dsl", "repro.cache"]
PHP_IMPORTS = ["repro.analysis.analyzer", "repro.analysis.corpus", "repro.cache"]


# -- one input each --------------------------------------------------------


def _solve_wide(item: inputs.WideInput) -> tuple[list[dict[str, str]], Any]:
    from repro import RegLangSolver

    solver = RegLangSolver()
    solver.add_dsl(item.source)
    result = solver.solve()
    witnesses = [
        {name: a.witness(name) or "" for name in ("va", "vb", "vc")}
        for a in result.nonempty()
    ]
    return witnesses, solver.cache


def _analyze(corpus_file: Any) -> tuple[tuple[bool, list[dict[str, str]]], Any]:
    from repro.analysis.analyzer import analyze_source
    from repro.cache import CacheLimits, LangCache

    cache = LangCache(CacheLimits())
    with cache.activate():
        report = analyze_source(corpus_file.source, file_name=corpus_file.name)
    exploits = [dict(f.exploit_inputs) for f in report.findings if f.vulnerable]
    return (report.vulnerable, exploits), cache


# -- the two workloads as (input stream, call, check) ---------------------


class Workload:
    """What the closed loop needs to know about one in-process workload."""

    name: str
    imports: list[str]

    def units(self, rng: random.Random) -> Iterator[list[Any]]:
        """Endless stream of input groups that are timed as a whole."""
        raise NotImplementedError

    def call(self, item: Any) -> tuple[Any, Any]:
        raise NotImplementedError

    def check(self, item: Any, answer: Any) -> str | None:
        raise NotImplementedError

    def light(self, item: Any) -> bool:
        raise NotImplementedError

    def kind(self, item: Any) -> Any:
        """Inputs of one kind cost about the same (a shape, a file)."""
        raise NotImplementedError

    def solutions(self, answer: Any) -> int:
        raise NotImplementedError


class WideSolve(Workload):
    name = "wide-solve"
    imports = WIDE_IMPORTS

    def units(self, rng):
        stream = inputs.wide_blocks(rng)
        while True:
            yield [next(stream) for _ in inputs.WIDE_BLOCK]

    def call(self, item):
        return _solve_wide(item)

    def check(self, item, answer):
        return inputs.check_wide(item, answer)

    def light(self, item):
        return item.light

    def kind(self, item):
        return (item.r, item.n, item.m)

    def solutions(self, answer):
        return len(answer)


class PhpAudit(Workload):
    name = "php-audit"
    imports = PHP_IMPORTS

    def units(self, rng):
        scale = inputs.corpus_scale(rng)
        while True:
            yield inputs.corpus_pass(scale, rng)

    def call(self, item):
        return _analyze(item)

    def check(self, item, answer):
        vulnerable, exploits = answer
        return inputs.check_analysis(item.vulnerable, vulnerable, exploits)

    def light(self, item):
        return item.app in inputs.LIGHT_APPS and not item.vulnerable

    def kind(self, item):
        return (item.app, item.name)

    def solutions(self, answer):
        return len(answer[1])


WORKLOADS = {w.name: w for w in (WideSolve(), PhpAudit())}


# -- the closed loop ---------------------------------------------------------


def _run_loop(workload: Workload, units: Iterator[list[Any]], seconds: float,
              need_samples: bool, call: Callable,
              probe: SpeedProbe | None = None) -> tuple[list, list]:
    """Time ``call`` over whole units until ``seconds`` (and the sample
    minimum, when asked) are reached.  Returns the samples, as
    ``(input, seconds, light, answer)``, and the units consumed."""
    samples: list[tuple[Any, float, bool, Any]] = []
    busy = 0.0
    used: list[list[Any]] = []
    while True:
        light = sum(1 for s in samples if s[2])
        enough = not need_samples or (
            len(samples) >= MIN_SAMPLES and light >= MIN_SAMPLES)
        if busy >= seconds and enough:
            break
        if busy >= seconds * MAX_STRETCH:
            raise BenchError(
                f"{workload.name}: only {len(samples)} samples "
                f"({light} light) in {busy:.1f}s")
        unit = next(units, None)
        if unit is None:
            break
        for item in unit:
            if probe is not None:
                probe.tick()
            began = time.perf_counter()
            answer, _cache = call(item)
            elapsed = time.perf_counter() - began
            samples.append((item, elapsed, workload.light(item), answer))
            busy += elapsed
        used.append(unit)
    return samples, used


def _check_all(workload: Workload, samples: list, report: Report) -> None:
    for item, _elapsed, _light, answer in samples:
        problem = workload.check(item, answer)
        report.outcome(problem is None, problem or "")


def measure(workload_name: str, seed: int, seconds: float) -> Report:
    """The untraced run: every end-to-end metric."""
    workload = WORKLOADS[workload_name]
    report = Report(workload_name)
    setup, setup_speed = cold_import_seconds(workload.imports, SETUP_STARTS)
    probe = SpeedProbe()
    units = workload.units(random.Random(seed))
    _warm(workload)
    samples, _ = _run_loop(workload, units, seconds, True, workload.call, probe)
    _check_all(workload, samples, report)

    speed = probe.factor()
    times_ms = [s[1] * 1000.0 * speed for s in samples]
    light_ms = [s[1] * 1000.0 * speed for s in samples if s[2]]
    report.metric("setup_s", median(setup) * setup_speed, "s", len(setup))
    report.metric("throughput_per_s", _robust_rate(workload, samples) / speed,
                  "1/s", len(samples))
    report.metric("latency_ms.p50", percentile(times_ms, 0.5), "ms", len(times_ms))
    report.metric("latency_ms.p90", percentile(times_ms, 0.9), "ms", len(times_ms))
    report.metric("latency_ms.p90.small", percentile(light_ms, 0.9), "ms",
                  len(light_ms))
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MB")
    report.note(f"setup starts (s, raw): {[round(t, 3) for t in setup]}")
    report.note(f"host speed factor {speed:.3f} (n={len(probe.samples)}), "
                f"{setup_speed:.3f} during set-up; timings above are "
                f"rescaled by it")
    return report


def _robust_rate(workload: Workload, samples: list) -> float:
    """Inputs per second, with each kind of input costed at the median
    of its runs.

    The reference host's speed wobbles by 20-40% over fractions of a
    second; a median per kind drops the runs that fell in a slow spell,
    where a plain count over busy time would keep them.
    """
    by_kind: dict[Any, list[float]] = {}
    for item, elapsed, _light, _answer in samples:
        by_kind.setdefault(workload.kind(item), []).append(elapsed)
    busy = sum(len(times) * median(times) for times in by_kind.values())
    return len(samples) / busy


def _warm(workload: Workload) -> None:
    """One untimed input from an unrelated seed: imports and lazy
    module state are paid before the timing starts."""
    workload.call(next(workload.units(random.Random(-1)))[0])


# -- the traced run ----------------------------------------------------------


def measure_traced(workload_name: str, seed: int, seconds: float) -> Report:
    """Half the time untraced, then the same inputs traced."""
    from repro import obs

    workload = WORKLOADS[workload_name]
    report = Report(workload_name)
    _warm(workload)
    plain, used = _run_loop(workload, workload.units(random.Random(seed)),
                            seconds / 2, False, workload.call)
    tracer = LayerTracer()

    def traced_call(item: Any) -> tuple[Any, Any]:
        tracer.begin()
        began = time.perf_counter()
        with obs.collect(max_recorded_spans=10_000_000) as collector:
            answer, cache = workload.call(item)
        wall = time.perf_counter() - began
        tracer.fold(collector, began, wall, cache.stats()["entries"],
                    workload.solutions(answer))
        return answer, cache

    tracer.install()
    try:
        traced, _ = _run_loop(workload, iter(used), float("inf"), False,
                              traced_call)
    finally:
        tracer.uninstall()
    _check_all(workload, plain, report)
    _check_all(workload, traced, report)

    plain_wall = sum(s[1] for s in plain)
    traced_wall = sum(s[1] for s in traced)
    layers = tracer.layer_metrics()
    for name, (value, unit) in sorted(layers.items()):
        report.metric(name, value, unit, len(tracer.rows))
    report.metric("obs.trace_overhead_ratio", traced_wall / plain_wall, "ratio",
                  len(traced))
    for name, unit in SERVER_METRICS.items():
        report.metric(name, 0.0, unit)
    share = 0.0
    if workload_name == "wide-solve":
        share, calls, distinct = repeated_maximize_share(used[0])
        report.note(f"maximize calls {calls}, distinct inputs {distinct} "
                    f"over the first block")
    report.metric("solver.gci.maximize_repeat_share", share, "ratio")
    if tracer.unknown_spans:
        report.note(f"spans without a layer: {sorted(tracer.unknown_spans)}")
    return report


def repeated_maximize_share(items: list[inputs.WideInput]) -> tuple[float, int, int]:
    """Share of inputs whose GCI maximization sees a repeated input.

    Re-solves ``items`` with the maximize stage observed; an input
    repeats when its per-variable languages (by canonical signature,
    from a separate cache) equal an earlier call's in the same solve.
    This runs after the timed passes and is not timed.
    """
    import repro.solver.gci as gci
    from repro.cache import LangCache

    keyer = LangCache()
    seen: list[tuple] = []
    original = gci._maximize_solution

    def observed(solution, leaves, specs, var_nodes, limits):
        seen.append(tuple(keyer.signature(solution[v]) for v in var_nodes))
        return original(solution, leaves, specs, var_nodes, limits)

    repeating = calls = distinct = 0
    gci._maximize_solution = observed
    try:
        for item in items:
            seen.clear()
            _solve_wide(item)
            calls += len(seen)
            distinct += len(set(seen))
            repeating += len(set(seen)) < len(seen)
    finally:
        gci._maximize_solution = original
    return repeating / len(items), calls, distinct
