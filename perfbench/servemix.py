"""The ``serve-mix`` workload: open-loop load on a ``dprle serve`` daemon.

The daemon runs with default flags (only ``--port 0`` and a fresh
``--cache-db``).  One client process sends a Poisson arrival schedule
over at most two keep-alive connections; each request is timed from
when it was due, so a stall also counts against the requests that
queue behind it in the client.  See ``make_phase`` for what the seed
draws.

Request classes (exact counts per phase; a share of the small requests
repeat an earlier small request of the same phase verbatim):

* ``small``: motivating/xss-shaped DSL systems and ``/analyze`` requests
  for light vulnerable corpus files;
* ``wide``: wide-solve-sized CI-group systems;
* ``expired``: a wider.dprle-sized system with a deadline far below its
  solve time, answered 504 while the daemon keeps solving it.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Optional

import inputs
from common import (
    ROOT,
    WORK,
    BenchError,
    Report,
    SpeedProbe,
    clean_env,
    percentile,
    pid_peak_rss_mb,
)

#: Daemon spawns whose median is ``setup_s`` (after one unmeasured spawn).
SETUP_SPAWNS = 7
#: Client connections (and sender threads): nproc of the reference host.
CONNECTIONS = 2
#: Idle time a sender needs before it samples the host speed (one
#: sample takes ~10 ms).
PROBE_SLACK = 0.05

#: Offered rates (requests/s) and request counts of the fixed ladder.
#: The first rung is the base rate, the second the higher fixed rate.
LADDER = ((7.0, 200), (10.0, 100), (60.0, 100), (120.0, 100))
BASE, HIGH = 0, 1
#: The p90 limit a rung must meet, from due time.
LATENCY_LIMIT_MS = 1500.0
#: Requests still unanswered at a rung's last due time above which the
#: backlog counts as growing.
BACKLOG_LIMIT = 12

#: Exact class composition of every phase (shares of its requests).
#: ``small`` requests are half DSL systems, half /analyze requests.  At
#: the base rate about a quarter of the small requests then wait behind
#: other work, which puts the small-class p90 inside that waiting band
#: rather than on its edge.
WIDE_SHARE = 0.3
#: One wide-solve shape, so that wide requests, which hold the p90,
#: differ only in their seeded rewritings.
WIDE_SHAPE = (1, 5, 5)
#: Share of small requests that repeat an earlier one verbatim.  Wide
#: requests are never repeats, so the p90 (which falls among the wide
#: requests) is not moved by how many of them happen to be cache hits.
REPEAT_SHARE = 0.25
#: Expired requests, at fixed fractions of the schedule, in every rung
#: above the base rate.  The base phase has none: one 1.4 s
#: head-of-line stall delays about a tenth of its requests, which
#: would put its p90 on the edge of the stall's latency band.
EXPIRED_AT = (0.5,)
#: Far below the ~1.4 s solve, and above the queue waits of the base
#: and high rates, so the solve always starts and then outlives the 504.
EXPIRED_DEADLINE_MS = 600
#: Corpus scale for the small ``/analyze`` requests.
ANALYZE_SCALE = 0.05


@dataclass(frozen=True)
class Request:
    klass: str
    path: str
    body: bytes
    check: Callable[[int, dict], Optional[str]]


@dataclass
class Outcome:
    due: float
    sent: float
    done: float
    status: Optional[int]
    doc: Any


# -- requests ---------------------------------------------------------------


def _solve_request(klass: str, source: str, check, deadline_ms=None) -> Request:
    payload: dict[str, Any] = {"source": source}
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    return Request(klass, "/solve", json.dumps(payload).encode(), check)


def _witnesses(doc: dict, names: tuple[str, ...]) -> list[dict[str, str]]:
    return [
        {name: entry[name]["witness"] for name in names}
        for entry in doc["result"]["assignments"]
    ]


def _expect_ok(check: Callable[[dict], Optional[str]]):
    def inner(status: int, doc: dict) -> Optional[str]:
        if status != 200:
            return f"status {status}: {doc}"
        return check(doc)
    return inner


def _small_solve(rng: random.Random, xss: bool) -> Request:
    item = inputs.small_input(rng, xss)
    return _solve_request("small", item.source, _expect_ok(
        lambda doc: inputs.check_small(item, _witnesses(doc, ("v",)))))


def _analyze(corpus_file: Any) -> Request:
    def check(doc: dict) -> Optional[str]:
        result = doc["result"]
        exploits = [f["exploit_inputs"] for f in result["findings"]
                    if f["vulnerable"]]
        return inputs.check_analysis(corpus_file.vulnerable,
                                     result["vulnerable"], exploits)

    body = json.dumps({"source": corpus_file.source}).encode()
    return Request("small", "/analyze", body, _expect_ok(check))


def _wide(shape: tuple[int, int, int], rng: random.Random) -> Request:
    item = inputs.random_wide(shape, rng)
    return _solve_request("wide", item.source, _expect_ok(
        lambda doc: inputs.check_wide(item, _witnesses(doc, ("va", "vb", "vc")))))


def _expired(rng: random.Random, rung: int) -> Request:
    # Each rung's expired system has its own alphabet, so the daemon's
    # cache, warm from earlier solves, cannot bring it under its deadline.
    letters = "cdefgh"[2 * (rung - 1):2 * rung]
    item = inputs.random_wide(inputs.WIDER_SHAPE, rng, letters)

    def check(status: int, doc: dict) -> Optional[str]:
        return None if status == 504 else f"status {status}, want 504"

    return _solve_request("expired", item.source, check, EXPIRED_DEADLINE_MS)


def _light_corpus() -> list:
    """Vulnerable files of the lighter defect styles (19-46 ms each)."""
    from repro.analysis.corpus import build_corpus

    return [
        f for app in build_corpus(ANALYZE_SCALE) for f in app.files
        if f.vulnerable and not f.spec.heavy and f.spec.style != "blacklist"
    ]


@dataclass
class Phase:
    rate: float
    offsets: list[float]
    requests: list[Request]


def _cycle(items: list, count: int, rng: random.Random) -> list:
    """``count`` items that use each of ``items`` equally often
    (give or take one), in seeded order."""
    out = (items * (count // len(items) + 1))[:count]
    rng.shuffle(out)
    return out


def make_phase(seed: int, rung: int, corpus: list) -> Phase:
    """The schedule of one ladder rung: a pure function of the seed.

    The arrival times, the class of each arrival and which arrivals are
    repeats are one fixed Poisson realization per rung, the same for
    every seed, like a recorded trace: with a fresh realization per
    seed the overlap of small and wide requests alone moved the p50
    and the small-class p90 by a quarter between seeds.  The seed draws
    what is sent: the regex rewritings, literals and analysed files
    (each used equally often).
    """
    rate, count = LADDER[rung]
    trace = random.Random(1000 + rung)
    rng = random.Random(seed * 100 + rung)
    # A Poisson process conditioned on ``count`` arrivals in
    # ``count / rate`` seconds: the arrival times are uniform order
    # statistics, so every phase offers exactly its rate.
    offsets = sorted(trace.uniform(0.0, count / rate) for _ in range(count))
    expired = {int(frac * count) for frac in EXPIRED_AT} if rung else set()
    wide = round(WIDE_SHARE * count)
    labels = _cycle(["wide"] * wide + ["small"] * (count - len(expired) - wide),
                    count - len(expired), trace)
    positions = [i for i in range(count) if i not in expired]
    small = [p for p, label in zip(positions, reversed(labels))
             if label == "small"]
    repeats = set(trace.sample(small[1:], round(REPEAT_SHARE * len(small))))
    fresh = {
        "small": iter(_cycle(["sql", "xss", "analyze", "analyze"], count,
                             trace)),
        "analyze": iter(_cycle(corpus, count, rng)),
    }
    requests: list[Request] = []
    for index in range(count):
        if index in expired:
            requests.append(_expired(rng, rung))
            continue
        klass = labels.pop()
        earlier = [r for r in requests if r.klass == klass]
        if index in repeats:
            requests.append(trace.choice(earlier))
            continue
        if klass == "wide":
            requests.append(_wide(WIDE_SHAPE, rng))
            continue
        kind = next(fresh["small"])
        if kind == "analyze":
            requests.append(_analyze(next(fresh["analyze"])))
        else:
            requests.append(_small_solve(rng, kind == "xss"))
    return Phase(rate, offsets, requests)


# -- the daemon ---------------------------------------------------------------


class Daemon:
    """A ``dprle serve`` child with default flags and a fresh store."""

    def __init__(self) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        store = tempfile.mkdtemp(dir=WORK)
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "serve", "--port", "0",
             "--cache-db", f"{store}/signatures.db"],
            cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            found = re.search(r"listening on [^:]+:(\d+)", line)
            if found is None:
                raise BenchError(f"daemon did not start: {line!r}")
            self.port = int(found.group(1))
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - began

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline:
            try:
                if self.get("/healthz").get("ok"):
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchError("daemon never answered /healthz")

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def spawn_times(count: int) -> tuple[list[float], float]:
    """Spawn-to-/healthz seconds of ``count`` daemons, after one
    unmeasured, and the host speed factor sampled before each spawn."""
    probe = SpeedProbe(every=0.0)
    times = []
    for index in range(count + 1):
        probe.tick()
        daemon = Daemon()
        daemon.stop()
        if index:
            times.append(daemon.ready_s)
    return times, probe.factor()


# -- the open-loop client ---------------------------------------------------------


def run_phase(port: int, phase: Phase,
              probe: Optional[SpeedProbe] = None) -> list[Outcome]:
    """Send ``phase`` on schedule over CONNECTIONS keep-alive connections.

    Each sender takes the next request in schedule order, waits for its
    due time if it is early, and sends; a request whose due time passed
    while both connections were busy goes out late, and its latency
    still counts from the due time.  A sender with at least
    PROBE_SLACK seconds to wait samples the host speed on ``probe``.
    """
    count = len(phase.requests)
    outcomes: list[Optional[Outcome]] = [None] * count
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def sender() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= count:
                    return
                request = phase.requests[index]
                due = start + phase.offsets[index]
                if (probe is not None and probe.due()
                        and due - time.perf_counter() > PROBE_SLACK):
                    probe.tick()
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    conn.request("POST", request.path, request.body,
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    doc = json.loads(response.read())
                    status: Optional[int] = response.status
                except (OSError, http.client.HTTPException, ValueError) as error:
                    status, doc = None, repr(error)
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=120)
                outcomes[index] = Outcome(due, sent, time.perf_counter(),
                                          status, doc)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise BenchError("client sender did not finish")
    return [o for o in outcomes if o is not None]


@dataclass
class PhaseResult:
    rate: float
    completed_per_s: float
    latencies_ms: list[float]
    small_ms: list[float]
    lag_ms: list[float]
    sent: int
    failed: int
    backlog: int
    failures: list[str]

    def p90(self) -> float:
        return percentile(self.latencies_ms, 0.9)

    def passes(self) -> bool:
        return (self.failed == 0 and self.backlog <= BACKLOG_LIMIT
                and self.p90() <= LATENCY_LIMIT_MS)


def judge(phase: Phase, outcomes: list[Outcome]) -> PhaseResult:
    """Latencies from due time and the answer check of every request.

    A failed request counts as missing any latency limit.
    """
    latencies, small, lags, failures = [], [], [], []
    last_due = max(o.due for o in outcomes)
    backlog = sum(1 for o in outcomes if o.done > last_due)
    for request, outcome in zip(phase.requests, outcomes):
        problem = (
            f"no response: {outcome.doc}" if outcome.status is None
            else request.check(outcome.status, outcome.doc)
        )
        latency = (outcome.done - outcome.due) * 1000.0
        if problem is not None:
            failures.append(f"{request.klass} {request.path}: {problem}")
            latency = float("inf")
        latencies.append(latency)
        lags.append((outcome.sent - outcome.due) * 1000.0)
        if request.klass == "small":
            small.append(latency)
    span = max(o.done for o in outcomes) - min(o.due for o in outcomes)
    return PhaseResult(phase.rate, len(outcomes) / span, latencies, small,
                       lags, len(outcomes), len(failures), backlog, failures)


def _record(report: Report, result: PhaseResult) -> None:
    for what in result.failures:
        report.outcome(False, what)
    for _ in range(result.sent - result.failed):
        report.outcome(True, "")


# -- runs -------------------------------------------------------------------------


def warm_up(daemon: Daemon, corpus: list) -> None:
    """Untimed requests from an unrelated seed: lazy imports and
    first-use set-up in the daemon are paid, and its cache holds the
    wide family's common languages, before timing starts."""
    rng = random.Random(-1)
    warm = [_small_solve(rng, False), _small_solve(rng, True),
            _analyze(corpus[0])]
    warm += [_wide(shape, rng) for shape in inputs.WIDE_BLOCK]
    phase = Phase(0.0, [0.0] * len(warm), warm)
    for outcome in run_phase(daemon.port, phase):
        if outcome.status != 200:
            raise BenchError(f"warm-up request failed: {outcome.doc}")


def measure(workload: str, seed: int, seconds: float) -> Report:
    """Setup spawns, then the ladder on one daemon until a rung fails."""
    report = Report(workload)
    setup, setup_speed = spawn_times(SETUP_SPAWNS)
    corpus = _light_corpus()
    phases = [make_phase(seed, rung, corpus) for rung in range(len(LADDER))]
    probe = SpeedProbe()
    daemon = Daemon()
    results: list[PhaseResult] = []
    try:
        warm_up(daemon, corpus)
        for phase in phases:
            result = judge(phase, run_phase(daemon.port, phase, probe))
            results.append(result)
            _record(report, result)
            if not result.passes() and len(results) > HIGH:
                break
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    base, high = results[BASE], results[HIGH]
    passing = [r for r in results if r.passes()]
    if not passing:
        raise BenchError("no rung of the ladder met the latency limit")
    top = max(passing, key=lambda r: r.rate)
    speed = probe.factor()
    report.metric("setup_s", median(setup) * setup_speed, "s", len(setup))
    report.metric("throughput_per_s", top.completed_per_s, "1/s", top.sent)
    report.metric("latency_ms.p50",
                  percentile(base.latencies_ms, 0.5) * speed, "ms", base.sent)
    report.metric("latency_ms.p90", base.p90() * speed, "ms", base.sent)
    report.metric("latency_ms.p90.small",
                  percentile(base.small_ms, 0.9) * speed, "ms",
                  len(base.small_ms))
    report.metric("peak_rss_mb", rss, "MB")
    report.note(f"latency_ms.p90.high_rate {high.p90():.1f} ms "
                f"(n={high.sent}, {high.rate:g}/s)")
    report.note(f"max_rate_rps {top.rate:g}; throughput_per_s is the "
                f"completion rate of that rung")
    for result in results:
        report.note(
            f"rung {result.rate:g}/s: p90 {result.p90():.1f} ms, "
            f"lag p90 {percentile(result.lag_ms, 0.9):.1f} ms, "
            f"sent {result.sent}, failed {result.failed}, "
            f"backlog {result.backlog}, {'pass' if result.passes() else 'FAIL'}")
    report.note(f"setup spawns (s, raw): {[round(t, 3) for t in setup]}")
    report.note(f"host speed factor {speed:.3f} (n={len(probe.samples)}), "
                f"{setup_speed:.3f} during set-up; latencies and setup_s "
                f"above are rescaled by it")
    return report


def measure_traced(workload: str, seed: int, seconds: float) -> Report:
    """Base and high phases with the client trace and the daemon's
    /stats, then the base phase replayed in-process, untraced and
    traced, through the daemon's own request handler."""
    report = Report(workload)
    corpus = _light_corpus()
    phases = [make_phase(seed, rung, corpus) for rung in (BASE, HIGH)]
    daemon = Daemon()
    try:
        warm_up(daemon, corpus)
        before = daemon.get("/stats")
        results = []
        for phase in phases:
            outcomes = run_phase(daemon.port, phase)
            results.append((judge(phase, outcomes), outcomes))
        after = daemon.get("/stats")
    finally:
        daemon.stop()
    for result, _ in results:
        _record(report, result)

    plain, traced, tracer = _replay(phases[BASE])
    for name, (value, unit) in sorted(tracer.layer_metrics().items()):
        report.metric(name, value, unit, len(tracer.rows))
    report.metric("obs.trace_overhead_ratio", traced / plain, "ratio",
                  len(tracer.rows))
    for name, (value, unit) in _daemon_metrics(before, after, results).items():
        report.metric(name, value, unit)
    for (result, _), label in zip(results, ("base", "high")):
        report.metric(f"client.lag_ms.p90.{label}",
                      percentile(result.lag_ms, 0.9), "ms", result.sent)
        report.metric(f"client.sent.{label}", result.sent, "count")
        report.metric(f"client.failed.{label}", result.failed, "count")
    high = results[HIGH][0]
    report.metric("client.latency_ms.p90.high_rate", high.p90(), "ms", high.sent)
    report.metric("solver.gci.maximize_repeat_share", 0.0, "ratio")
    return report


def _replay(phase: Phase) -> tuple[float, float, Any]:
    """Run the phase's requests through ``run_job`` under one shared
    cache, as the daemon does: once untraced, once traced."""
    from repro import obs
    from repro.cache import LangCache
    from repro.server.config import ServerConfig
    from repro.server.handlers import run_job
    from tracing import LayerTracer

    config = ServerConfig()
    payloads = [(r.path[1:], json.loads(r.body)) for r in phase.requests]
    for payload in payloads:
        payload[1].pop("deadline_ms", None)

    def replay(tracer: Optional[LayerTracer]) -> float:
        cache = LangCache()
        total = 0.0
        with cache.activate():
            for kind, payload in payloads:
                if tracer is None:
                    began = time.perf_counter()
                    run_job(kind, payload, config)
                    total += time.perf_counter() - began
                    continue
                tracer.begin()
                began = time.perf_counter()
                with obs.collect(max_recorded_spans=10_000_000) as collector:
                    result = run_job(kind, payload, config)
                wall = time.perf_counter() - began
                total += wall
                tracer.fold(collector, began, wall, cache.stats()["entries"],
                            result.get("count", 0))
        return total

    with LangCache().activate():  # untimed: lazy imports, first-use state
        for kind, payload in payloads[:20]:
            run_job(kind, payload, config)
    plain = replay(None)
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = replay(tracer)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def _delta_mean(before: dict, after: dict, name: str) -> float:
    """Mean of a daemon histogram over the observations between two
    /stats snapshots."""
    old = before["metrics"]["histograms"].get(name) or {}
    new = after["metrics"]["histograms"].get(name) or {}
    count = new.get("count", 0) - old.get("count", 0)
    total = new.get("sum", 0.0) - old.get("sum", 0.0)
    return total / count if count else 0.0


def _daemon_metrics(before: dict, after: dict, results) -> dict:
    """Server, store and cache figures from /stats over the two phases
    (the difference of the snapshots taken after the warm-up and after
    the high phase)."""

    def delta(section: str, key: str) -> float:
        return after["cache"].get(section, {}).get(key, 0) - before[
            "cache"].get(section, {}).get(key, 0)

    def ratio(op: Optional[str]) -> float:
        if op is None:
            h = after["cache"]["hit_total"] - before["cache"]["hit_total"]
            m = after["cache"]["miss_total"] - before["cache"]["miss_total"]
        else:
            h, m = delta("hits", op), delta("misses", op)
        return h / (h + m) if h + m else 0.0

    counters = (after["metrics"]["counters"], before["metrics"]["counters"])
    request_ms = 1000.0 * _delta_mean(before, after, "server.request_seconds")
    rtts = [
        (o.done - o.sent) * 1000.0
        for _, outcomes in results for o in outcomes
    ]
    return {
        "server.queue_wait_ms.mean": (
            1000.0 * _delta_mean(before, after, "server.queue_wait_seconds"),
            "ms"),
        "server.request_ms.mean": (request_ms, "ms"),
        "server.batch_size.mean": (
            _delta_mean(before, after, "server.batch_size"), "count"),
        "server.http_ms.mean": (sum(rtts) / len(rtts) - request_ms, "ms"),
        "server.deadline_exceeded": (
            counters[0].get("server.deadline_exceeded", 0)
            - counters[1].get("server.deadline_exceeded", 0), "count"),
        "cache.store.hits": (delta("store", "hits"), "count"),
        "cache.store.misses": (delta("store", "misses"), "count"),
        "cache.store.writes": (delta("store", "writes"), "count"),
        "cache.hit_ratio": (ratio(None), "ratio"),
        "cache.hit_ratio.intersect": (ratio("intersect"), "ratio"),
        "cache.hit_ratio.left_quotient": (ratio("left_quotient"), "ratio"),
        "cache.entries": (after["cache"]["entries"], "count"),
    }
