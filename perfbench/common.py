"""Shared helpers: the checkout layout, cold starts, percentiles, output.

Every workload module reports through :class:`Report`, which keeps the
per-input samples in memory and turns them into the result line at
the end of the run.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

#: Root of the checkout the benchmark runs from (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for daemon stores; removed at the end of every run.
WORK = ROOT / "perfbench" / "_work"

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Seconds :func:`calibrate` takes on the reference host (2 CPUs,
#: Python 3.11.7); timings are reported at this host speed.
CALIBRATION_REF_S = 0.010


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


def require_checkout() -> None:
    """Fail fast (before any measurement) when the program is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")


def clean_env() -> dict[str, str]:
    """The environment for everything the benchmark starts.

    ``DPRLE_*`` variables are dropped so every workload measures the
    default configuration, and ``src`` is put on the import path.
    Byte-code caching is left at Python's default (written next to the
    sources, inside the checkout), so cold starts are measured the same
    way whatever the caller's environment says.
    """
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("DPRLE_")
        and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def install_env() -> None:
    """Apply :func:`clean_env` to this process (in-process workloads)."""
    for key in [k for k in os.environ if k.startswith("DPRLE_")]:
        del os.environ[key]
    sys.pycache_prefix = None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cold_import_seconds(modules: list[str], starts: int) -> tuple[list[float], float]:
    """Wall time of ``starts`` fresh interpreters importing ``modules``.

    One unmeasured start runs first so byte-code caches exist, as they
    do for any installed program.  The wait is a blocking ``waitpid``:
    ``subprocess`` waits with a timeout poll in sleeps of up to 50 ms,
    which would quantize the figure.  Returns the raw times and the
    host speed factor sampled before each start.
    """
    probe = SpeedProbe(every=0.0)
    code = "import " + ", ".join(modules)
    cmd = [sys.executable, "-c", code]
    env = clean_env()
    times = []
    for _ in range(starts + 1):
        probe.tick()
        began = time.perf_counter()
        child = subprocess.Popen(cmd, env=env, cwd=ROOT)
        if child.wait() != 0:
            raise BenchError(f"cold start failed: {cmd}")
        times.append(time.perf_counter() - began)
    return times[1:], probe.factor()


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    began = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - began


class SpeedProbe:
    """Samples host speed between the measured calls of a run.

    The reference host is shared and its speed drifts by up to a third
    between runs (every timing of a run moves together).  A run's
    timings are reported rescaled to the reference speed by
    :meth:`factor`, the reference loop time over the median loop time
    seen during the run; the loop is benchmark code, so a change to the
    program does not move it.
    """

    def __init__(self, every: float = 0.5):
        self.every = every
        self.samples: list[float] = []
        self._last = -math.inf

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.every

    def tick(self) -> None:
        """Take a sample if ``every`` seconds passed since the last."""
        if self.due():
            self._last = time.perf_counter()
            self.samples.append(calibrate())

    def factor(self) -> float:
        return CALIBRATION_REF_S / statistics.median(self.samples)


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks.

    Raises :class:`BenchError` unless at least :data:`MIN_BEYOND`
    samples lie beyond the requested rank.
    """
    n = len(values)
    if n - math.ceil(q * n) < MIN_BEYOND:
        raise BenchError(
            f"p{round(q * 100)} needs {MIN_BEYOND} samples beyond it; have {n}"
        )
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    if ordered[hi] == math.inf:
        return math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class Report:
    """Counts, metrics and a human-readable table for one run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.notes: list[str] = []

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)

    def metric(self, name: str, value: float, unit: str,
               samples: Optional[int] = None) -> None:
        entry = {"value": float(value), "unit": unit}
        if samples is not None:
            entry["samples"] = samples
        self.metrics[name] = entry

    def note(self, text: str) -> None:
        """A line of the human table that is not a BENCHMARK.json metric."""
        self.notes.append(text)

    def emit(self, names: list[str]) -> None:
        """Print the table, then the result line (``names`` are the
        BENCHMARK.json metrics of this mode) as the last line."""
        print(f"== {self.workload}")
        for name, entry in self.metrics.items():
            count = entry.get("samples")
            suffix = f"  (n={count})" if count is not None else ""
            print(f"  {name:<42} {entry['value']:>14.4f} {entry['unit']}{suffix}")
        for line in self.notes:
            print(f"  {line}")
        rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"  {'error_rate':<42} {rate:>14.4f} ratio"
              f"  ({self.failed}/{self.attempted})")
        for what in self.failures:
            print(f"  FAILED: {what}")
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        line = {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name]["value"],
                       "unit": self.metrics[name]["unit"]}
                for name in names
            },
        }
        sys.stdout.flush()
        print(json.dumps(line))

