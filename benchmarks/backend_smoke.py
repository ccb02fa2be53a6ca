"""CI smoke check: the bitset backend must actually be faster.

Times the hot kernels (determinize, product, Hopcroft, and the
universal left quotient) under the reference and bitset backends on
the Sec. 3.5 chain family — deep concatenation towers of small
banded-random machines, the shape the chain-scaling benchmark sweeps —
plus wide.dprle end-to-end solves, and fails (exit 1) if any row drops
below its threshold.  Thresholds are per-row: kernel rows and the
cached solve guard against pessimization (1.0×), while the uncached
end-to-end solve must hold ≥2× — with no memo layer between the solver
and the kernels, the backend speedup has to survive all the way to a
user-visible solve, which is the regression the threshold pins (the
quotient kernel and the minterm-space memo are what closed the gap;
see docs/BACKENDS.md).  The speedup multipliers are printed and
recorded in ``BENCH_solver.json`` so the perf trajectory keeps the
real numbers.

Timings are medians of CPU time (``time.process_time``): container
wall clock is noisy (±30% run to run), process time is stable.
Each kernel's outputs are also cross-checked (structure identity for
determinize/product, minimal size for Hopcroft, language equivalence
for the quotient) so the smoke can never pass on a backend that got
fast by being wrong.

Usage::

    PYTHONPATH=src python -m benchmarks.backend_smoke
"""

from __future__ import annotations

import gc
import pathlib
import statistics
import sys
import time

from repro.automata import serialize
from repro.automata.backend import get_backend, use_backend
from repro.automata.dfa import _determinize, _minimize_dfa
from repro.automata.equivalence import equivalent
from repro.automata.ops import _left_quotient, _product_reference, concat, union
from repro.cache import LangCache
from repro.constraints import parse_problem
from repro.solver import solve
from repro.solver.gci import GciLimits

from ._util import random_nfa, write_json

DATA = pathlib.Path(__file__).parent.parent / "tests" / "data"

#: Tower shape: K machines of Q states concatenated.  k=12/q=4 keeps
#: the subset construction in the tens of thousands of subsets — big
#: enough that kernel costs dominate interpreter noise, small enough
#: for CI.
TOWER_K = 12
TOWER_Q = 4

REPS = 3
#: Default per-row guard: bitset must never be slower.
MIN_SPEEDUP = 1.0
#: The uncached end-to-end row must keep a real multiple (ISSUE 8's
#: e2e-gap regression): kernels serve every operation, so the speedup
#: they deliver has to be visible from ``solve()``.
MIN_E2E_UNCACHED = 2.0


def _tower(k: int, q: int, seed0: int = 100):
    machines = [
        random_nfa(q, seed=seed0 + i, edge_factor=0.8, label_style="banded")
        for i in range(k + 1)
    ]
    exact = machines[0]
    for m in machines[1:]:
        exact = concat(exact, m)
    loose = union(
        random_nfa(q + k, seed=200 + k, edge_factor=0.8, label_style="banded"),
        exact,
    )
    return exact, loose


def _median_time(fn, *args, reps: int = REPS):
    """Median CPU time over ``reps`` runs, plus the last result.

    Collection is disabled inside the timed region: GC pauses land on
    whichever side happens to trip the threshold, which is pure noise
    for a ratio guard.
    """
    times, out = [], None
    for _ in range(reps):
        gc.collect()
        gc.disable()
        try:
            started = time.process_time()
            out = fn(*args)
            times.append(time.process_time() - started)
        finally:
            gc.enable()
    return statistics.median(times), out


def _kernel_rows() -> list[tuple[str, float, float, float]]:
    bit = get_backend("bitset")
    exact, loose = _tower(TOWER_K, TOWER_Q)
    rows = []

    def row(name, ref_fn, bit_fn, check):
        ref_s, ref_out = _median_time(ref_fn)
        bit_s, bit_out = _median_time(bit_fn)
        check(ref_out, bit_out)
        rows.append((name, ref_s, bit_s, MIN_SPEEDUP))

    def same_structure(ref_out, bit_out):
        a = ref_out.to_nfa() if hasattr(ref_out, "complemented") else ref_out
        b = bit_out.to_nfa() if hasattr(bit_out, "complemented") else bit_out
        assert serialize.to_dict(a) == serialize.to_dict(b)

    def same_product(ref_out, bit_out):
        assert serialize.to_dict(ref_out[0]) == serialize.to_dict(bit_out[0])
        assert ref_out[1] == bit_out[1]

    def same_size(ref_out, bit_out):
        assert ref_out.num_states == bit_out.num_states

    def same_language(ref_out, bit_out):
        # left_quotient is a language-faithful kernel: the bitset
        # output may merge same-destination edges, so the check is
        # equivalence, not structure identity.
        assert equivalent(ref_out, bit_out)

    row(
        "determinize(exact)",
        lambda: _determinize(exact),
        lambda: bit.determinize(exact),
        same_structure,
    )
    row(
        "determinize(loose)",
        lambda: _determinize(loose),
        lambda: bit.determinize(loose),
        same_structure,
    )

    # The bitset-determinized machines are structure-identical to the
    # reference's (asserted above), so building downstream inputs with
    # the fast kernel is fair to both sides.
    det_exact = bit.determinize(exact).to_nfa()
    det_loose = bit.determinize(loose).to_nfa()
    row(
        "product(exact, loose)",
        lambda: _product_reference(exact, loose),
        lambda: bit.product(exact, loose),
        same_product,
    )
    row(
        "product(det(exact), det(loose))",
        lambda: _product_reference(det_exact, det_loose),
        lambda: bit.product(det_exact, det_loose),
        same_product,
    )

    raw_product, _ = bit.product(exact, loose)
    for name, machine in [
        ("hopcroft(det(exact))", exact),
        ("hopcroft(det(loose))", loose),
        ("hopcroft(det(product))", raw_product),
    ]:
        dfa = bit.determinize(machine)
        row(
            name,
            lambda dfa=dfa: _minimize_dfa(dfa),
            lambda dfa=dfa: bit.minimize_dfa(dfa),
            same_size,
        )

    # The universal quotient's track-set construction is exponential in
    # the DFA, so the row uses a shallow sub-tower (k=3) — ~100 ms on
    # the reference side, still an order of magnitude above timer noise.
    q_exact, _ = _tower(3, TOWER_Q)
    q_prefixes = random_nfa(
        TOWER_Q, seed=100, edge_factor=0.8, label_style="banded"
    )
    row(
        "left_quotient(prefix, tower3)",
        lambda: _left_quotient(q_prefixes, q_exact),
        lambda: bit.left_quotient(q_prefixes, q_exact),
        same_language,
    )
    return rows


def _wide_end_to_end() -> list[tuple[str, float, float, float]]:
    problem = parse_problem((DATA / "wide.dprle").read_text())
    limits = GciLimits(workers=0)

    def run_cached(backend: str) -> None:
        with LangCache().activate(), use_backend(backend):
            solve(problem, limits=limits)

    def run_uncached(backend: str) -> None:
        with use_backend(backend):
            solve(problem, limits=limits)

    run_cached("reference")  # warmup: imports, regex caches
    rows = []
    ref_s, _ = _median_time(lambda: run_cached("reference"))
    bit_s, _ = _median_time(lambda: run_cached("bitset"))
    rows.append(("solve(wide.dprle)", ref_s, bit_s, MIN_SPEEDUP))
    # No language cache: every determinize/product/quotient reaches
    # the kernels, so this row measures the backend itself end to end.
    ref_s, _ = _median_time(lambda: run_uncached("reference"))
    bit_s, _ = _median_time(lambda: run_uncached("bitset"))
    rows.append(("solve(wide.dprle, no cache)", ref_s, bit_s, MIN_E2E_UNCACHED))
    return rows


def main() -> int:
    rows = _kernel_rows()
    rows.extend(_wide_end_to_end())

    data, failed = {}, []
    for name, ref_s, bit_s, threshold in rows:
        speedup = ref_s / bit_s if bit_s else float("inf")
        data[name] = {
            "reference_ms": round(ref_s * 1e3, 2),
            "bitset_ms": round(bit_s * 1e3, 2),
            "speedup": round(speedup, 2),
            "min_speedup": threshold,
        }
        marker = "" if speedup >= threshold else "  <-- BELOW THRESHOLD"
        print(
            f"{name:34s} ref {ref_s * 1e3:8.1f} ms   "
            f"bitset {bit_s * 1e3:8.1f} ms   {speedup:5.1f}x"
            f" (need {threshold:.1f}x){marker}"
        )
        if speedup < threshold:
            failed.append(name)

    write_json(
        "backend_smoke",
        "Bitset vs reference backend (Sec. 3.5 chain family, CPU-time medians)",
        data,
    )

    if failed:
        print(
            f"FAIL: bitset backend below threshold on: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    print("OK: bitset backend meets the threshold on every row")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
