"""Reference ≡ bitset: the backend must be observationally invisible.

The bitset kernels (repro.automata.bitset) promise the *same* answers
as the reference kernels — not just the same languages, but the same
SolutionSets in the same order, and (because determinize/product are
pinned structure-identical) the same serial ``visit_states`` and
operation counters.  These tests pin that end-to-end on the paper's
fixtures, on randomized RMA systems, under adversarially warmed
caches, and across the multiprocess worker pool (workers re-install
the parent's backend by name).  Bitset is the production default, so
the unscoped solver paths are pinned against the reference too.
"""

import pathlib

import pytest
from hypothesis import given, settings

from repro import obs
from repro.automata import ops
from repro.automata.backend import use_backend
from repro.automata.equivalence import equivalent
from repro.automata.nfa import Nfa
from repro.cache import LangCache
from repro.constraints import parse_problem
from repro.constraints.terms import Const, Problem, Subset, Var
from repro.solver import solve
from repro.solver.api import RegLangSolver
from repro.solver.gci import GciLimits

from ..helpers import AB
from ..prop.strategies import machines

DATA = pathlib.Path(__file__).parent.parent / "data"

FIXTURES = [
    "motivating.dprle",
    "fig9.dprle",
    "nested.dprle",
    "disjunctive.dprle",
    "wide.dprle",
]

BACKENDS = ["reference", "bitset"]


def _limits(workers: int = 0, **kwargs) -> GciLimits:
    return GciLimits(workers=workers, min_parallel_combinations=1, **kwargs)


def _solve(fixture: str, backend: str, workers: int = 0, **kwargs):
    problem = parse_problem((DATA / fixture).read_text())
    with LangCache().activate(), use_backend(backend):
        return solve(problem, limits=_limits(workers, **kwargs))


def assert_same_solutions(reference, candidate) -> None:
    assert len(candidate) == len(reference)
    for index, (a, b) in enumerate(zip(reference, candidate)):
        assert a.variables() == b.variables(), index
        for name in a.variables():
            assert equivalent(a[name], b[name]), (index, name)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_solutions_identical(fixture):
    reference = _solve(fixture, "reference")
    candidate = _solve(fixture, "bitset")
    assert_same_solutions(reference, candidate)


@pytest.mark.parametrize("fixture", ["motivating.dprle", "fig9.dprle", "wide.dprle"])
def test_serial_counters_identical(fixture):
    """determinize/product are structure-identical across backends, so
    the serial cost model (visit_states totals, operation counts) must
    agree exactly — the bitset backend batches its emissions, but the
    totals are pinned."""
    problem = parse_problem((DATA / fixture).read_text())
    counters = {}
    for backend in BACKENDS:
        with LangCache().activate(), use_backend(backend):
            with obs.collect() as collector:
                solve(problem, limits=_limits(0))
        counters[backend] = collector.metrics.snapshot()["counters"]
    assert counters["reference"] == counters["bitset"]


@pytest.mark.parametrize("workers", [0, 4])
@pytest.mark.parametrize("fixture", ["fig9.dprle", "wide.dprle"])
def test_bitset_parallel_matches_reference_serial(fixture, workers):
    reference = _solve(fixture, "reference", workers=0)
    candidate = _solve(fixture, "bitset", workers=workers)
    assert_same_solutions(reference, candidate)


@pytest.mark.parametrize("backend", BACKENDS)
def test_adversarially_warmed_cache_identical(backend):
    """A cache warmed under the *other* backend must not perturb
    answers: minimal DFAs are canonical, so language signatures — and
    therefore cache hits — are backend-portable."""
    reference = _solve("wide.dprle", "reference")
    other = BACKENDS[1 - BACKENDS.index(backend)]

    problem = parse_problem((DATA / "wide.dprle").read_text())
    cache = LangCache()
    with cache.activate(), use_backend(other):
        universal = Nfa.universal(AB)
        ops.intersect(universal, universal.copy())
        one = Nfa.literal("a", AB)
        cache.signature(ops.intersect(universal, one))
        cache.signature(one)
    with cache.activate(), use_backend(backend):
        warmed = solve(problem, limits=_limits(0))
    assert_same_solutions(reference, warmed)


def test_default_solve_matches_reference():
    problem = parse_problem((DATA / "motivating.dprle").read_text())
    with use_backend("reference"):
        reference = solve(problem, limits=_limits(0))
    candidate = solve(problem, limits=_limits(0))
    assert_same_solutions(reference, candidate)


def test_solver_default_matches_reference():
    def solve_motivating():
        solver = RegLangSolver(alphabet=AB)
        solver.add_dsl((DATA / "motivating.dprle").read_text())
        return solver.solve(limits=_limits(0))

    with use_backend("reference"):
        reference = solve_motivating()
    candidate = solve_motivating()
    assert_same_solutions(reference, candidate)


@settings(max_examples=8, deadline=None)
@given(machines(max_depth=2), machines(max_depth=2), machines(max_depth=2))
def test_random_rma_systems_identical(c1, c2, c3):
    problem = Problem(
        [
            Subset(Var("x"), Const("c1", c1)),
            Subset(Var("y"), Const("c2", c2)),
            Subset(Var("x").concat(Var("y")), Const("c3", c3)),
        ],
        alphabet=AB,
    )
    kwargs = {"max_combinations": 10_000}
    with LangCache().activate(), use_backend("reference"):
        reference = solve(problem, limits=_limits(0, **kwargs))
    with LangCache().activate(), use_backend("bitset"):
        candidate = solve(problem, limits=_limits(0, **kwargs))
    assert_same_solutions(reference, candidate)
