"""Unit tests for the cost model (states-visited accounting, Sec. 3.5)."""

from repro import concat_intersect, obs, solve
from repro.constraints import parse_problem

from ..helpers import machine


def operations(collector) -> dict[str, int]:
    """The collector's ``op.<name>`` counters, keyed by operation."""
    return {
        name[len("op."):]: value
        for name, value in collector.metrics.snapshot()["counters"].items()
        if name.startswith("op.")
    }


class TestMeasure:
    def test_counts_accumulate(self):
        with obs.collect() as cost:
            concat_intersect(machine("a*"), machine("b*"), machine("ab"))
        assert cost.states_visited > 0
        assert operations(cost).get("concat", 0) >= 1
        assert operations(cost).get("product", 0) >= 1

    def test_no_tracker_outside_block(self):
        assert obs.current_collector() is None
        # Operations outside a collect block are no-ops, not errors.
        concat_intersect(machine("a"), machine("b"), machine("ab"))

    def test_nested_scopes_propagate(self):
        # Inner work is part of the outer scope's cost, so it must
        # propagate to all active ancestors.
        with obs.collect() as outer:
            machine("a")  # helper compiles via ops: counts here
            before = outer.states_visited
            with obs.collect() as inner:
                concat_intersect(machine("a*"), machine("b"), machine("a*b"))
            assert inner.states_visited > 0
            assert outer.states_visited == before + inner.states_visited
            assert all(
                operations(outer).get(op, 0) >= count
                for op, count in operations(inner).items()
            )
        assert obs.current_collector() is None

    def test_current_returns_innermost(self):
        with obs.collect() as outer:
            with obs.collect() as inner:
                assert obs.current_collector() is inner
            assert obs.current_collector() is outer
        assert obs.current_collector() is None

    def test_bigger_inputs_cost_more(self):
        with obs.collect() as small:
            concat_intersect(machine("a"), machine("b"), machine("ab"))
        with obs.collect() as big:
            concat_intersect(
                machine("(a|b){0,8}"), machine("(b|c){0,8}"), machine("(a|b|c){0,12}")
            )
        assert big.states_visited > small.states_visited

    def test_solve_records_operations(self):
        problem = parse_problem('var v;\nv <= /a+/;\nv <= /(aa)+/;')
        with obs.collect() as cost:
            solve(problem)
        assert operations(cost).get("product", 0) >= 1

    def test_repr_mentions_counts(self):
        with obs.collect() as cost:
            machine("ab")
        assert "states_visited" in repr(cost)
