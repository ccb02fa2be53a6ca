"""Unit tests for the general worklist solver (Fig. 7)."""

from repro import obs
from repro.automata import enumerate_strings, equivalent
from repro.constraints import Const, Problem, Subset, Var, parse_problem
from repro.solver import GciLimits, solve

from ..helpers import ABC, machine


def _const(name: str, pattern: str) -> Const:
    return Const.from_regex(name, pattern, ABC)


def words(nfa, limit=30):
    return frozenset(enumerate_strings(nfa, limit=limit, max_length=12))


class TestBasicConstraints:
    def test_single_subset(self):
        solutions = solve(Problem([Subset(Var("v"), _const("c", "a+"))], alphabet=ABC))
        assert solutions.satisfiable
        assert equivalent(solutions.first["v"], machine("a+"))

    def test_intersection_of_constants(self):
        # Fig. 7 stage 1: v ⊆ c1 ∧ v ⊆ c2 resolves to c1 ∩ c2.
        problem = Problem(
            [
                Subset(Var("v"), _const("c1", "a*b*")),
                Subset(Var("v"), _const("c2", "(ab)*")),
            ],
            alphabet=ABC,
        )
        solutions = solve(problem)
        # a*b* ∩ (ab)* keeps only "" and "ab" among short strings:
        # aabb is not alternating, abab is not sorted.
        assert equivalent(
            solutions.first["v"], machine("(ab)?")
        ) or words(solutions.first["v"], limit=4) == {"", "ab"}

    def test_two_independent_vars(self):
        problem = Problem(
            [
                Subset(Var("x"), _const("c1", "a")),
                Subset(Var("y"), _const("c2", "b")),
            ],
            alphabet=ABC,
        )
        solutions = solve(problem)
        assert len(solutions) == 1
        assert words(solutions.first["x"]) == {"a"}
        assert words(solutions.first["y"]) == {"b"}

    def test_empty_basic_var_reported_unsat(self):
        # Disjoint constants: v only satisfiable by ∅; the paper's
        # Fig. 7 reports that as "no assignments found".
        problem = Problem(
            [
                Subset(Var("v"), _const("c1", "a+")),
                Subset(Var("v"), _const("c2", "b+")),
            ],
            alphabet=ABC,
        )
        solutions = solve(problem)
        assert not solutions.satisfiable
        assert len(solutions) == 1  # the ∅ assignment is still reported
        assert solutions.assignments[0].is_empty("v")

    def test_query_restriction(self):
        # With `query`, only the named variables must be non-empty.
        problem = Problem(
            [
                Subset(Var("dead"), _const("c1", "a+")),
                Subset(Var("dead"), _const("c2", "b+")),
                Subset(Var("live"), _const("c3", "c")),
            ],
            alphabet=ABC,
        )
        assert not solve(problem).satisfiable
        assert solve(problem, query=["live"]).satisfiable


class TestConstToConst:
    def test_violated_constant_constraint_unsat(self):
        problem = Problem(
            [
                Subset(_const("big", "a*"), _const("small", "a{0,2}")),
                Subset(Var("v"), _const("c", "a")),
            ],
            alphabet=ABC,
        )
        assert not solve(problem).satisfiable

    def test_satisfied_constant_constraint_ignored(self):
        problem = Problem(
            [
                Subset(_const("small", "a{0,2}"), _const("big", "a*")),
                Subset(Var("v"), _const("c", "a")),
            ],
            alphabet=ABC,
        )
        assert solve(problem).satisfiable


class TestPaperExamples:
    def test_sec311_single_variable(self):
        problem = parse_problem(
            "var v1;\nv1 <= /x(?:xx)*y|(?:xx)+y/;\nv1 <= /x*y/;"
        )
        # Written as in the paper: v1 ⊆ (xx)+y ∧ v1 ⊆ x*y → (xx)+y.
        problem = parse_problem("var v1;\nv1 <= /(xx)+y/;\nv1 <= /x*y/;")
        solutions = solve(problem)
        from repro.regex import parse_exact, to_nfa

        assert equivalent(solutions.first["v1"], to_nfa(parse_exact("(xx)+y")))

    def test_sec311_disjunctive(self):
        problem = parse_problem(
            """
            var v1, v2;
            v1 <= /x(yy)+/;
            v2 <= /(yy)*z/;
            v1 . v2 <= /xyyz|xyyyyz/;
            """
        )
        solutions = solve(problem)
        combos = {
            (words(a["v1"]), words(a["v2"])) for a in solutions
        }
        assert combos == {
            (frozenset({"xyy"}), frozenset({"z", "yyz"})),
            (frozenset({"xyy", "xyyyy"}), frozenset({"z"})),
        }

    def test_motivating_example(self):
        problem = parse_problem(
            """
            var v1;
            v1 <= m/[\\d]+$/;
            "nid_" . v1 <= m/'/;
            """
        )
        solutions = solve(problem)
        assert solutions.satisfiable
        exploit = solutions.first["v1"]
        assert exploit.accepts("' OR 1=1 ; DROP news --9")
        assert not exploit.accepts("123")

    def test_fixed_filter_unsat(self):
        problem = parse_problem(
            """
            var v1;
            v1 <= m/^[\\d]+$/;
            "nid_" . v1 <= m/'/;
            """
        )
        assert not solve(problem).satisfiable


class TestMultipleGroups:
    def test_cross_product_of_groups(self):
        problem = parse_problem(
            """
            var a, b, x, y;
            a . b <= "pq";
            x . y <= /mn|mmnn/;
            """,
        )
        solutions = solve(problem)
        # Group 1 has 3 splits of pq; group 2 has the splits of mn and
        # mmnn; the totals multiply.
        group1 = {(words(s["a"]), words(s["b"])) for s in solutions}
        group2 = {(words(s["x"]), words(s["y"])) for s in solutions}
        assert len(solutions) == len(group1) * len(group2)

    def test_group_plus_basic_var(self):
        problem = parse_problem(
            """
            var free, l, r;
            free <= /k+/;
            l . r <= "ab";
            """
        )
        solutions = solve(problem)
        for assignment in solutions:
            assert equivalent(assignment["free"], solutions.first["free"])

    def test_max_solutions_cap(self):
        problem = parse_problem('var a, b;\na . b <= /x{6}/;')
        capped = solve(problem, max_solutions=2)
        assert len(capped) == 2
        uncapped = solve(problem)
        assert len(uncapped) == 7

    def test_failing_group_kills_branch(self):
        problem = parse_problem(
            """
            var a, b;
            a <= /p/;
            b <= /q/;
            a . b <= "zz";
            """
        )
        assert not solve(problem).satisfiable
        assert len(solve(problem)) == 0

    def test_each_group_solved_once(self):
        # A group's solutions do not depend on the partial assignment:
        # the second group must be enumerated once, not once per
        # solution of the first.
        first = "var va, vb;\nva . vb <= /xyy(z|yyz)|xyyyyz/;\n"
        second = "var vc, vd;\nvc . vd <= /(a|b){3}/;\n"
        both = "var va, vb, vc, vd;\n" + "".join(
            text.split("\n", 1)[1] for text in (first, second)
        )

        def solved(text):
            with obs.collect() as collector:
                solutions = solve(parse_problem(text), limits=GciLimits(workers=0))
            counters = collector.metrics.snapshot()["counters"]
            return solutions, counters["gci.combinations_total"]

        first_solutions, first_total = solved(first)
        second_solutions, second_total = solved(second)
        solutions, total = solved(both)
        assert total == first_total + second_total
        assert len(solutions) == len(first_solutions) * len(second_solutions)
        pairs = {
            (words(s["va"]), words(s["vb"]), words(s["vc"]), words(s["vd"]))
            for s in solutions
        }
        assert pairs == {
            (words(a["va"]), words(a["vb"]), words(b["vc"]), words(b["vd"]))
            for a in first_solutions
            for b in second_solutions
        }


class TestLimitsPlumbing:
    def test_limits_forwarded_to_gci(self):
        problem = parse_problem('var a, b;\na . b <= /x{6}/;')
        limits = GciLimits(max_solutions=3)
        solutions = solve(problem, limits=limits)
        assert len(solutions) == 3
