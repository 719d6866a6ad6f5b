"""Degree-two solvers: decomposition into paths/cycles and the two list solvers."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmatch.core import (
    Instance,
    Matching,
    Objective,
    SizeRegime,
    blocking_report,
    objective_value,
    verify_solution,
)
from devmatch.generators import GenModel, GenSpec, generate
from devmatch.oracle import oracle_solve
from devmatch.shortlist import (
    ComponentDecomposition,
    ListTooLong,
    decompose,
    solve_shortlist_any,
    solve_shortlist_max,
)

from conftest import ordered_cycle, problem


class TestDecompose:
    def test_rejects_long_lists(self):
        inst = Instance(4, ((), (2, 3, 4), (1,), (1,), (1,)), None)
        with pytest.raises(ListTooLong) as exc:
            decompose(inst)
        assert exc.value.agent == 1

    def test_mixed_components(self):
        prefs = (
            (),
            (2,), (1,),           # path 1-2
            (),                   # isolated 3
            (5, 7), (4, 6), (5, 7), (6, 4),   # 4-cycle
            (9, 10), (8, 10), (9, 8),          # 3-cycle
        )
        dec = decompose(Instance(10, prefs, None))
        assert dec == ComponentDecomposition(
            paths=((1, 2), (3,)),
            even_cycles=((4, 5, 6, 7),),
            odd_cycles=((8, 9, 10),),
        )

    def test_path_starts_at_smaller_endpoint(self):
        inst = Instance(3, ((), (2, 3), (1,), (1,)), None)
        dec = decompose(inst)
        assert dec.paths == ((2, 1, 3),)

    def test_cycle_rotation_picks_smaller_neighbour(self):
        # cycle 1-3-2-4-1: neighbours of 1 are {3, 4}, so traversal goes 1,3,...
        prefs = ((), (3, 4), (3, 4), (1, 2), (2, 1))
        dec = decompose(Instance(4, prefs, None))
        assert dec.even_cycles == ((1, 3, 2, 4),)

    def test_empty(self):
        dec = decompose(Instance(0, ((),), None))
        assert dec == ComponentDecomposition((), (), ())


class TestSolveAny:
    def test_rejects_other_regimes(self):
        p = problem(ordered_cycle(3), {1}, regime=SizeRegime.MAX_CARDINALITY)
        with pytest.raises(ValueError):
            solve_shortlist_any(p)

    def test_ordered_cycle_all_deviators_pairs(self):
        p = problem(ordered_cycle(3), {1, 2, 3}, objective=Objective.BLOCKING_PAIRS)
        out = solve_shortlist_any(p)
        assert out.value == 1
        assert out.certificate_note == "shortlist-any"
        verify_solution(p, out.matching, out.value, strict=True)

    def test_ordered_cycle_all_deviators_agents(self):
        p = problem(ordered_cycle(3), {1, 2, 3}, objective=Objective.BLOCKING_AGENTS)
        out = solve_shortlist_any(p)
        assert out.value == 2
        verify_solution(p, out.matching, out.value, strict=True)

    def test_ordered_cycle_single_deviator(self):
        for objective in Objective:
            p = problem(ordered_cycle(3), {1}, objective=objective)
            out = solve_shortlist_any(p)
            assert out.value == 0
            verify_solution(p, out.matching, out.value, strict=True)

    def test_budget_infeasibility(self):
        p = problem(ordered_cycle(3), {1, 2, 3}, budget=0)
        out = solve_shortlist_any(p)
        assert not out.feasible
        assert out.value is None
        p1 = problem(ordered_cycle(3), {1, 2, 3}, budget=1)
        out1 = solve_shortlist_any(p1)
        assert out1.feasible and out1.value == 1


class TestSolveMax:
    def test_rejects_other_regimes(self):
        with pytest.raises(ValueError):
            solve_shortlist_max(problem(ordered_cycle(3), {1}))

    def test_odd_path_middle_deviator(self):
        inst = Instance(3, ((), (2,), (1, 3), (2,)), None)
        p = problem(inst, {2}, regime=SizeRegime.MAX_CARDINALITY)
        out = solve_shortlist_max(p)
        assert out.matching.pairs == frozenset({(1, 2)})
        assert out.value == 0
        assert out.certificate_note == "shortlist-max"

    def test_ordered_cycle_all_deviators(self):
        p = problem(
            ordered_cycle(3), {1, 2, 3},
            objective=Objective.BLOCKING_AGENTS, regime=SizeRegime.MAX_CARDINALITY,
        )
        out = solve_shortlist_max(p)
        assert out.value == 2
        assert len(out.matching.pairs) == 1
        verify_solution(p, out.matching, out.value, strict=True)

    def test_budget_infeasibility(self):
        p = problem(
            ordered_cycle(3), {1, 2, 3},
            regime=SizeRegime.MAX_CARDINALITY, budget=0,
        )
        assert not solve_shortlist_max(p).feasible


def degree_two_problems(max_n=12):
    return st.builds(
        lambda n, seed, frac: generate(
            GenSpec(n=n, model=GenModel.PATH_CYCLE_ONLY, list_cap=2,
                    deviator_fraction=frac, seed=seed)
        ),
        st.integers(0, max_n),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
    )


@settings(max_examples=150, deadline=None)
@given(prob=degree_two_problems(), objective=st.sampled_from(Objective))
def test_any_matches_oracle(prob, objective):
    p = problem(prob.instance, prob.deviators, objective=objective)
    out = solve_shortlist_any(p)
    report = oracle_solve(p)
    want = report.optimum_bp if objective is Objective.BLOCKING_PAIRS else report.optimum_ba
    assert out.value == want
    verify_solution(p, out.matching, out.value, strict=True)


@settings(max_examples=150, deadline=None)
@given(prob=degree_two_problems(), objective=st.sampled_from(Objective))
def test_max_matches_oracle(prob, objective):
    p = problem(prob.instance, prob.deviators, objective=objective,
                regime=SizeRegime.MAX_CARDINALITY)
    out = solve_shortlist_max(p)
    report = oracle_solve(p)
    want = report.optimum_bp if objective is Objective.BLOCKING_PAIRS else report.optimum_ba
    assert out.value == want
    verify_solution(p, out.matching, out.value, strict=True)
    assert len(out.matching.pairs) == report.regime_sizes[0]


def maximum_matchings(seq, cycle):
    """Every maximum matching of one path or cycle, with the agent it leaves out."""
    k = len(seq)

    def consecutive(run):
        return [(run[t], run[t + 1]) for t in range(0, len(run) - 1, 2)]

    if k % 2 == 0:
        rotated = [consecutive(seq[1:] + seq[:1])] if cycle else []
        return [(m, None) for m in [consecutive(seq)] + rotated]
    if cycle:
        return [(consecutive(seq[q + 1:] + seq[:q]), seq[q]) for q in range(k)]
    return [(consecutive(seq[:q]) + consecutive(seq[q + 1:]), seq[q]) for q in range(0, k, 2)]


@settings(max_examples=150, deadline=None)
@given(prob=degree_two_problems(max_n=40), objective=st.sampled_from(Objective),
       budget=st.sampled_from((None, 0, 1)))
def test_max_picks_the_least_value_then_the_least_unmatched_id(prob, objective, budget):
    """Brute force over each component's maximum matchings, scored by blocking_report."""
    inst, deviators = prob.instance, prob.deviators
    dec = decompose(inst)
    total, pairs = 0, set()
    for seq, cycle in (
        [(s, False) for s in dec.paths] + [(s, True) for s in dec.even_cycles + dec.odd_cycles]
    ):
        def key(candidate):
            m, left_out = candidate
            assert 2 * len(m) == len(seq) - (left_out is not None)
            report = blocking_report(inst, Matching(m), deviators & set(seq))
            # an even component leaves nobody out: the first candidate wins ties
            return objective_value(report, objective), left_out or 0

        best = min(maximum_matchings(seq, cycle), key=key)
        total += key(best)[0]
        pairs.update(best[0])
    p = problem(inst, deviators, objective, SizeRegime.MAX_CARDINALITY, budget)
    out = solve_shortlist_max(p)
    assert out.certificate_note == "shortlist-max"
    if budget is not None and total > budget:
        assert not out.feasible
    else:
        assert (out.matching.pairs, out.value) == (Matching(pairs).pairs, total)


def test_max_scores_a_long_odd_cycle_in_little_memory():
    """Sliding the unmatched agent keeps no candidate matchings around."""
    n = 1001
    p = problem(ordered_cycle(n), range(1, n + 1), Objective.BLOCKING_AGENTS,
                SizeRegime.MAX_CARDINALITY)
    tracemalloc.start()
    try:
        out = solve_shortlist_max(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.value == 2
    assert peak < 4_000_000


@settings(max_examples=60, deadline=None)
@given(prob=degree_two_problems(), budget=st.integers(0, 2),
       objective=st.sampled_from(Objective))
def test_budget_consistency(prob, budget, objective):
    """A budgeted solve is feasible exactly when the optimum fits the budget."""
    p_opt = problem(prob.instance, prob.deviators, objective=objective)
    p_bud = problem(prob.instance, prob.deviators, objective=objective, budget=budget)
    opt = solve_shortlist_any(p_opt).value
    out = solve_shortlist_any(p_bud)
    if opt <= budget:
        assert out.feasible and out.value <= budget
        verify_solution(p_bud, out.matching, out.value, strict=True)
    else:
        assert not out.feasible
