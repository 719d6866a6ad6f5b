"""Instance transformations: CNF parsing, the SAT construction, list completions."""

import itertools
import json
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from devmatch.core import (
    Instance,
    Matching,
    Objective,
    SizeRegime,
    blocking_report,
    verify_solution,
)
from devmatch.generators import GenModel, GenSpec, generate
from devmatch.oracle import enumerate_matchings, oracle_solve
from devmatch.reductions import (
    MAX_LIST_ENTRIES,
    MAX_SEARCH_VARS,
    BadArity,
    BadOccurrence,
    BudgetTooLarge,
    CnfError,
    CnfFormula,
    DuplicateLiteral,
    OutputTooLarge,
    RegimeUnsupported,
    UnsatisfiedAssignment,
    complete_lists,
    first_satisfying_assignment,
    minba_complete,
    parse_cnf_22e3,
    sat_to_perfect_smi,
    satisfying_mask,
    smi_to_sri,
    witness_matching,
)

from conftest import (
    induce,
    ordered_cycle,
    problem,
    random_22e3_formula,
    single_path_composition,
)

FORMULA_B = CnfFormula(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3), (-1, 2, -3)))
DIMACS_B = "p cnf 3 4\n1 2 3 0\n-1 -2 -3 0\n1 -2 3 0\n-1 2 -3 0\n"


class TestParser:
    def test_reads_dimacs(self):
        assert parse_cnf_22e3(DIMACS_B) == FORMULA_B

    def test_skips_comments_and_blank_lines(self):
        text = "c a comment\n\n" + DIMACS_B + "% trailing comment\n"
        assert parse_cnf_22e3(text) == FORMULA_B

    def test_short_clause(self):
        with pytest.raises(BadArity) as exc:
            parse_cnf_22e3("p cnf 3 4\n1 2 0\n-1 -2 -3 0\n1 -2 3 0\n-1 2 -3 0\n")
        assert exc.value.clause == 1

    def test_trailing_partial_clause(self):
        with pytest.raises(BadArity):
            parse_cnf_22e3("p cnf 3 4\n1 2 3 0\n-1 -2 -3 0\n1 -2 3 0\n-1 2\n")

    def test_duplicate_literal(self):
        with pytest.raises(DuplicateLiteral):
            parse_cnf_22e3("p cnf 3 4\n1 1 3 0\n-1 -2 -3 0\n2 -2 3 0\n-1 2 -3 0\n")

    def test_occurrence_imbalance(self):
        with pytest.raises(BadOccurrence) as exc:
            parse_cnf_22e3("p cnf 3 4\n-1 2 3 0\n-1 -2 -3 0\n1 -2 3 0\n-1 2 -3 0\n")
        err = exc.value
        assert (err.var, err.count) == (1, 1) or (err.var, err.count) == (1, 3)
        assert isinstance(err, CnfError)

    def test_header_clause_count_must_match(self):
        with pytest.raises(CnfError):
            parse_cnf_22e3("p cnf 3 5\n1 2 3 0\n-1 -2 -3 0\n1 -2 3 0\n-1 2 -3 0\n")

    def test_formula_shape_checked_on_construction(self):
        with pytest.raises(CnfError):
            CnfFormula(3, ((1, 2), (-1, -2, -3), (1, -2, 3), (-1, 2, -3)))


class TestSatConstruction:
    def test_sizes_on_reference_formula(self):
        p, idx = sat_to_perfect_smi(FORMULA_B)
        inst = p.instance
        assert inst.num_agents == 56 * 3 + 8 * 4 == 200
        assert max(len(inst.prefs[a]) for a in inst.agents()) == 3
        assert inst.sides is not None
        assert len(p.deviators) == 8 * 3
        assert p.size_regime is SizeRegime.PERFECT
        assert p.objective is Objective.BLOCKING_PAIRS
        assert p.budget == 0

    def test_index_layout(self):
        _, idx = sat_to_perfect_smi(FORMULA_B)
        assert idx.x[(1, 1)] == 1 and idx.y[(1, 1)] == 5
        assert idx.x[(3, 4)] == 20 and idx.y[(3, 4)] == 24
        assert idx.c[(1, 1)] == 25 and idx.p[(1, 1)] == 28
        assert idx.q[1] == 31 and idx.z[1] == 32
        assert idx.t[(1, 1, 1)] == 57 and idx.t[(3, 4, 12)] == 200

    def test_occurrence_wiring_reads_left_to_right(self):
        _, idx = sat_to_perfect_smi(FORMULA_B)
        # variable 1 appears unnegated in clauses 1 and 3, negated in 2 and 4
        assert idx.occurrence_of[(1, 1)] == (1, 1)
        assert idx.occurrence_of[(1, 2)] == (3, 1)
        assert idx.occurrence_of[(1, 3)] == (2, 1)
        assert idx.occurrence_of[(1, 4)] == (4, 1)

    def test_deviators_are_the_connector_ends(self):
        p, idx = sat_to_perfect_smi(FORMULA_B)
        ends = {idx.t[(i, r, 1)] for i in (1, 2, 3) for r in (1, 2, 3, 4)}
        ends |= {idx.t[(i, r, 7)] for i in (1, 2, 3) for r in (1, 2, 3, 4)}
        assert p.deviators == frozenset(ends)

    def test_census_variable_gadget(self):
        p, idx = sat_to_perfect_smi(FORMULA_B)
        sub = induce(p.instance, list(range(1, 9)))
        perfect = list(enumerate_matchings(sub, SizeRegime.PERFECT))
        assert len(perfect) == 2
        censuses = {
            m.pairs: blocking_report(sub, m, frozenset(sub.agents())).blocking_pairs
            for m in perfect
        }
        m1 = frozenset({(1, 5), (2, 6), (3, 7), (4, 8)})
        m2 = frozenset({(1, 6), (2, 7), (3, 8), (4, 5)})
        assert censuses == {m1: frozenset({(3, 8)}), m2: frozenset({(1, 5)})}

    def test_census_clause_gadget(self):
        p, idx = sat_to_perfect_smi(FORMULA_B)
        sub = induce(p.instance, list(range(25, 33)))
        perfect = list(enumerate_matchings(sub, SizeRegime.PERFECT))
        assert len(perfect) == 3
        censuses = {
            m.pairs: blocking_report(sub, m, frozenset(sub.agents())).blocking_pairs
            for m in perfect
        }
        want = {}
        for s in (1, 2, 3):
            pairs = {(s, 7), (3 + s, 8)}
            pairs |= {(u, 3 + u) for u in (1, 2, 3) if u != s}
            want[frozenset(pairs)] = frozenset({(s, 3 + s)})
        assert censuses == want

    def test_census_connector_gadget(self):
        p, idx = sat_to_perfect_smi(FORMULA_B)
        first_t = idx.t[(1, 1, 1)]
        sub = induce(p.instance, list(range(first_t, first_t + 12)))
        perfect = list(enumerate_matchings(sub, SizeRegime.PERFECT))
        assert len(perfect) == 2
        censuses = {
            m.pairs: blocking_report(sub, m, frozenset(sub.agents())).blocking_pairs
            for m in perfect
        }
        m1 = frozenset({(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)})
        m2 = frozenset({(1, 12), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)})
        assert censuses == {m1: frozenset(), m2: frozenset({(5, 6)})}

    def test_random_formulas_validate_and_stay_small(self):
        for seed in range(8):
            f = random_22e3_formula(6, random.Random(seed))
            p, _ = sat_to_perfect_smi(f)
            assert p.instance.num_agents == 56 * 6 + 8 * 8
            assert max(len(p.instance.prefs[a]) for a in p.instance.agents()) == 3


class TestWitness:
    def test_reference_assignment_passes(self):
        p, idx = sat_to_perfect_smi(FORMULA_B)
        w = witness_matching(FORMULA_B, (True, False, False), idx)
        assert 2 * len(w.pairs) == p.instance.num_agents
        assert verify_solution(p, w, 0)

    def test_variable_parts_follow_the_assignment(self):
        _, idx = sat_to_perfect_smi(FORMULA_B)
        assignment = (True, False, False)
        w = witness_matching(FORMULA_B, assignment, idx)
        for i in (1, 2, 3):
            straight = {
                tuple(sorted((idx.x[(i, r)], idx.y[(i, r)]))) for r in (1, 2, 3, 4)
            }
            assert (straight <= w.pairs) == assignment[i - 1]

    def test_unsatisfying_assignment_rejected(self):
        _, idx = sat_to_perfect_smi(FORMULA_B)
        with pytest.raises(UnsatisfiedAssignment):
            witness_matching(FORMULA_B, (True, True, True), idx)

    def test_random_satisfiable_formulas(self):
        passed = 0
        for seed in range(40):
            f = random_22e3_formula(6, random.Random(1000 + seed))
            assignment = first_satisfying_assignment(f)
            if assignment is None:
                continue
            p, idx = sat_to_perfect_smi(f)
            w = witness_matching(f, assignment, idx)
            assert verify_solution(p, w, 0)
            passed += 1
            if passed >= 6:
                break
        assert passed >= 6


def test_bitmask_search_matches_brute_force():
    """The truth-table search agrees with a walk over itertools.product."""
    rng = random.Random(20261018)
    unsatisfiable = 0
    for trial in range(80):
        if trial % 2:
            f = random_22e3_formula(rng.choice((3, 6, 9)), rng)
        else:  # unconstrained clauses, so that unsatisfiable formulas turn up
            n = rng.randint(3, 9)
            f = CnfFormula(n, tuple(
                tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
                for _ in range(rng.randint(1, 8 * n))
            ))
        models = [
            bits
            for bits in itertools.product((False, True), repeat=f.num_vars)
            if all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in f.clauses)
        ]
        assert satisfying_mask(f).bit_count() == len(models)
        assert first_satisfying_assignment(f) == (models[0] if models else None)
        unsatisfiable += not models
    assert unsatisfiable
    with pytest.raises(CnfError):
        first_satisfying_assignment(CnfFormula(MAX_SEARCH_VARS + 1, ((1, 2, 3),)))


def test_single_path_composition_matches_direct_edge():
    j_sub, devs, i_sub, project, comm = single_path_composition(FORMULA_B, 1, 1)
    kept = set()
    for m in enumerate_matchings(j_sub, SizeRegime.PERFECT, cap=28):
        rep = blocking_report(j_sub, m, devs)
        if not rep.deviator_pairs:
            kept.add(project(m))
    direct = set()
    for m in enumerate_matchings(i_sub, SizeRegime.PERFECT, cap=16):
        rep = blocking_report(i_sub, m, frozenset(i_sub.agents()))
        if tuple(sorted(comm)) not in rep.blocking_pairs:
            direct.add(m.pairs)
    assert kept == direct
    assert kept  # the correspondence is not vacuous


class TestSmiToSri:
    def test_regime_preconditions(self):
        two_path = Instance(2, ((), (2,), (1,)), (0, 1))
        with pytest.raises(RegimeUnsupported):
            smi_to_sri(problem(two_path, {1}))
        with pytest.raises(RegimeUnsupported):
            smi_to_sri(problem(two_path, {1}, regime=SizeRegime.PERFECT, budget=1))

    def test_two_agent_construction(self):
        two_path = Instance(2, ((), (2,), (1,)), (0, 1))
        out = smi_to_sri(problem(two_path, {1}, regime=SizeRegime.PERFECT, budget=0))
        inst = out.instance
        assert inst.num_agents == 6
        assert inst.sides is None
        assert inst.prefs[1] == (2, 3, 4)
        assert inst.prefs[2] == (1, 5, 6)
        assert inst.prefs[3] == (4, 1)
        assert inst.prefs[4] == (1, 3)
        assert out.deviators == frozenset({1, 3, 4, 5, 6})
        assert out.size_regime is SizeRegime.ANY
        assert out.budget == 0

    def test_companions_never_block_when_owners_matched(self):
        two_path = Instance(2, ((), (2,), (1,)), (0, 1))
        out = smi_to_sri(problem(two_path, {1}, regime=SizeRegime.PERFECT, budget=0))
        m = Matching(frozenset({(1, 2), (3, 4), (5, 6)}))
        rep = blocking_report(out.instance, m, frozenset(out.instance.agents()))
        companions = set(range(3, 7))
        assert all(not (set(pair) & companions) for pair in rep.blocking_pairs)

    def test_yes_answers_correspond(self):
        feasible = Instance(2, ((), (2,), (1,)), (0, 1))
        no_perfect = Instance(3, ((), (3,), (3,), (1, 2)), (0, 0, 1))
        for inst, devs in ((feasible, {1}), (no_perfect, {1, 2, 3})):
            before = problem(inst, devs, regime=SizeRegime.PERFECT)
            after_p = smi_to_sri(
                problem(inst, devs, regime=SizeRegime.PERFECT, budget=0)
            )
            after = problem(after_p.instance, after_p.deviators)
            yes_before = oracle_solve(before).optimum_bp == 0
            yes_after = oracle_solve(after).optimum_bp == 0
            assert yes_before == yes_after

    def test_triples_the_reference_construction(self):
        p, _ = sat_to_perfect_smi(FORMULA_B)
        out = smi_to_sri(p)
        assert out.instance.num_agents == 600
        assert len(out.deviators) == 24 + 400


class TestCompleteLists:
    def test_completion_shape(self):
        two_path = Instance(2, ((), (2,), (1,)), (0, 1))
        mid = smi_to_sri(problem(two_path, {1}, regime=SizeRegime.PERFECT, budget=0))
        out = complete_lists(mid)
        inst = out.instance
        for a in inst.agents():
            assert len(inst.prefs[a]) == inst.num_agents - 1
            prefix = mid.instance.prefs[a]
            assert inst.prefs[a][: len(prefix)] == prefix
            tail = inst.prefs[a][len(prefix):]
            assert list(tail) == sorted(tail)
        assert out.deviators == mid.deviators

    def test_answers_correspond_through_completion(self):
        two_path = Instance(2, ((), (2,), (1,)), (0, 1))
        mid = smi_to_sri(problem(two_path, {1}, regime=SizeRegime.PERFECT, budget=0))
        out = complete_lists(mid)
        before = oracle_solve(problem(mid.instance, mid.deviators)).optimum_bp
        after = oracle_solve(problem(out.instance, out.deviators)).optimum_bp
        assert (before == 0) == (after == 0)

    def test_output_above_the_entry_ceiling_is_refused(self):
        assert 2000 * 1999 <= MAX_LIST_ENTRIES < 2001 * 2000
        with pytest.raises(OutputTooLarge, match="complete lists of 2001 agents"):
            complete_lists(problem(ordered_cycle(2001), {1}))
        with pytest.raises(OutputTooLarge):
            complete_lists(problem(ordered_cycle(30_000), {1}))


def test_zero_answers_survive_the_reductions_on_generated_smi():
    """Seeded SMI draws, n <= 4: the perfect-regime zero answer is the any-regime one.

    After smi_to_sri, and for n <= 3 also after complete_lists of its output.
    """
    answers = set()
    for seed in range(96):
        n = 2 + seed % 3
        fraction = (0.0, 0.34, 0.67, 1.0)[seed // 3 % 4]
        p = generate(GenSpec(n, GenModel.SMI_UNIFORM, list_cap=n, deviator_fraction=fraction,
                             seed=seed))
        before = oracle_solve(replace(p, size_regime=SizeRegime.PERFECT)).optimum_bp == 0
        sri = smi_to_sri(replace(p, size_regime=SizeRegime.PERFECT, budget=0))
        assert (oracle_solve(replace(sri, budget=None)).optimum_bp == 0) == before, seed
        if n <= 3:
            full = complete_lists(sri)
            assert (oracle_solve(replace(full, budget=None)).optimum_bp == 0) == before, seed
        answers.add(before)
    assert answers == {False, True}  # both answers occur, so neither direction is vacuous


class TestMinbaComplete:
    def test_worked_example(self):
        inst = Instance(3, ((), (3,), (3,), (1, 2)), None)
        out = minba_complete(inst, 1)
        assert out.num_agents == 6
        assert out.prefs[1] == (5, 2, 3, 4, 6)
        assert out.prefs[2] == (1, 3, 4, 5, 6)

    def test_worked_example_variant(self):
        inst = Instance(3, ((), (3, 2), (3, 1), (1, 2)), None)
        out = minba_complete(inst, 1)
        assert out.prefs[1] == (5, 3, 2, 4, 6)

    def test_size_identity_and_completeness(self):
        inst = Instance(3, ((), (3,), (3,), (1, 2)), None)
        for k in (0, 1, 2):
            out = minba_complete(inst, k)
            assert out.num_agents == (k + 1) * 3
            for a in out.agents():
                assert len(out.prefs[a]) == out.num_agents - 1

    def test_budget_above_the_agent_count_is_refused(self):
        inst = Instance(2, ((), (2,), (1,)), None)
        assert minba_complete(inst, 2).num_agents == 6
        with pytest.raises(BudgetTooLarge, match="exceeds the 2 agents"):
            minba_complete(inst, 3)
        with pytest.raises(BudgetTooLarge):
            minba_complete(inst, 10**11)

    def test_output_above_the_entry_ceiling_is_refused(self):
        # (k + 1) * n = 10,100 agents, about 10**8 entries
        with pytest.raises(OutputTooLarge, match="complete lists of 10100 agents"):
            minba_complete(ordered_cycle(100), 100)
        assert minba_complete(ordered_cycle(100), 19).num_agents == 2000

    def test_threshold_answers_correspond(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(12):
            n = rng.randint(2, 4)
            spec_pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            chosen = [e for e in spec_pairs if rng.random() < 0.7]
            prefs = [[] for _ in range(n + 1)]
            for i, j in chosen:
                prefs[i].append(j)
                prefs[j].append(i)
            for row in prefs[1:]:
                rng.shuffle(row)
            inst = Instance(n, tuple(tuple(r) for r in prefs), None)
            for k in (0, 1, 2):
                if (k + 1) * n > 9:
                    continue
                out = minba_complete(inst, k)
                all_before = frozenset(inst.agents())
                all_after = frozenset(out.agents())
                before = oracle_solve(
                    problem(inst, all_before, objective=Objective.BLOCKING_AGENTS)
                ).optimum_ba
                after = oracle_solve(
                    problem(out, all_after, objective=Objective.BLOCKING_AGENTS)
                ).optimum_ba
                assert (before <= k) == (after <= k), (inst, k, before, after)
                checked += 1
        assert checked >= 10


def test_unsat_search_script_runs(tmp_path):
    """scripts/search_unsat_balanced.py runs on clause_mask and literal_masks as they are.

    One 0.1 s search for a 6-variable formula, seed 0: it exits 0 and writes
    {n, seed, formulas}; every formula written parses as (2,2)-E3 and has no
    satisfying assignment.
    """
    script = Path(__file__).resolve().parents[1] / "scripts" / "search_unsat_balanced.py"
    out = tmp_path / "out.json"
    subprocess.run([sys.executable, str(script), "6", "1", str(out), "0.1", "0"],
                   capture_output=True, text=True, timeout=120, check=True)
    found = json.loads(out.read_text())
    assert set(found) == {"n", "seed", "formulas"}
    assert (found["n"], found["seed"]) == (6, 0)
    for clauses in found["formulas"]:
        body = "\n".join(" ".join(map(str, c)) + " 0" for c in clauses)
        formula = parse_cnf_22e3(f"p cnf {found['n']} {len(clauses)}\n{body}\n")
        assert satisfying_mask(formula) == 0
