"""The configuration search split into independent parts: metamorphic and differential checks."""

import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from devmatch import fpt
from devmatch.core import Instance, Objective, SizeRegime, verify_solution
from devmatch.fpt import PerfectInfeasible, optimize_fpt, solve_fpt
from devmatch.generators import GenModel, GenSpec, generate
from devmatch.oracle import oracle_solve

from conftest import induce, problem, relabel_instance


def disjoint_union(*problems):
    """The problems' instances side by side, each shifted past the agents before it."""
    prefs, deviators, n = [()], set(), 0
    for q in problems:
        prefs += [tuple(j + n for j in q.instance.prefs[i]) for i in q.instance.agents()]
        deviators |= {d + n for d in q.deviators}
        n += q.instance.num_agents
    return Instance(n, tuple(prefs), None), deviators


def oracle_optimum(p):
    report = oracle_solve(p)
    return report.optimum_bp if p.objective is Objective.BLOCKING_PAIRS else report.optimum_ba


def fpt_optimum(p):
    """optimize_fpt's value after a strict check, or None when no perfect matching exists."""
    try:
        out = optimize_fpt(p)
    except PerfectInfeasible:
        return None
    verify_solution(p, out.matching, out.value, strict=True)
    return out.value


def pieces(max_n):
    return st.builds(
        lambda n, seed, frac, cap, model: generate(
            GenSpec(n=n, model=model, list_cap=cap, deviator_fraction=frac, seed=seed)
        ),
        st.integers(2, max_n),
        st.integers(0, 2**32 - 1),
        st.floats(0.2, 0.7),
        st.integers(1, 3),
        st.sampled_from([GenModel.SRI_UNIFORM, GenModel.SMI_UNIFORM]),
    )


@settings(max_examples=80, deadline=None)
@given(
    a=pieces(6),
    b=pieces(6),
    objective=st.sampled_from(Objective),
    regime=st.sampled_from(SizeRegime),
)
def test_disjoint_union_adds_the_optima(a, b, objective, regime):
    assume(len(a.deviators) <= 4 and len(b.deviators) <= 4)
    optima = [
        oracle_optimum(problem(q.instance, q.deviators, objective, regime)) for q in (a, b)
    ]
    inst, deviators = disjoint_union(a, b)
    joined = fpt_optimum(problem(inst, deviators, objective, regime))
    assert joined == (None if None in optima else sum(optima))


@settings(max_examples=60, deadline=None)
@given(
    q=pieces(10),
    extra=st.integers(1, 3),
    objective=st.sampled_from(Objective),
    regime=st.sampled_from([SizeRegime.ANY, SizeRegime.MAX_CARDINALITY]),
)
def test_isolated_conformists_keep_the_optimum(q, extra, objective, regime):
    assume(len(q.deviators) <= 4)
    n = q.instance.num_agents
    padded = Instance(n + extra, q.instance.prefs + ((),) * extra, None)
    before = fpt_optimum(problem(q.instance, q.deviators, objective, regime))
    assert fpt_optimum(problem(padded, q.deviators, objective, regime)) == before


@settings(max_examples=60, deadline=None)
@given(
    q=pieces(10),
    seed=st.integers(0, 2**32 - 1),
    objective=st.sampled_from(Objective),
    regime=st.sampled_from(SizeRegime),
)
def test_relabelling_keeps_the_optimum(q, seed, objective, regime):
    assume(len(q.deviators) <= 4)
    ids = list(q.instance.agents())
    random.Random(seed).shuffle(ids)
    perm = dict(zip(q.instance.agents(), ids))
    moved = relabel_instance(q.instance, perm)
    before = fpt_optimum(problem(q.instance, q.deviators, objective, regime))
    after = fpt_optimum(problem(moved, {perm[d] for d in q.deviators}, objective, regime))
    assert after == before


@settings(max_examples=120, deadline=None)
@given(
    parts=st.lists(pieces(4), min_size=2, max_size=3),
    objective=st.sampled_from(Objective),
    regime=st.sampled_from(SizeRegime),
)
def test_split_search_matches_the_oracle(parts, objective, regime):
    """Inputs made of several small pieces, so most split into several parts."""
    inst, deviators = disjoint_union(*parts)
    assume(inst.num_agents <= 12)
    p = problem(inst, deviators, objective, regime)
    want = oracle_optimum(p)
    assert fpt_optimum(p) == want
    for k in (0, 1, 2):
        out = solve_fpt(problem(inst, deviators, objective, regime, budget=k))
        assert out.feasible == (want is not None and want <= k)
        if out.feasible:
            verify_solution(
                problem(inst, deviators, objective, regime, budget=k),
                out.matching, out.value, strict=True,
            )
        else:
            assert out.certificate_note == f"fpt-{objective.value}-{regime.value}"


@pytest.mark.parametrize("regime", [SizeRegime.ANY, SizeRegime.MAX_CARDINALITY])
def test_several_parts_are_reported_in_the_note(regime):
    """Two ordered triangles far apart: two parts, each optimal at value 1."""
    tri = problem(Instance(3, ((), (2, 3), (3, 1), (1, 2)), None), {1, 2, 3})
    path = problem(Instance(2, ((), (2,), (1,)), None), set())
    inst, deviators = disjoint_union(tri, path, tri)
    out = optimize_fpt(problem(inst, deviators, regime=regime))
    assert out.value == 2
    assert re.fullmatch(rf"fpt-bp-{regime.value}#\d+\+\d+", out.certificate_note)
    # the deviator-free pair takes part only in the maximum-cardinality regime
    assert ((4, 5) in out.matching.pairs) == (regime is SizeRegime.MAX_CARDINALITY)
    assert not solve_fpt(problem(inst, deviators, regime=regime, budget=1)).feasible


def test_last_part_is_only_decided():
    """Deviator 2 alone, then 4, 5, 6 in one ball, where the budget 1 walk stops at value 1."""
    inst = Instance(6, ((), (), (), (), (6,), (6,), (5, 4)), None)
    out = solve_fpt(problem(inst, {2, 4, 5, 6}, budget=1))
    assert (out.value, out.certificate_note) == (1, "fpt-bp-any#0+1")
    assert optimize_fpt(problem(inst, {2, 4, 5, 6})).value == 0


@settings(max_examples=100, deadline=None)
@given(
    parts=st.lists(pieces(4), min_size=2, max_size=3),
    objective=st.sampled_from(Objective),
    regime=st.sampled_from([SizeRegime.ANY, SizeRegime.MAX_CARDINALITY]),
    k=st.integers(1, 3),
)
def test_budget_solve_optimizes_all_but_the_last_part(parts, objective, regime, k):
    """The last part's index and value are its own walk's at the budget the others leave."""
    inst, deviators = disjoint_union(*parts)
    p = problem(inst, deviators, objective, regime, budget=k)
    sweeps, _ = fpt._parts(p)
    assume(len(sweeps) >= 2)
    earlier = [optimize_fpt(s.problem) for s, _ in sweeps[:-1]]
    left = k - sum(e.value for e in earlier)
    out = solve_fpt(p)
    if left < 0:
        assert not out.feasible
        return
    alone = sweeps[-1][0].search((left,))
    assert out.feasible == (alone is not None)
    if out.feasible:
        assert out.value - (k - left) == alone.value
        indices = [o.certificate_note.rpartition("#")[2] for o in earlier + [alone]]
        index = "0" if set(indices) == {"0"} else "+".join(indices)
        assert out.certificate_note == f"fpt-{objective.value}-{regime.value}#{index}"


def reference_split(p):
    """The parts' agents and the idle agents, by brute force, all ascending.

    Any-size regime: each deviator's distance-two ball by breadth-first
    search, merged while any two overlap, in order of least deviator, and no
    idle agents.  Else the components holding a deviator, in order of least
    deviator, and the other agents idle.
    """
    inst, devs = p.instance, p.deviators

    def reach(d, depth):
        seen, frontier = {d}, {d}
        for _ in range(depth):
            frontier = {j for v in frontier for j in inst.prefs[v]} - seen
            seen |= frontier
        return seen

    if p.size_regime is not SizeRegime.ANY:
        comps = []
        for d in sorted(devs):
            if not any(d in c for c in comps):
                comps.append(reach(d, inst.num_agents))
        covered = set().union(*comps)
        return [sorted(c) for c in comps], [a for a in inst.agents() if a not in covered]
    groups = [reach(d, 2) for d in sorted(devs)]
    merged = True
    while merged:
        merged = False
        for a, b in itertools.combinations(range(len(groups)), 2):
            if groups[a] & groups[b]:
                groups[a] |= groups.pop(b)
                merged = True
                break
    return [sorted(g) for g in sorted(groups, key=lambda g: min(g & devs))], []


def test_split_matches_the_brute_force_reference():
    """Seeded draws in every regime, deviator fractions 0 to 1, list caps from 1."""
    rng = random.Random(16)
    for _ in range(250):
        model = rng.choice(list(GenModel))
        cap = rng.choice([1, 2] if model is GenModel.PATH_CYCLE_ONLY else [1, 2, 3, 4, 5])
        drawn = generate(GenSpec(n=rng.randint(2, 40), model=model, list_cap=cap,
                                 deviator_fraction=rng.choice([0, 0.05, 0.15, 0.3, 0.6, 1]),
                                 seed=rng.getrandbits(32)))
        for regime in SizeRegime:
            inst = Instance(drawn.instance.num_agents, drawn.instance.prefs, drawn.instance.sides)
            p = problem(inst, drawn.deviators, regime=regime)
            sweeps, idle = fpt._parts(p)
            parts = [ids for _, ids in sweeps]
            assert (parts, idle) == reference_split(p)
            for sweep, ids in sweeps:
                assert sweep.problem.instance == induce(inst, ids)
                assert sweep.problem.deviators == {
                    i for i, a in enumerate(ids, 1) if a in drawn.deviators
                }
            # only a part that is the whole instance, whose size is then read, fills a table
            if regime is SizeRegime.ANY or inst.num_agents not in map(len, parts):
                assert len(inst.ranks) == 0
