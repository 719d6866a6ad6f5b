"""Configuration-search solver: enumeration, truncation, extension, end-to-end."""

import itertools
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from devmatch import classic, fpt, solve
from devmatch.core import (
    DeviatorProblem,
    Instance,
    Matching,
    Objective,
    SizeRegime,
    blocking_report,
    objective_value,
    validate_instance,
    verify_solution,
)
from devmatch.fpt import (
    PerfectInfeasible,
    enumerate_configurations,
    extend_via_weighted_matching,
    optimize_fpt,
    solve_bipartite_restriction,
    solve_fpt,
    truncate_and_collect,
)
from devmatch.generators import GenModel, GenSpec, generate
from devmatch.oracle import oracle_solve

from conftest import (
    Unreachable,
    beyond_distance_two,
    configuration,
    full_stream,
    ordered_cycle,
    problem,
    record_list_reads,
    mutual_cut,
    scan,
    variable_gadget,
    with_one_sided_entries,
)

ODD_PATH = Instance(3, ((), (2,), (1, 3), (2,)), None)


class TestEnumeration:
    def test_single_deviator_order_and_indices(self):
        p = problem(ordered_cycle(3), {1}, budget=1)
        got = list(full_stream(p, 1))
        want = [
            (frozenset({(1, 2)}), frozenset()),
            (frozenset({(1, 2)}), frozenset({(1, 3)})),
            (frozenset({(1, 3)}), frozenset()),
            (frozenset({(1, 3)}), frozenset({(1, 2)})),
            (frozenset(), frozenset()),
            (frozenset(), frozenset({(1, 2)})),
            (frozenset(), frozenset({(1, 3)})),
        ]
        assert [(c.candidate_matching.pairs, c.blocked_set) for c in got] == want

    def test_non_matchings_are_discarded(self):
        p = problem(ordered_cycle(3), {1, 2}, budget=0)
        got = [c.candidate_matching.pairs for c in full_stream(p, 0)]
        assert got == [
            frozenset({(1, 2)}),
            frozenset({(1, 3)}),
            frozenset({(2, 3)}),
            frozenset(),
        ]

    def test_agent_objective_pool_is_the_deviators(self):
        p = problem(ordered_cycle(3), {1}, objective=Objective.BLOCKING_AGENTS, budget=1)
        got = [(c.candidate_matching.pairs, c.blocked_set)
               for c in full_stream(p, 1)]
        assert got == [
            (frozenset({(1, 2)}), frozenset()),
            (frozenset({(1, 2)}), frozenset({1})),
            (frozenset({(1, 3)}), frozenset()),
            (frozenset({(1, 3)}), frozenset({1})),
            (frozenset(), frozenset()),
            (frozenset(), frozenset({1})),
        ]


def reference_configurations(p, k):
    """The full stream as the product of deviator choices, filtered afterwards.

    Each deviator's choices are its Instance.mutual entries, then unmatched.
    conftest.full_stream prunes clashes during fpt._walk instead; it must
    yield exactly this list, in this order.  The pool is read off the
    deviators' lists, as fpt._tolerable reads it.
    """
    inst = p.instance
    devs = sorted(p.deviators)
    dev_pos = {d: i for i, d in enumerate(devs)}
    if p.objective is Objective.BLOCKING_PAIRS:
        pool = sorted({(d, r) if d < r else (r, d) for d in devs for r in inst.prefs[d]})
    else:
        pool = devs
    out = []
    for combo in itertools.product(*(inst.mutual[d] + (None,) for d in devs)):
        pairs, used = set(), set()
        for d, choice in zip(devs, combo):
            if choice is None:
                continue
            if choice in dev_pos:
                if combo[dev_pos[choice]] != d:
                    break
                if d < choice:
                    pairs.add((d, choice))
            else:
                if choice in used:
                    break
                used.add(choice)
                pairs.add((d, choice) if d < choice else (choice, d))
        else:
            for size in range(k + 1):
                for blocked in itertools.combinations(pool, size):
                    if p.objective is Objective.BLOCKING_PAIRS and pairs & set(blocked):
                        continue
                    out.append((frozenset(pairs), frozenset(blocked)))
    return out


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    frac=st.floats(0.0, 0.5),
    cap=st.integers(1, 4),
    model=st.sampled_from([GenModel.SRI_UNIFORM, GenModel.SMI_UNIFORM]),
    objective=st.sampled_from(Objective),
    k=st.integers(0, 2),
)
def test_enumeration_matches_product_then_filter(n, seed, frac, cap, model, objective, k):
    prob = generate(GenSpec(n=n, model=model, list_cap=cap, deviator_fraction=frac, seed=seed))
    assume(len(prob.deviators) <= 5)
    p = problem(prob.instance, prob.deviators, objective=objective, budget=k)
    got = [(c.candidate_matching.pairs, c.blocked_set) for c in full_stream(p, k)]
    assert got == reference_configurations(p, k)


class TestTruncation:
    def test_tolerated_matched_pair_is_rejected(self):
        p = problem(ordered_cycle(3), {1, 2, 3}, budget=1)
        cfg = configuration(p, Matching(frozenset({(1, 2)})), {(1, 2)})
        res = truncate_and_collect(p, cfg)
        assert res.rejected
        assert res.reason == "tolerated pair is matched"
        assert res.configuration is cfg

    def test_collects_and_truncates_preferred_agents(self):
        p = problem(ODD_PATH, {2}, budget=0)
        cfg = configuration(p, Matching(frozenset({(2, 3)})))
        res = truncate_and_collect(p, cfg)
        assert not res.rejected
        assert res.cut.keys() == {1}
        assert res.cut == {1: 1}
        assert ODD_PATH.prefs[1][: res.cut[1] - 1] == ()
        assert 2 not in res.cut

    def test_matched_pair_outranked_by_cut(self):
        inst = Instance(4, ((), (3,), (3, 4), (2, 1), (2,)), None)
        p = problem(inst, {1, 2}, budget=0)
        cfg = configuration(p, Matching(frozenset({(1, 3), (2, 4)})))
        res = truncate_and_collect(p, cfg)
        assert res.rejected
        assert res.reason == "matched pair (1, 3) falls to the truncation of 3"
        assert res.cut.keys() == {3}

    def test_tolerated_pair_suppresses_its_cut(self):
        inst = Instance(4, ((), (3,), (3, 4), (2, 1), (2,)), None)
        p = problem(inst, {1, 2}, budget=1)
        cfg = configuration(p, Matching(frozenset({(1, 3), (2, 4)})), {(2, 3)})
        res = truncate_and_collect(p, cfg)
        assert not res.rejected
        assert not res.cut


def test_extension_fails_when_required_agent_cannot_match():
    p = problem(ODD_PATH, {2}, budget=0)
    cfg = configuration(p, Matching(frozenset({(2, 3)})))
    res = truncate_and_collect(p, cfg)
    assert extend_via_weighted_matching(p, res, None) is None


def locked_pairs(p, m_c):
    """The deviator blocking pairs of M_C whose end across from a deviator is matched by M_C.

    Found by the textbook definition, not by core's scan, which _scan reads.
    """
    inst, devs = p.instance, p.deviators

    def prefers(a, b):
        """a ranks b above its partner in M_C, or a is unmatched."""
        lst = inst.prefs[a]
        return not m_c.is_matched(a) or lst.index(b) < lst.index(m_c.partner_of(a))

    return {
        (i, j)
        for i in inst.agents()
        for j in inst.prefs[i]
        if i < j and i in inst.prefs[j] and prefers(i, j) and prefers(j, i)
        and ((i in devs and m_c.is_matched(j)) or (j in devs and m_c.is_matched(i)))
    }


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    frac=st.floats(0.0, 0.5),
    cap=st.integers(1, 4),
    model=st.sampled_from([GenModel.SRI_UNIFORM, GenModel.SMI_UNIFORM]),
    objective=st.sampled_from(Objective),
)
def test_scan_agrees_with_the_blocking_report(n, seed, frac, cap, model, objective):
    """The scan's floor and the truncations that read its triggers, against locked_pairs.

    The floor counts the locked pairs (their deviators under ba); under bp,
    truncation rejects exactly the tolerated sets that leave a locked pair out.
    """
    prob = generate(GenSpec(n=n, model=model, list_cap=cap, deviator_fraction=frac, seed=seed))
    assume(len(prob.deviators) <= 5)
    p = problem(prob.instance, prob.deviators, objective=objective, budget=1)
    for cfg in full_stream(p, 0):
        m_c = cfg.candidate_matching
        locked = locked_pairs(p, m_c)
        if objective is Objective.BLOCKING_AGENTS:
            locked = {a for pair in locked for a in pair} & p.deviators
        assert scan(p, m_c)[1] == len(locked)
    if objective is Objective.BLOCKING_PAIRS:
        for cfg in full_stream(p, 1):
            res = truncate_and_collect(p, cfg)
            assert res.rejected == (not locked_pairs(p, cfg.candidate_matching) <= cfg.blocked_set)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    frac=st.floats(0.0, 0.5),
    cap=st.integers(1, 4),
    model=st.sampled_from([GenModel.SRI_UNIFORM, GenModel.SMI_UNIFORM]),
    objective=st.sampled_from(Objective),
    regime=st.sampled_from(SizeRegime),
    early=st.integers(0, 2),
    stop=st.integers(0, 30),
)
def test_sweep_walks_are_the_floor_filtered_stream(
    n, seed, frac, cap, model, objective, regime, early, stop
):
    """Budgets 0, 1, 2 walked in order on one sweep, as optimize walks them.

    The walk at budget early stops after stop configurations.  Each walk
    yields reference_configurations, the product of deviator choices
    filtered afterwards, less every configuration of a candidate matching
    whose floor exceeds the budget and every tolerated set that is not live,
    in order, each with its candidate's triggers by core's scan.  A live
    set holds the key of every locked trigger and no key but triggers' (a
    key is the canonical pair under bp, the deviator under ba).  A trigger
    (d, r) is locked when it breaks a pair of M_C, or when r is unmatched by
    M_C and ranks d first.  A sweep that is only decided keeps no entries.
    """
    prob = generate(GenSpec(n=n, model=model, list_cap=cap, deviator_fraction=frac, seed=seed))
    assume(len(prob.deviators) <= 5)
    p = problem(prob.instance, prob.deviators, objective, regime)
    sweep = fpt._Sweep(p)

    def key(d, r):
        return ((d, r) if d < r else (r, d)) if objective is Objective.BLOCKING_PAIRS else d

    for k in (0, 1, 2):
        want = []
        for pairs, blocked in reference_configurations(p, k):
            m_c = Matching(pairs)
            triggers, floor = scan(p, m_c)[:2]
            locked = {key(d, r) for d, r, back, breaks in triggers
                      if breaks or (back == 1 and r not in m_c._partner)}
            keys = {key(d, r) for d, r, _, _ in triggers}
            if floor <= k and locked <= blocked <= keys:
                want.append((pairs, blocked, triggers))
        sweep.keep = k < 2
        stream = enumerate_configurations(sweep, k)
        if k == early:
            got = list(itertools.islice(stream, stop))
            stream.close()
            want = want[:stop]
        else:
            got = list(stream)
        assert [(c.candidate_matching.pairs, c.blocked_set, c.triggers) for c in got] == want
    decided = fpt._Sweep(p)
    decided.search((1,))
    assert decided.kept == []


def test_sweep_records_are_the_reference_scan():
    """Every record a sweep walks is its candidate matching's scan by core._triggers (conftest.scan).

    Seeded SRI, SMI and path-cycle draws, n 4-14, list cap 2-4, 1-6
    deviators, each also with 1-3 one-sided entries, in every regime and
    objective: each part's sweep is walked in full, and each record's pairs
    and partner map must be a matching's, and its triggers, floor, locked
    and loose masks those of the reference scan on the part's problem.
    """
    rng = random.Random(20261025)
    checked = dict.fromkeys(itertools.product(SizeRegime, Objective), 0)
    one_sided = 0
    for _ in range(200):
        model = rng.choice(list(GenModel))
        cap = 2 if model is GenModel.PATH_CYCLE_ONLY else rng.randint(2, 4)
        drawn = generate(GenSpec(n=rng.randint(4, 14), model=model, list_cap=cap,
                                 deviator_fraction=rng.uniform(0.2, 0.6), seed=rng.getrandbits(32)))
        if not 1 <= len(drawn.deviators) <= 6:
            continue
        extra = with_one_sided_entries(drawn.instance, rng, rng.randint(1, 3))
        for inst in filter(None, (drawn.instance, extra)):
            for regime, objective in itertools.product(SizeRegime, Objective):
                sweeps, _ = fpt._parts(problem(inst, drawn.deviators, objective, regime))
                for sweep, _ in sweeps:
                    q = sweep.problem
                    for pairs, partner, *scanned in sweep.walk:
                        m_c = Matching(frozenset(pairs))
                        assert (m_c.pairs, m_c._partner) == (frozenset(pairs), partner)
                        assert tuple(scanned) == scan(q, m_c)
                        checked[regime, objective] += 1
                        one_sided += inst is extra
    assert min(checked.values()) >= 1000 and one_sided >= 3000, (checked, one_sided)


def test_an_untolerated_free_first_choice_is_never_extended():
    """The lemma that lets the sweep lock first-choice triggers, over the full stream.

    A trigger (d, r) whose r is unmatched by M_C and ranks d first cuts r's
    list to nothing unless the tolerated set holds its key, yet r must still
    be matched, so truncation or extension rejects every configuration that
    leaves such a key out.  Seeded SRI, SMI and path-cycle draws, n 4-10,
    list cap 2-4, 1-4 deviators, every regime and objective, budget 2.
    """
    rng = random.Random(20261024)
    checked = dict.fromkeys(itertools.product(SizeRegime, Objective), 0)
    draws = 0
    while draws < 60:
        model = rng.choice(list(GenModel))
        cap = 2 if model is GenModel.PATH_CYCLE_ONLY else rng.randint(2, 4)
        drawn = generate(GenSpec(n=rng.randint(4, 10), model=model, list_cap=cap,
                                 deviator_fraction=rng.uniform(0.2, 0.6), seed=rng.getrandbits(32)))
        if not 1 <= len(drawn.deviators) <= 4:
            continue
        draws += 1
        for regime, objective in itertools.product(SizeRegime, Objective):
            p = problem(drawn.instance, drawn.deviators, objective, regime, budget=2)
            by_pairs = objective is Objective.BLOCKING_PAIRS
            target = None if regime is SizeRegime.ANY else classic.max_cardinality_size(p.instance)
            for cfg in full_stream(p, 2):
                m_c = cfg.candidate_matching
                first = {((d, r) if d < r else (r, d)) if by_pairs else d
                         for d, r, back, _ in cfg.triggers if back == 1 and r not in m_c._partner}
                if first <= cfg.blocked_set:
                    continue
                trunc = truncate_and_collect(p, cfg)
                assert trunc.rejected or extend_via_weighted_matching(p, trunc, target) is None
                checked[regime, objective] += 1
    assert min(checked.values()) >= 1000, checked


def test_the_search_stream_gives_the_full_streams_outcomes(monkeypatch):
    """optimize_fpt and solve_fpt give the same outcome on the full stream.

    The outcome is the matching, value, note and each part's accepted
    configuration (candidate matching and tolerated set), so the search's
    stream accepts the configuration the full stream accepts first.

    The reference makes every walk conftest.full_stream of the sweep's
    part, run through truncation and extension in order: no floor skip, no
    live-set or size rule.  Seeded SRI, SMI and path-cycle draws, n 4-16,
    list cap 2-4, 1-7 deviators, every regime, objective and budget None,
    0, 1, 2, 3: 10,020 solves.
    """
    def outcome(p):
        try:
            out = optimize_fpt(p) if p.budget is None else solve_fpt(p)
        except PerfectInfeasible:
            return "no perfect matching"
        return (out.feasible, out.value, out.certificate_note, out.accepted,
                out.matching and out.matching.pairs)

    rng = random.Random(20261020)
    solves = 0
    while solves < 10_000:
        model = rng.choice(list(GenModel))
        cap = 2 if model is GenModel.PATH_CYCLE_ONLY else rng.randint(2, 4)
        prob = generate(GenSpec(n=rng.randint(4, 16), model=model, list_cap=cap,
                                deviator_fraction=rng.uniform(0.1, 0.6), seed=rng.getrandbits(32)))
        if not 1 <= len(prob.deviators) <= 7:
            continue
        for objective, regime, k in itertools.product(Objective, SizeRegime, (None, 0, 1, 2, 3)):
            p = problem(prob.instance, prob.deviators, objective, regime, k)
            got = outcome(p)
            monkeypatch.setattr(fpt, "enumerate_configurations",
                                lambda sweep, k: full_stream(sweep.problem, k))
            want = outcome(p)
            monkeypatch.undo()
            assert got == want, (prob, objective, regime, k)
            solves += 1


def test_accepted_configurations_replay_to_the_outcome():
    """outcome.accepted truncates and extends back to the outcome's matching and value.

    Seeded SRI, SMI and path-cycle draws, n 4-11, list cap 2-4, in every
    regime and objective.  Under optimize_fpt, on any number of parts, the
    value is the sum of the tolerated sets' sizes (an accepted
    configuration's value is its set's size once every smaller budget has
    failed) and each candidate matching lies in the matching.  Where the
    one part is the whole instance, the optimized outcome and those
    decided at budgets 0, 1 and 2 replay: truncate_and_collect and
    extend_via_weighted_matching on the accepted configuration give the
    same matching and value, which verify strictly.
    """
    rng = random.Random(20261023)
    replayed = dict.fromkeys(itertools.product(SizeRegime, Objective), 0)
    for _ in range(200):
        model = rng.choice(list(GenModel))
        cap = 2 if model is GenModel.PATH_CYCLE_ONLY else rng.randint(2, 4)
        drawn = generate(GenSpec(n=rng.randint(4, 11), model=model, list_cap=cap,
                                 deviator_fraction=rng.uniform(0.2, 0.7), seed=rng.getrandbits(32)))
        for regime, objective in itertools.product(SizeRegime, Objective):
            p = problem(drawn.instance, drawn.deviators, objective, regime)
            try:
                out = optimize_fpt(p)
            except PerfectInfeasible:
                continue
            assert out.value == sum(len(blocked) for _, blocked in out.accepted)
            assert all(m_c <= out.matching.pairs for m_c, _ in out.accepted)
            sweeps, _ = fpt._parts(p)
            if len(sweeps) != 1 or sweeps[0][0].problem.instance is not p.instance:
                continue
            target = sweeps[0][0].target
            for k in (None, 0, 1, 2):
                q = replace(p, budget=k)
                got = out if k is None else solve_fpt(q)
                if not got.feasible:
                    assert got.accepted == ()
                    continue
                [(pairs, blocked)] = got.accepted
                m_c = Matching(pairs)
                trunc = truncate_and_collect(q, configuration(q, m_c, blocked))
                m_ext = extend_via_weighted_matching(q, trunc, target)
                assert not trunc.rejected and m_ext is not None
                combined = Matching(m_c.pairs | m_ext.pairs)
                report = blocking_report(q.instance, combined, q.deviators)
                value = objective_value(report, objective)
                assert (combined.pairs, value) == (got.matching.pairs, got.value)
                assert verify_solution(q, got.matching, got.value, strict=True)
            replayed[regime, objective] += 1
    assert min(replayed.values()) >= 20, replayed


def test_trusted_matchings_equal_checked_ones(monkeypatch):
    """Every matching the search builds unchecked is the one Matching(pairs) builds.

    Seeded SRI and SMI draws, n 4-12, half deviators, each also with 1-3
    one-sided entries.  Every matching built through Matching._trusted is
    compared, after the walk or the solve has ended: the candidate matchings
    of the whole problem's stream at budget 1, and what optimize_fpt builds
    in every regime and objective (candidate matchings, extensions, combined
    and joined matchings, the idle agents' maximum matching).
    """
    built = []
    trusted = Matching._trusted

    def recorded(cls, pairs, partner):
        built.append(trusted(pairs, partner))
        return built[-1]

    monkeypatch.setattr(Matching, "_trusted", classmethod(recorded))
    rng = random.Random(20261020)
    seen = 0
    for seed in range(40):
        for model in (GenModel.SRI_UNIFORM, GenModel.SMI_UNIFORM):
            drawn = generate(GenSpec(n=rng.randint(4, 12), model=model, list_cap=rng.randint(2, 4),
                                     deviator_fraction=0.5, seed=seed))
            one_sided = with_one_sided_entries(drawn.instance, rng, rng.randint(1, 3))
            for inst in filter(None, (drawn.instance, one_sided)):
                list(enumerate_configurations(fpt._Sweep(problem(inst, drawn.deviators)), 1))
                for regime, objective in itertools.product(SizeRegime, Objective):
                    try:
                        optimize_fpt(problem(inst, drawn.deviators, objective, regime))
                    except PerfectInfeasible:
                        pass
                assert built
                for m in built:
                    checked = Matching(m.pairs)
                    assert (m.pairs, m._partner) == (checked.pairs, checked._partner)
                    seen += bool(m.pairs)
                built.clear()
    assert seen > 1000


def test_trusted_parts_and_budgets_equal_checked_ones(monkeypatch):
    """Every sub-instance and per-budget problem the search builds unchecked is the checked one.

    Seeded SRI and SMI draws, n 6-16, validated, each also with 1-3
    one-sided entries.  Every Instance._trusted build (the parts and idle
    agents _restrict cuts under optimize_fpt and solve_fpt in every regime
    and objective, and the zero certificate's H) equals Instance(...) of its
    lists and is marked all mutual: a cut's lists are its whole's mutual
    lists relabelled, and H's are those of the deviators' neighbourhood
    less the edges that touch no deviator.  Every part's problem
    (DeviatorProblem._trusted) and every budget's equals DeviatorProblem(...)
    of its fields.
    """
    subs, budgets, cuts = [], [], []
    trusted, with_budget = Instance._trusted, DeviatorProblem._with_budget
    trusted_problem = DeviatorProblem._trusted
    restrict = fpt._restrict

    def sub(cls, *args, **kwargs):
        subs.append(trusted(*args, **kwargs))
        return subs[-1]

    def cut(inst, agents):
        cuts.append((agents, restrict(inst, agents)))
        return cuts[-1][1]

    def at(self, k):
        budgets.append(with_budget(self, k))
        return budgets[-1]

    def part(cls, *args):
        budgets.append(trusted_problem(*args))
        return budgets[-1]

    monkeypatch.setattr(Instance, "_trusted", classmethod(sub))
    monkeypatch.setattr(DeviatorProblem, "_with_budget", at)
    monkeypatch.setattr(DeviatorProblem, "_trusted", classmethod(part))
    monkeypatch.setattr(fpt, "_restrict", cut)
    rng = random.Random(20261021)
    seen = [0, 0]
    for seed in range(30):
        for model in (GenModel.SRI_UNIFORM, GenModel.SMI_UNIFORM):
            drawn = generate(GenSpec(n=rng.randint(6, 16), model=model, list_cap=rng.randint(2, 4),
                                     deviator_fraction=0.3, seed=seed))
            validate_instance(drawn.instance)
            one_sided = with_one_sided_entries(drawn.instance, rng, rng.randint(1, 3))
            for inst in filter(None, (drawn.instance, one_sided)):
                for regime, objective in itertools.product(SizeRegime, Objective):
                    for budget in (None, 1):
                        try:
                            solve(problem(inst, drawn.deviators, objective, regime, budget), "fpt")
                        except PerfectInfeasible:
                            pass
                solve_bipartite_restriction(problem(inst, drawn.deviators))
                for part in subs:
                    checked = Instance(part.num_agents, part.prefs, part.sides)
                    assert part == checked
                    assert part._all_mutual
                for agents, part in cuts:
                    assert part is inst or part.prefs == mutual_cut(inst, agents)
                devs = drawn.deviators
                near = sorted(devs.union(*(inst.prefs[d] for d in devs)))
                assert subs[-1].prefs == mutual_cut(inst, near, devs)
                for q in budgets:
                    assert q == DeviatorProblem(q.instance, q.deviators, q.objective,
                                                q.size_regime, q.budget)
                seen[0] += len(subs)
                seen[1] += len(budgets)
                subs.clear()
                budgets.clear()
                cuts.clear()
    assert min(seen) > 500, seen


class TestSolveFpt:
    def test_requires_budget(self):
        with pytest.raises(ValueError):
            solve_fpt(problem(ordered_cycle(3), {1}))

    def test_odd_path_zero_budget(self):
        out = solve_fpt(problem(ODD_PATH, {2}, budget=0))
        assert out.feasible
        assert out.matching.pairs == frozenset({(1, 2)})
        assert out.value == 0
        assert out.certificate_note == "fpt-bp-any"
        assert out.accepted == ((frozenset({(1, 2)}), frozenset()),)

    def test_ordered_cycle_budgets(self):
        infeasible = solve_fpt(problem(ordered_cycle(3), {1, 2, 3}, budget=0))
        assert not infeasible.feasible
        assert infeasible.certificate_note == "fpt-bp-any" and infeasible.accepted == ()
        feasible = solve_fpt(problem(ordered_cycle(3), {1, 2, 3}, budget=1))
        assert feasible.feasible and feasible.value <= 1
        assert feasible.certificate_note == "fpt-bp-any" and len(feasible.accepted) == 1
        verify_solution(
            problem(ordered_cycle(3), {1, 2, 3}, budget=1),
            feasible.matching, feasible.value, strict=True,
        )

    def test_perfect_precheck_on_odd_instance(self):
        p = problem(ordered_cycle(3), {1}, regime=SizeRegime.PERFECT, budget=3)
        out = solve_fpt(p)
        assert not out.feasible
        assert out.certificate_note == "fpt-bp-perfect"

    def test_gadget_perfect_zero(self):
        p = problem(variable_gadget(), {1, 5}, regime=SizeRegime.PERFECT, budget=0)
        out = solve_fpt(p)
        assert out.feasible and out.value == 0
        assert out.certificate_note == "fpt-bp-perfect"
        [(m_c, blocked)] = out.accepted
        assert m_c <= out.matching.pairs and blocked == frozenset()


class TestOptimize:
    def test_rejects_budgeted_problem(self):
        with pytest.raises(ValueError):
            optimize_fpt(problem(ordered_cycle(3), {1}, budget=0))

    def test_ordered_cycle_optima(self):
        out = optimize_fpt(problem(ordered_cycle(3), {1, 2, 3}))
        assert out.value == 1
        out = optimize_fpt(
            problem(ordered_cycle(3), {1, 2, 3}, objective=Objective.BLOCKING_AGENTS)
        )
        assert out.value == 2

    def test_perfect_on_odd_instance_raises(self):
        with pytest.raises(PerfectInfeasible):
            optimize_fpt(problem(ordered_cycle(3), {1}, regime=SizeRegime.PERFECT))


class TestBipartiteRestriction:
    def test_checks_arguments(self):
        with pytest.raises(ValueError):
            solve_bipartite_restriction(
                problem(ODD_PATH, {2}, regime=SizeRegime.MAX_CARDINALITY)
            )

    def test_odd_deviator_core_is_not_applicable(self):
        assert solve_bipartite_restriction(problem(ordered_cycle(3), {1, 2, 3})) is None

    def test_path_core(self):
        m = solve_bipartite_restriction(problem(ODD_PATH, {2}))
        assert m is not None
        rep = blocking_report(ODD_PATH, m, frozenset({2}))
        assert rep.deviator_pairs == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 14))
    def test_sided_instances_always_applicable(self, seed, n):
        prob = generate(GenSpec(n=n, model=GenModel.SMI_UNIFORM, list_cap=3,
                                deviator_fraction=0.5, seed=seed))
        m = solve_bipartite_restriction(prob)
        assert m is not None
        rep = blocking_report(prob.instance, m, prob.deviators)
        assert rep.deviator_pairs == frozenset()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        model=st.sampled_from([GenModel.SRI_UNIFORM, GenModel.SMI_UNIFORM]),
        list_cap=st.integers(1, 5),
        fraction=st.floats(0, 0.6),
    )
    def test_certificate_against_the_oracle(self, seed, n, model, list_cap, fraction):
        """A certified draw has optimum 0 under both objectives, and auto returns it."""
        drawn = generate(GenSpec(n=n, model=model, list_cap=list_cap,
                                 deviator_fraction=fraction, seed=seed))
        inst, devs = drawn.instance, drawn.deviators
        if solve_bipartite_restriction(problem(inst, devs)) is None:
            return
        report = oracle_solve(problem(inst, devs))
        assert report.optimum_bp == report.optimum_ba == 0
        for objective in Objective:
            for budget in (None, 0, 1):
                p = problem(inst, devs, objective, budget=budget)
                out = solve(p)
                assert out.value == 0
                assert verify_solution(p, out.matching, 0, strict=True)


def widened_certificate(p):
    """Irving's algorithm on H': the agents of H with every edge among them.

    H (solve_bipartite_restriction) keeps only the edges that touch a
    deviator; H' keeps the conformist-conformist edges too.
    """
    prefs, devs = p.instance.prefs, p.deviators
    agents = sorted(devs.union(*(prefs[d] for d in devs)))
    new = {a: i for i, a in enumerate(agents, start=1)}
    h = ((),) + tuple(tuple(new[j] for j in prefs[a] if j in new) for a in agents)
    try:
        m = classic.irving_sr(Instance(len(agents), h))
    except classic.Unsolvable:
        return None
    return Matching(frozenset((agents[i - 1], agents[j - 1]) for i, j in m.pairs))


def test_zero_certificate_stays_sound_on_a_wider_graph():
    """A stable matching of H', mapped back, verifies at value 0 under both objectives.

    Every deviator blocking pair is an edge of H' ranked as in the problem,
    so the certificate's argument holds for H' as for H.  On these 400
    seeded SRI draws (n 8-14, list cap 3-5) H certifies 387 and H' 354;
    H' certifies 4 draws that H does not.
    """
    rng = random.Random(20261019)
    certified = {"H": 0, "H'": 0}
    for seed in range(400):
        drawn = generate(GenSpec(n=rng.randint(8, 14), list_cap=rng.randint(3, 5),
                                 deviator_fraction=rng.uniform(0.2, 0.6), seed=seed))
        p = problem(drawn.instance, drawn.deviators)
        certified["H"] += solve_bipartite_restriction(p) is not None
        m = widened_certificate(p)
        if m is None:
            continue
        certified["H'"] += 1
        for objective in Objective:
            assert verify_solution(replace(p, objective=objective), m, 0, strict=True)
    assert 0 < certified["H'"] < certified["H"]


def test_certified_solve_reads_only_the_deviators_and_their_neighbours():
    """The zero certificate reads no rank table beyond the deviators' lists."""
    drawn = generate(GenSpec(n=400, list_cap=4, deviator_fraction=0.0, seed=3))
    devs = frozenset({5, 150, 333})
    near = devs.union(*(drawn.instance.prefs[d] for d in devs))
    for objective in Objective:
        for budget in (0, 1, None):
            inst = Instance(drawn.instance.num_agents, drawn.instance.prefs)
            # auto reads every list's length, once, to rule out the shortlist engine
            assert inst.d_max == 4
            read = record_list_reads(inst)
            out = solve(problem(inst, devs, objective, budget=budget))
            assert read <= near
            assert (out.value, out.certificate_note) == (0, "bipartite-restriction")


def test_any_regime_reads_only_nearby_lists():
    """The any-size solve must never look past distance two from a deviator."""
    prefs = [()]
    n = 20
    for i in range(1, n + 1):
        row = tuple(j for j in (i - 1, i + 1) if 1 <= j <= n)
        prefs.append(row if i != 1 else (2,))
    for objective in Objective:
        for budget in (None, 0, 1):
            inst = Instance(n, tuple(prefs), None)
            read = record_list_reads(inst)
            p = problem(inst, {1}, objective, budget=budget)
            out = optimize_fpt(p) if budget is None else solve_fpt(p)
            assert out.feasible
            assert read <= {1, 2, 3}


@pytest.mark.parametrize("seed", range(6))
def test_any_regime_reads_no_list_beyond_distance_two(seed):
    """Split, search and join read no list at distance three or more, whatever the parts."""
    drawn = generate(GenSpec(n=60, list_cap=3, deviator_fraction=0.1, seed=seed))
    devs = drawn.deviators
    for objective in Objective:
        for budget in (None, 0, 1):
            inst = Instance(drawn.instance.num_agents, drawn.instance.prefs)
            far = beyond_distance_two(inst, devs)
            read = record_list_reads(inst)
            p = problem(inst, devs, objective, budget=budget)
            out = optimize_fpt(p) if budget is None else solve_fpt(p)
            assert far and read and read.isdisjoint(far)
            if out.feasible:
                verify_solution(p, out.matching, out.value, strict=True)


def triangles_and_path(c, m):
    """c all-deviator ordered 3-cycles (agents 1..3c) plus a conformist path of m."""
    prefs = [()]
    for t in range(c):
        a = 3 * t + 1
        prefs += [(a + 1, a + 2), (a + 2, a), (a, a + 1)]
    path = range(3 * c + 1, 3 * c + m + 1)
    for i in path:
        prefs.append(tuple(j for j in (i - 1, i + 1) if j in path))
    return problem(Instance(3 * c + m, tuple(prefs), None), range(1, 3 * c + 1))


def test_search_cost_does_not_grow_with_the_padding(monkeypatch):
    """One sub-instance per triangle and no per-configuration copy; no list read beyond them.

    Parts are cut with Instance._trusted, so that is what is counted.
    """
    original = Instance._trusted
    inits = 0

    def counted(cls, *args, **kwargs):
        nonlocal inits
        inits += 1
        return original(*args, **kwargs)

    results = []
    for m in (20, 2000):
        p = triangles_and_path(3, m)
        read = record_list_reads(p.instance)
        inits = 0
        monkeypatch.setattr(Instance, "_trusted", classmethod(counted))
        out = optimize_fpt(p)
        monkeypatch.undo()
        assert inits == 3
        assert read <= set(range(1, 10))
        results.append((out.value, out.certificate_note, len(read)))
    assert results[0] == results[1]
    assert results[0][0] == 3


def connected_triangles(c, m):
    """triangles_and_path(c, m) with each triangle agent also accepting one path agent.

    Triangle agent i and path agent 3c + i rank each other last, so m >= 3c
    path agents are needed.  Neighbouring triangles are three edges apart,
    so their distance-two balls overlap and the deviators form one group in
    one connected component.  The optimum is c under bp and 2c under ba.
    """
    assert m >= 3 * c
    prefs = [()]
    for t in range(c):
        a = 3 * t + 1
        for s, own in enumerate(((a + 1, a + 2), (a + 2, a), (a, a + 1))):
            prefs.append(own + (a + s + 3 * c,))
    path = range(3 * c + 1, 3 * c + m + 1)
    for i in path:
        near = tuple(j for j in (i - 1, i + 1) if j in path)
        prefs.append(near + ((i - 3 * c,) if i <= 6 * c else ()))
    return problem(Instance(3 * c + m, tuple(prefs), None), range(1, 3 * c + 1))


@pytest.mark.parametrize("c, m", [(1, 3), (1, 5), (2, 6)])
def test_connected_triangles_optimum(c, m):
    p = connected_triangles(c, m)
    assert len(fpt._parts(p)[0]) == 1
    for regime in SizeRegime:
        report = oracle_solve(replace(p, size_regime=regime))
        assert (report.optimum_bp, report.optimum_ba) == (c, 2 * c)


# Values and accepted tolerated sets of the search before it split problems
# into parts (its notes' configurations #25 under bp and #54 under ba), the
# candidate matching being CONNECTED_2_6_PAIRS; a problem with one part must
# still give exactly these.  In the any-size regime the extension matches
# only what covering the must-match agents needs, so the path pairs are
# left out there.
CONNECTED_2_6 = {"bp": (2, {(2, 3), (5, 6)}), "ba": (4, {2, 3, 5, 6})}
CONNECTED_2_6_PAIRS = ((1, 2), (3, 9), (4, 5), (6, 12))
CONNECTED_2_6_PATH = ((7, 8), (10, 11))


@pytest.mark.parametrize("regime", list(SizeRegime))
@pytest.mark.parametrize("objective", list(Objective))
def test_one_part_outcome_is_unchanged(regime, objective):
    p = replace(connected_triangles(2, 6), objective=objective, size_regime=regime)
    out = optimize_fpt(p)
    value, blocked = CONNECTED_2_6[objective.value]
    assert out.value == value
    assert out.certificate_note == f"fpt-{objective.value}-{regime.value}"
    assert out.accepted == ((frozenset(CONNECTED_2_6_PAIRS), frozenset(blocked)),)
    pairs = CONNECTED_2_6_PAIRS + (() if regime is SizeRegime.ANY else CONNECTED_2_6_PATH)
    assert tuple(sorted(out.matching.pairs)) == pairs
    assert verify_solution(p, out.matching, value, strict=True)


# The same problem decided at budgets 2, 3 and 4 by the search before it
# split problems into parts, in both regimes: under bp the walk stops at
# the optimum's configuration, under ba only budget 4 reaches the optimum.
CONNECTED_2_6_DECIDED = {
    ("bp", 2): CONNECTED_2_6["bp"], ("bp", 3): CONNECTED_2_6["bp"], ("bp", 4): CONNECTED_2_6["bp"],
    ("ba", 2): None, ("ba", 3): None, ("ba", 4): CONNECTED_2_6["ba"],
}


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("regime", [SizeRegime.ANY, SizeRegime.MAX_CARDINALITY])
@pytest.mark.parametrize("objective", list(Objective))
def test_one_part_budget_outcome_is_unchanged(regime, objective, k):
    p = replace(connected_triangles(2, 6), objective=objective, size_regime=regime, budget=k)
    out = solve_fpt(p)
    tag = f"fpt-{objective.value}-{regime.value}"
    want = CONNECTED_2_6_DECIDED[objective.value, k]
    if want is None:
        assert not out.feasible and out.certificate_note == tag
        return
    value, blocked = want
    assert (out.value, out.certificate_note) == (value, tag)
    assert out.accepted == ((frozenset(CONNECTED_2_6_PAIRS), frozenset(blocked)),)
    pairs = CONNECTED_2_6_PAIRS + (() if regime is SizeRegime.ANY else CONNECTED_2_6_PATH)
    assert tuple(sorted(out.matching.pairs)) == pairs
    assert verify_solution(p, out.matching, value, strict=True)


@pytest.mark.parametrize("regime", list(SizeRegime))
@pytest.mark.parametrize("objective, walked", [(Objective.BLOCKING_PAIRS, 1),
                                               (Objective.BLOCKING_AGENTS, 28)])
def test_connected_triangles_truncate_only_what_can_be_extended(monkeypatch, regime, objective,
                                                                walked):
    """optimize_fpt on ct(3, 9) truncates 1 configuration under bp and 28 under ba.

    Every tolerated set the sweep yields holds each free first-choice
    trigger's key, so none of them is cut away and every truncation goes on
    to an extension.  A sweep that left those keys loose would truncate 551
    and 4,778.
    """
    truncate, extend = fpt.truncate_and_collect, fpt.extend_via_weighted_matching
    calls = {"truncate": 0, "extend": 0}

    def counted_truncate(*args):
        calls["truncate"] += 1
        return truncate(*args)

    def counted_extend(*args):
        calls["extend"] += 1
        return extend(*args)

    monkeypatch.setattr(fpt, "truncate_and_collect", counted_truncate)
    monkeypatch.setattr(fpt, "extend_via_weighted_matching", counted_extend)
    p = replace(connected_triangles(3, 9), objective=objective, size_regime=regime)
    out = optimize_fpt(p)
    assert out.value == (3 if objective is Objective.BLOCKING_PAIRS else 6)
    assert calls == {"truncate": walked, "extend": walked}


def triangles_2_6():
    return connected_triangles(2, 6)


def sri_60():
    """A generated SRI with 6 deviators and a perfect matching."""
    return generate(GenSpec(n=60, list_cap=4, deviator_fraction=0.1, seed=0))


@pytest.mark.parametrize("build", [triangles_2_6, sri_60])
@pytest.mark.parametrize("regime", list(SizeRegime))
def test_configuration_search_reaches_no_networkx(monkeypatch, build, regime):
    """optimize_fpt and solve_fpt at k = 0, 1 extend configurations without networkx."""
    extend = fpt.extend_via_weighted_matching
    calls = []

    def counted(*args):
        calls.append(args)
        return extend(*args)

    monkeypatch.setitem(sys.modules, "networkx", Unreachable())
    monkeypatch.setattr(fpt, "extend_via_weighted_matching", counted)
    p = replace(build(), size_regime=regime)
    optimize_fpt(p)
    for k in (0, 1):
        solve_fpt(replace(p, budget=k))
    assert calls


def test_budgets_of_one_optimize_share_their_work(monkeypatch):
    """One maximum-matching size per optimize search; a failed extension is not redone."""
    p = replace(connected_triangles(2, 6), size_regime=SizeRegime.MAX_CARDINALITY)
    sizes = []
    keys = []
    size_of = fpt.max_cardinality_size
    extend = fpt.extend_via_weighted_matching

    def counted_size(inst):
        sizes.append(inst)
        return size_of(inst)

    def counted_extend(prob, trunc, target):
        cfg = trunc.configuration
        keys.append((cfg.candidate_matching.pairs, tuple(sorted(trunc.cut.items()))))
        return extend(prob, trunc, target)

    monkeypatch.setattr(fpt, "max_cardinality_size", counted_size)
    monkeypatch.setattr(classic, "max_cardinality_size", counted_size)
    monkeypatch.setattr(fpt, "extend_via_weighted_matching", counted_extend)
    out = optimize_fpt(p)
    assert out.value == 2
    # once for the whole search, once in verify_solution on the accepted matching
    assert len(sizes) == 2
    # only the accepted extension may have been tried under a smaller budget
    assert len(keys) - len(set(keys)) <= 1


def test_split_search_sizes_only_the_deviator_components(monkeypatch):
    """Each triangle is searched alone; no maximum-matching size of the whole instance."""
    p = replace(triangles_and_path(2, 6), size_regime=SizeRegime.MAX_CARDINALITY)
    sizes = []
    size_of = fpt.max_cardinality_size

    def counted_size(inst):
        sizes.append(inst.num_agents)
        return size_of(inst)

    monkeypatch.setattr(fpt, "max_cardinality_size", counted_size)
    monkeypatch.setattr(classic, "max_cardinality_size", counted_size)
    out = optimize_fpt(p)
    assert (out.value, out.certificate_note) == (2, "fpt-bp-max")
    assert out.accepted == ((frozenset({(1, 2)}), frozenset({(2, 3)})),
                            (frozenset({(4, 5)}), frozenset({(5, 6)})))
    assert len(out.matching.pairs) == 2 + 3
    assert 0 < len(sizes) <= 2 * 2
    assert set(sizes) == {3}


def test_walk_over_a_thousand_deviators_reaches_configuration_zero():
    """500 mutual first-choice pairs, all deviators: stable at the first configuration."""
    prefs = [()]
    for a in range(1, 1001, 2):
        prefs += [(a + 1,), (a,)]
    p = problem(Instance(1000, tuple(prefs), None), range(1, 1001), budget=0)
    first = next(enumerate_configurations(fpt._Sweep(p), 0))
    assert first.candidate_matching.pairs == frozenset((a, a + 1) for a in range(1, 1001, 2))
    out = solve_fpt(p)
    assert out.value == 0
    # each mutual pair is a part of its own, accepted with nothing tolerated
    assert out.accepted == tuple((frozenset({(a, a + 1)}), frozenset()) for a in range(1, 1001, 2))


def test_a_self_entry_is_not_a_walk_option():
    """Deviator 1 ranks itself and 2: its part walks 2 candidate matchings, not 3.

    A self entry counts as absent, as a one-sided entry does, so the walk
    tries 2, then unmatched, and does not read 1 as a second unmatched.
    """
    inst = Instance(3, ((), (1, 2), (1,), ()))
    assert inst.mutual[1] == (2,)
    [(sweep, ids)] = fpt._parts(problem(inst, {1}))[0]
    assert ids == [1, 2] and sweep.problem.instance.prefs == ((), (2,), (1,))
    assert [pairs for pairs, *_ in fpt._Sweep(problem(inst, {1})).walk] == [((1, 2),), ()]


def fpt_problems():
    return st.builds(
        lambda n, seed, frac, cap: generate(
            GenSpec(n=n, list_cap=cap, deviator_fraction=frac, seed=seed)
        ),
        st.integers(0, 8),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.6),
        st.integers(1, 4),
    )


@settings(max_examples=120, deadline=None)
@given(
    prob=fpt_problems(),
    objective=st.sampled_from(Objective),
    regime=st.sampled_from(SizeRegime),
    k=st.integers(0, 3),
)
def test_matches_oracle(prob, objective, regime, k):
    assume(len(prob.deviators) <= 4)
    p = problem(prob.instance, prob.deviators, objective=objective, regime=regime)
    report = oracle_solve(p)
    want = report.optimum_bp if objective is Objective.BLOCKING_PAIRS else report.optimum_ba

    out = solve_fpt(problem(prob.instance, prob.deviators, objective=objective,
                            regime=regime, budget=k))
    if want is None or want > k:
        assert not out.feasible
    else:
        assert out.feasible and out.value <= k
        verify_solution(p, out.matching, out.value, strict=True)

    if want is None:
        with pytest.raises(PerfectInfeasible):
            optimize_fpt(p)
    else:
        best = optimize_fpt(p)
        assert best.value == want
        verify_solution(p, best.matching, best.value, strict=True)


@settings(max_examples=120, deadline=None)
@given(
    prob=fpt_problems(),
    objective=st.sampled_from(Objective),
    regime=st.sampled_from(SizeRegime),
    k=st.integers(0, 2),
)
def test_an_extended_configuration_costs_at_most_its_tolerated_set(prob, objective, regime, k):
    """The lemma the stream rules rest on, over the full stream.

    A configuration whose truncation survives and whose extension exists
    has value at most |B|: every deviator blocking pair of the result is a
    trigger, and a trigger B does not tolerate is rejected or cut away.
    """
    assume(len(prob.deviators) <= 4)
    p = problem(prob.instance, prob.deviators, objective=objective, regime=regime, budget=k)
    target = None if regime is SizeRegime.ANY else classic.max_cardinality_size(p.instance)
    for cfg in full_stream(p, k):
        trunc = truncate_and_collect(p, cfg)
        m_ext = None if trunc.rejected else extend_via_weighted_matching(p, trunc, target)
        if m_ext is not None:
            combined = Matching(cfg.candidate_matching.pairs | m_ext.pairs)
            report = blocking_report(p.instance, combined, p.deviators)
            assert objective_value(report, objective) <= len(cfg.blocked_set)
