"""The Q-first extension against the weighted-matching extension it replaced."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from devmatch import fpt
from devmatch.classic import (
    WeightedGraph,
    covering_matching,
    max_cardinality_size,
    max_weight_matching,
)
from devmatch.core import Instance, Matching, Objective, SizeRegime
from devmatch.fpt import (
    CandidateConfiguration,
    enumerate_configurations,
    extend_via_weighted_matching,
    truncate_and_collect,
)
from devmatch.generators import GenModel, GenSpec, generate

from conftest import problem, scan

_UNRANKED = 1 << 30


def ball(p):
    """The agents of p's parts: those within distance two of a deviator in the any-size regime."""
    return {a for _, ids in fpt._parts(p)[0] for a in ids}


def weighted_extension(p, trunc, target_size):
    """The extension as one networkx weighted matching, weights n + |e ∩ Q|.

    Kept here as the reference: the same vertex set and cut-filtered edges
    as the native extension, maximum cardinality first and Q coverage
    second by the weights (|e ∩ Q| alone without a target size).
    """
    inst = p.instance
    n = inst.num_agents
    cut = trunc.cut
    m_c = trunc.configuration.candidate_matching
    matched = m_c.matched_agents()
    q = trunc.cut.keys()
    for r in q:
        if r not in matched and cut[r] == 1:
            return None
    if target_size is None:
        base = 0
        vertices = sorted(v for v in ball(p) if v not in matched)
    else:
        base = n
        vertices = [v for v in inst.agents() if v not in matched]
    vset = set(vertices)
    edges = []
    for i in vertices:
        stop = cut.get(i)
        own = inst.prefs[i]
        for j in own if stop is None else own[: stop - 1]:
            if i < j and j in vset:
                back = inst.ranks[j].get(i)
                if back is not None and back < cut.get(j, _UNRANKED):
                    edges.append((i, j, base + (i in q) + (j in q)))
    m_mw = max_weight_matching(WeightedGraph(frozenset(vertices), tuple(edges)))
    for r in q:
        if r not in matched and not m_mw.is_matched(r):
            return None
    if target_size is not None and len(m_c.pairs) + len(m_mw.pairs) < target_size:
        return None
    return m_mw


def extended_problems(p):
    """The problems the solver extends on: each part's ball sub-problem in the any-size regime."""
    if p.size_regime is SizeRegime.ANY:
        return [replace(sweep.problem, budget=p.budget) for sweep, _ in fpt._parts(p)[0]]
    return [p]


def survives_cut(p, trunc, i, j) -> bool:
    ranks, cut = p.instance.ranks, trunc.cut
    return all(
        b in ranks[a] and ranks[a][b] < cut.get(a, _UNRANKED) for a, b in ((i, j), (j, i))
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 14),
    cap=st.integers(2, 4),
    model=st.sampled_from([GenModel.SRI_UNIFORM, GenModel.SMI_UNIFORM]),
    objective=st.sampled_from(list(Objective)),
    regime=st.sampled_from(list(SizeRegime)),
    k=st.integers(0, 1),
)
def test_native_extension_agrees_with_the_weighted_one(seed, n, cap, model, objective, regime, k):
    base = generate(GenSpec(n=n, model=model, list_cap=cap, deviator_fraction=0.3, seed=seed))
    for p in extended_problems(replace(base, objective=objective, size_regime=regime, budget=k)):
        check_extensions(p, k)


def check_extensions(p, k):
    target = None if p.size_regime is SizeRegime.ANY else max_cardinality_size(p.instance)
    near = ball(p)
    for cfg in enumerate_configurations(p, k):
        triggers = scan(p, cfg.candidate_matching)[0]
        trunc = truncate_and_collect(p, cfg, triggers)
        if trunc.rejected:
            continue
        reference = weighted_extension(p, trunc, target)
        native = extend_via_weighted_matching(p, trunc, target)
        assert (native is None) == (reference is None)
        if native is None:
            continue
        m_c = cfg.candidate_matching
        taken = m_c.matched_agents()
        assert len(native.matched_agents()) == 2 * len(native.pairs)
        assert not native.matched_agents() & taken
        assert all(survives_cut(p, trunc, i, j) for i, j in native.pairs)
        assert all(native.is_matched(r) for r in trunc.cut.keys() - taken)
        if target is None:
            assert native.matched_agents() <= near
        else:
            assert len(native.pairs) == len(reference.pairs)
            assert len(m_c.pairs | native.pairs) >= target


def test_nothing_to_cover_needs_no_matching_without_a_target(monkeypatch):
    """An any-regime configuration with no must-match agent extends by the empty matching.

    On the path 1-2-3-4 with deviator 2 matched to its first choice 1,
    nothing is cut.  Without a target the extension is empty and no
    covering_matching runs; in the max regime it still runs, and matches
    3 with 4 to reach the maximum size.
    """
    calls = []

    def counted(adj, must, maximum):
        calls.append(maximum)
        return covering_matching(adj, must, maximum)

    monkeypatch.setattr(fpt, "covering_matching", counted)
    inst = Instance(4, ((), (2,), (1, 3), (2, 4), (3,)))
    for regime, target, want in (
        (SizeRegime.ANY, None, frozenset()),
        (SizeRegime.MAX_CARDINALITY, 2, frozenset({(3, 4)})),
    ):
        p = problem(inst, {2}, regime=regime, budget=0)
        cfg = CandidateConfiguration(Matching(frozenset({(1, 2)})), frozenset(), 0)
        trunc = truncate_and_collect(p, cfg, scan(p, cfg.candidate_matching)[0])
        assert trunc.cut == {} and not trunc.rejected
        m_ext = extend_via_weighted_matching(p, trunc, target)
        assert (m_ext.pairs, m_ext._partner) == (want, Matching(want)._partner)
    assert calls == [True]

