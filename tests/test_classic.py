"""Classical subroutines: Gale-Shapley, Irving's algorithm, matchings on graphs."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmatch import classic
from devmatch.classic import (
    NotBipartite,
    Unsolvable,
    WeightedGraph,
    gale_shapley,
    irving_sr,
    matching_weight,
    max_cardinality_matching,
    max_cardinality_size,
    max_weight_matching,
)
from devmatch.core import Instance, blocking_report
from devmatch.generators import GenModel, GenSpec, generate
from devmatch.oracle import oracle_solve

from conftest import ordered_cycle, problem, relabel_instance, variable_gadget


def brute_force_best_weight(graph: WeightedGraph) -> int:
    """Maximum matching weight by trying every subset of edges."""
    best = 0
    edges = graph.edges
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            used = set()
            ok = True
            for i, j, _ in combo:
                if i in used or j in used:
                    ok = False
                    break
                used.update((i, j))
            if ok:
                best = max(best, sum(w for _, _, w in combo))
    return best


def assert_matching_of(inst: Instance, m) -> None:
    """Every pair is mutually acceptable and no agent is in two pairs."""
    ranks = inst.ranks
    ends = [a for pair in m.pairs for a in pair]
    assert len(ends) == len(set(ends))
    for i, j in m.pairs:
        assert j in ranks[i] and i in ranks[j]


def random_graph_instance(n: int, p: float, rng: random.Random) -> Instance:
    """G(n, p) with every neighbour list in random order."""
    nbrs = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < p:
                nbrs[i].append(j)
                nbrs[j].append(i)
    for lst in nbrs:
        rng.shuffle(lst)
    return Instance(n, tuple(tuple(lst) for lst in nbrs), None)


class TestWeightedGraph:
    def test_rejects_structural_problems(self):
        v = frozenset({1, 2, 3})
        with pytest.raises(ValueError):
            WeightedGraph(v, ((1, 1, 0),))
        with pytest.raises(ValueError):
            WeightedGraph(v, ((1, 2, 0), (2, 1, 5)))
        with pytest.raises(ValueError):
            WeightedGraph(v, ((1, 9, 0),))
        with pytest.raises(ValueError):
            WeightedGraph(v, ((1, 2, -1),))
        with pytest.raises(ValueError):
            WeightedGraph(v, ((1, 2, True),))
        with pytest.raises(ValueError):
            WeightedGraph(v, ((1, 2, 2**63),))

    def test_normalizes_edge_order(self):
        g = WeightedGraph(frozenset({1, 2}), ((2, 1, 3),))
        assert g.edges == ((1, 2, 3),)


class TestGaleShapley:
    def test_empty_instance(self):
        assert gale_shapley(Instance(0, ((),), ())).pairs == frozenset()

    def test_requires_sides(self):
        with pytest.raises(NotBipartite):
            gale_shapley(Instance(2, ((), (2,), (1,)), None))

    def test_two_agent_path(self):
        inst = Instance(2, ((), (2,), (1,)), (0, 1))
        assert gale_shapley(inst).pairs == frozenset({(1, 2)})

    def test_four_agent_unique_stable_matching(self):
        # brute force over the 3 candidate matchings confirms this is the
        # unique stable one
        inst = Instance(4, ((), (3, 4), (3,), (2, 1), (1,)), (0, 0, 1, 1))
        assert gale_shapley(inst).pairs == frozenset({(1, 4), (2, 3)})

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 50), cap=st.integers(1, 6))
    def test_output_is_stable(self, seed, n, cap):
        prob = generate(GenSpec(n=n, model=GenModel.SMI_UNIFORM, list_cap=cap, seed=seed))
        inst = prob.instance
        m = gale_shapley(inst)
        rep = blocking_report(inst, m, frozenset(inst.agents()))
        assert rep.blocking_pairs == frozenset()


class TestIrving:
    def test_ordered_cycle_unsolvable(self):
        with pytest.raises(Unsolvable):
            irving_sr(ordered_cycle(3))

    def test_solvable_three_cycle(self):
        inst = Instance(3, ((), (2, 3), (1, 3), (1, 2)), None)
        assert irving_sr(inst).pairs == frozenset({(1, 2)})

    def test_empty_and_single(self):
        assert irving_sr(Instance(0, ((),), None)).pairs == frozenset()
        assert irving_sr(Instance(1, ((), ()), None)).pairs == frozenset()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 10), cap=st.integers(1, 5))
    def test_verdict_matches_oracle(self, seed, n, cap):
        prob = generate(GenSpec(n=n, model=GenModel.SRI_UNIFORM, list_cap=cap, seed=seed))
        inst = prob.instance
        report = oracle_solve(problem(inst, set()))
        try:
            m = irving_sr(inst)
        except Unsolvable:
            assert not report.stable_exists
        else:
            assert report.stable_exists
            rep = blocking_report(inst, m, frozenset(inst.agents()))
            assert rep.blocking_pairs == frozenset()
            assert m.matched_agents() in report.stable_matched_sets

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 20), cap=st.integers(1, 5))
    def test_sided_instances_always_solvable(self, seed, n, cap):
        prob = generate(GenSpec(n=n, model=GenModel.SMI_UNIFORM, list_cap=cap, seed=seed))
        m = irving_sr(prob.instance)  # must not raise
        rep = blocking_report(prob.instance, m, frozenset(prob.instance.agents()))
        assert rep.blocking_pairs == frozenset()


class TestMaxCardinality:
    def test_two_agent_path(self):
        inst = Instance(2, ((), (2,), (1,)), None)
        assert max_cardinality_size(inst) == 1

    def test_odd_path(self):
        # path 1-2-3-4-5
        inst = Instance(
            5, ((), (2,), (1, 3), (2, 4), (3, 5), (4,)), None
        )
        assert max_cardinality_size(inst) == 2

    def test_gadget_is_perfectly_matchable(self):
        m = max_cardinality_matching(variable_gadget())
        assert len(m.pairs) == 4

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pseed=st.integers(0, 2**32 - 1))
    def test_size_invariant_under_relabeling(self, seed, pseed):
        prob = generate(GenSpec(n=9, list_cap=4, seed=seed))
        inst = prob.instance
        ids = list(inst.agents())
        shuffled = ids[:]
        random.Random(pseed).shuffle(shuffled)
        inst2 = relabel_instance(inst, dict(zip(ids, shuffled)))
        assert max_cardinality_size(inst) == max_cardinality_size(inst2)

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        model=st.sampled_from(list(GenModel)),
    )
    def test_size_matches_the_oracle(self, seed, n, model):
        cap = 2 if model is GenModel.PATH_CYCLE_ONLY else 4
        inst = generate(GenSpec(n=n, model=model, list_cap=cap, seed=seed)).instance
        m = max_cardinality_matching(inst)
        assert_matching_of(inst, m)
        report = oracle_solve(problem(inst, ()), cap=12)
        assert len(m.pairs) == report.regime_sizes[0]

    @pytest.mark.parametrize("seed", range(24))
    def test_size_matches_networkx(self, seed):
        # average degree 2-8 on up to 300 vertices: half of these graphs make
        # the search contract a blossom that already holds another
        rng = random.Random(seed)
        n = rng.choice([12, 30, 80, 150, 300])
        inst = random_graph_instance(n, rng.uniform(2, 8) / (n - 1), rng)
        m = max_cardinality_matching(inst)
        assert_matching_of(inst, m)
        g = nx.Graph()
        g.add_nodes_from(inst.agents())
        g.add_edges_from((i, j) for i in inst.agents() for j in inst.prefs[i])
        assert len(m.pairs) == len(nx.max_weight_matching(g, maxcardinality=True))

    def test_one_sided_entries_are_ignored(self):
        # 1 lists 2 and 3, but only 3 lists 1 back; 2 and 4 list each other
        inst = Instance(4, ((), (2, 3), (4,), (1,), (2, 1)), None)
        m = max_cardinality_matching(inst)
        assert m.pairs == frozenset({(1, 3), (2, 4)})
        assert max_cardinality_size(Instance(2, ((), (2,), ()), None)) == 0

    def test_long_odd_cycle(self):
        n = 20_001
        prefs = [()] + [(i % n + 1, (i - 2) % n + 1) for i in range(1, n + 1)]
        inst = Instance(n, tuple(prefs), None)
        m = max_cardinality_matching(inst)
        assert_matching_of(inst, m)
        assert len(m.pairs) == n // 2

    def test_chain_of_triangles(self):
        # triangle t is a, b, c = 3t+1, 3t+2, 3t+3, and c links to the next
        # triangle's a.  Each a takes its c first, so the greedy start leaves
        # every b exposed: 5,000 pairs, against 7,500 along the Hamiltonian path.
        count = 5_000
        prefs = [()]
        for t in range(count):
            a, b, c = 3 * t + 1, 3 * t + 2, 3 * t + 3
            prefs.append((c, b) + ((a - 1,) if t else ()))
            prefs.append((a, c))
            prefs.append((a, b) + ((c + 1,) if t < count - 1 else ()))
        inst = Instance(3 * count, tuple(prefs), None)
        m = max_cardinality_matching(inst)
        assert_matching_of(inst, m)
        assert len(m.pairs) == 3 * count // 2

    def test_reaches_no_networkx_code(self, monkeypatch):
        class Unreachable:
            def __getattr__(self, name):
                raise AssertionError(f"networkx.{name} reached")

        monkeypatch.setattr(classic, "nx", Unreachable())
        assert max_cardinality_size(variable_gadget()) == 4

    def test_deterministic(self):
        inst = generate(GenSpec(n=300, list_cap=5, seed=3)).instance
        first = max_cardinality_matching(inst)
        again = max_cardinality_matching(Instance(inst.num_agents, inst.prefs, inst.sides))
        assert first.pairs == again.pairs == max_cardinality_matching(inst).pairs


def graph_strategy(max_vertices=8, max_weight=10):
    def build(n, picks, weights):
        vertices = frozenset(range(1, n + 1))
        all_pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        chosen = [p for p, keep in zip(all_pairs, picks) if keep]
        edges = tuple((i, j, w) for (i, j), w in zip(chosen, weights))
        return WeightedGraph(vertices, edges)

    return st.integers(2, max_vertices).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
            st.lists(st.integers(0, max_weight), min_size=n * (n - 1) // 2,
                     max_size=n * (n - 1) // 2),
        )
    )


class TestMaxWeight:
    def test_uniform_triangle(self):
        g = WeightedGraph(frozenset({1, 2, 3}), ((1, 2, 5), (1, 3, 5), (2, 3, 5)))
        m = max_weight_matching(g)
        assert len(m.pairs) == 1
        assert matching_weight(g, m) == 5

    def test_path_picks_outer_edges(self):
        g = WeightedGraph(frozenset({1, 2, 3, 4}), ((1, 2, 3), (2, 3, 4), (3, 4, 3)))
        m = max_weight_matching(g)
        assert m.pairs == frozenset({(1, 2), (3, 4)})
        assert matching_weight(g, m) == 6

    @settings(max_examples=80, deadline=None)
    @given(g=graph_strategy())
    def test_exact_against_brute_force(self, g):
        m = max_weight_matching(g)
        assert matching_weight(g, m) == brute_force_best_weight(g)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), qseed=st.integers(0, 2**32 - 1))
def test_cardinality_first_coverage_second_weighting(seed, qseed):
    """w(e) = n + |e ∩ Q| yields a maximum matching covering the most of Q."""
    prob = generate(GenSpec(n=8, list_cap=4, seed=seed))
    inst = prob.instance
    n = inst.num_agents
    rng = random.Random(qseed)
    q = {a for a in inst.agents() if rng.random() < 0.4}
    ranks = inst.ranks
    pairs = [
        (i, j)
        for i in inst.agents()
        for j in inst.prefs[i]
        if i < j and i in ranks[j]
    ]
    g = WeightedGraph(
        frozenset(inst.agents()),
        tuple((i, j, n + (i in q) + (j in q)) for i, j in pairs),
    )
    m = max_weight_matching(g)

    best_size = 0
    best_cover = 0
    for r in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, r):
            used = set()
            ok = True
            for i, j in combo:
                if i in used or j in used:
                    ok = False
                    break
                used.update((i, j))
            if not ok:
                continue
            cover = sum(1 for i, j in combo for a in (i, j) if a in q)
            if (r, cover) > (best_size, best_cover):
                best_size, best_cover = r, cover
    got_cover = sum(1 for i, j in m.pairs for a in (i, j) if a in q)
    assert len(m.pairs) == best_size
    assert got_cover == best_cover
