"""Random instance generation: determinism, validity, parameter handling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmatch import cli, generators
from devmatch.core import DeviatorProblem, Instance, Objective, SizeRegime
from devmatch.generators import GenModel, GenSpec, InfeasibleSpec, generate


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(n=-1))
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(n=4, list_cap=0))
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(n=4, deviator_fraction=1.5))
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(n=4, model=GenModel.PATH_CYCLE_ONLY, list_cap=3))
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(n=1, model=GenModel.SMI_UNIFORM))

    def test_empty_draw(self):
        p = generate(GenSpec(n=0))
        assert p.instance.num_agents == 0
        assert p.deviators == frozenset()


class _NoDraws:
    """Stands in for the random module: a draw past the size check fails at once."""

    def Random(self, seed):
        raise AssertionError("the spec reached the draws")


@pytest.mark.parametrize("model, largest", [
    (GenModel.SRI_UNIFORM, 3162),  # 3162 * 3161 / 2 = 4,997,541 candidate pairs
    (GenModel.PATH_CYCLE_ONLY, 3162),
    (GenModel.SMI_UNIFORM, 4472),  # 2236 * 2236 = 4,999,696 cross-side pairs
])
def test_too_many_candidate_pairs_are_refused_before_any_draw(monkeypatch, model, largest):
    """More than MAX_CANDIDATES candidate pairs raise before the generator allocates.

    The random module is swapped out, so a missing check fails on its first
    draw instead of listing the pairs.
    """
    monkeypatch.setattr(generators, "random", _NoDraws())
    cap = 2 if model is GenModel.PATH_CYCLE_ONLY else 3
    for n in (largest + 1, 10**6):
        with pytest.raises(InfeasibleSpec, match="candidate pairs"):
            generate(GenSpec(n=n, model=model, list_cap=cap))
    with pytest.raises(AssertionError, match="reached the draws"):
        generate(GenSpec(n=largest, model=model, list_cap=cap))


def test_cli_refuses_an_oversized_gen(monkeypatch, capsys):
    """devmatch gen --n 1000000 exits 2, like the other refused specs."""
    monkeypatch.setattr(generators, "random", _NoDraws())
    assert cli.main(["gen", "--n", "1000000"]) == 2
    assert "candidate pairs" in capsys.readouterr().err


def test_same_seed_same_draw():
    for seed in range(10):
        spec = GenSpec(n=9, list_cap=4, deviator_fraction=0.5, seed=seed)
        a = generate(spec)
        b = generate(spec)
        assert a.instance == b.instance
        assert a.deviators == b.deviators


def test_seeds_vary_the_draw():
    draws = {generate(GenSpec(n=9, seed=s)).instance.prefs for s in range(20)}
    assert len(draws) > 10


def test_pinned_draw_snapshot():
    """The documented draw procedure, frozen for one seed.

    Any change to the order in which randomness is consumed breaks replay
    of seeds recorded in experiment logs, so it must show up here.
    """
    p = generate(GenSpec(n=6, list_cap=3, deviator_fraction=0.5, seed=2))
    assert p.instance.prefs == (
        (),
        (5, 6),
        (3, 4, 6),
        (2, 4, 5),
        (2, 3, 5),
        (3, 4, 1),
        (1, 2),
    )
    assert p.deviators == frozenset({1, 2, 3})


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 30),
    model=st.sampled_from(GenModel),
    cap=st.integers(1, 5),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_draws_respect_the_spec(n, model, cap, frac, seed):
    if model is GenModel.PATH_CYCLE_ONLY:
        cap = min(cap, 2)
    if model is GenModel.SMI_UNIFORM:
        n = max(n, 2)
    p = generate(GenSpec(n=n, model=model, list_cap=cap,
                         deviator_fraction=frac, seed=seed))
    inst = p.instance
    assert inst.num_agents == n
    assert p.objective is Objective.BLOCKING_PAIRS
    assert p.size_regime is SizeRegime.ANY
    assert p.budget is None
    assert p.deviators <= set(inst.agents())
    for a in inst.agents():
        assert len(inst.prefs[a]) <= cap
    if model is GenModel.SMI_UNIFORM:
        assert inst.sides is not None
        assert sum(1 for a in inst.agents() if inst.sides[a] == 0) == n // 2
    else:
        assert inst.sides is None


def test_deviator_fraction_extremes():
    none = generate(GenSpec(n=12, deviator_fraction=0.0, seed=3))
    assert none.deviators == frozenset()
    everyone = generate(GenSpec(n=12, deviator_fraction=1.0, seed=3))
    assert everyone.deviators == frozenset(range(1, 13))


def reference_generate(spec: GenSpec) -> DeviatorProblem:
    """generate's draw procedure on tuple candidates shuffled by random.shuffle, for valid specs."""
    n = spec.n
    rng = random.Random(spec.seed)
    sides = None
    if spec.model is GenModel.SMI_UNIFORM and n:
        ids = list(range(1, n + 1))
        rng.shuffle(ids)
        side_zero = set(ids[: n // 2])
        sides = tuple(0 if i in side_zero else 1 for i in range(1, n + 1))
    candidates = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if sides is None or sides[i - 1] != sides[j - 1]
    ]
    rng.shuffle(candidates)
    target = rng.randint(0, len(candidates)) if candidates else 0
    degree = [0] * (n + 1)
    neighbors = [[] for _ in range(n + 1)]
    kept = 0
    for i, j in candidates:
        if kept == target:
            break
        if degree[i] < spec.list_cap and degree[j] < spec.list_cap:
            neighbors[i].append(j)
            neighbors[j].append(i)
            degree[i] += 1
            degree[j] += 1
            kept += 1
    prefs = [()]
    for i in range(1, n + 1):
        order = sorted(neighbors[i])
        rng.shuffle(order)
        prefs.append(tuple(order))
    deviators = frozenset(i for i in range(1, n + 1) if rng.random() < spec.deviator_fraction)
    return DeviatorProblem(Instance(n, tuple(prefs), sides), deviators)


def test_draws_match_the_shuffle_reference():
    """The written-out shuffle draws what random.shuffle draws, on 2,000 seeded specs."""
    rng = random.Random(20261020)
    for _ in range(2000):
        model = rng.choice(list(GenModel))
        cap = rng.randint(1, 2 if model is GenModel.PATH_CYCLE_ONLY else 6)
        spec = GenSpec(n=rng.randint(2, 80), model=model, list_cap=cap,
                       deviator_fraction=rng.random(), seed=rng.getrandbits(64))
        assert generate(spec) == reference_generate(spec), spec


@pytest.mark.parametrize("model", list(GenModel))
def test_a_large_draw_matches_the_shuffle_reference(model):
    """One draw per model long enough for the shuffle to cross many bit lengths."""
    cap = 2 if model is GenModel.PATH_CYCLE_ONLY else 4
    spec = GenSpec(n=450, model=model, list_cap=cap, deviator_fraction=0.2, seed=2**63 + 5)
    assert generate(spec) == reference_generate(spec)
