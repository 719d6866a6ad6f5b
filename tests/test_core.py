"""Core types: instances, matchings, blocking reports, verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmatch.core import (
    AsymmetricAcceptability,
    BudgetExceeded,
    DeviatorProblem,
    DuplicateEntry,
    Instance,
    Matching,
    Objective,
    RegimeViolation,
    SelfRank,
    SidedPairViolation,
    SizeRegime,
    ValueMismatch,
    VerificationError,
    blocking_report,
    is_perfect,
    matching_size,
    objective_value,
    validate_instance,
    verify_solution,
)
from devmatch.generators import GenModel, GenSpec, generate

from conftest import ordered_cycle, problem, random_matching, relabel_instance, variable_gadget

M1_GADGET = Matching(frozenset({(1, 5), (2, 6), (3, 7), (4, 8)}))
M2_GADGET = Matching(frozenset({(1, 6), (2, 7), (3, 8), (4, 5)}))


def spec_strategy():
    return st.builds(
        GenSpec,
        n=st.integers(0, 12),
        model=st.sampled_from(GenModel),
        list_cap=st.integers(1, 2) | st.integers(1, 6),
        deviator_fraction=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    ).filter(
        lambda s: not (s.model is GenModel.PATH_CYCLE_ONLY and s.list_cap > 2)
        and not (s.model is GenModel.SMI_UNIFORM and s.n == 1)
    )


class TestInstanceValidation:
    def test_minimal_mutual_pair(self):
        inst = Instance(2, ((), (2,), (1,)), None)
        validate_instance(inst)
        assert inst.d_max == 1

    def test_one_sided_ranking_rejected(self):
        inst = Instance(2, ((), (2,), ()), None)
        with pytest.raises(AsymmetricAcceptability) as exc:
            validate_instance(inst)
        assert (exc.value.i, exc.value.j) == (1, 2)

    def test_self_rank_rejected(self):
        inst = Instance(2, ((), (1,), ()), None)
        with pytest.raises(SelfRank):
            validate_instance(inst)

    def test_duplicate_entry_rejected(self):
        inst = Instance(2, ((), (2, 2), (1,)), None)
        with pytest.raises(DuplicateEntry):
            validate_instance(inst)

    def test_same_side_pair_rejected(self):
        inst = Instance(2, ((), (2,), (1,)), (0, 0))
        with pytest.raises(SidedPairViolation):
            validate_instance(inst)

    def test_empty_instance(self):
        inst = Instance(0, ((),), None)
        validate_instance(inst)
        assert inst.d_max == 0

    def test_a_validated_instance_reads_mutual_off_its_lists(self):
        """mutual is prefs itself, as it stands when first read, and fills no rank table."""
        inst = Instance(3, ((), (2, 3), (1,), (1,)), None)
        fresh = Instance(3, inst.prefs, None)
        validate_instance(inst)
        swapped = tuple(inst.prefs)  # a later swap of prefs, as record_list_reads makes
        object.__setattr__(inst, "prefs", swapped)
        assert inst.mutual is swapped
        assert len(inst.ranks) == 0
        assert [fresh.mutual[i] for i in fresh.agents()] == [(2, 3), (1,), (1,)]
        assert fresh.mutual is not fresh.prefs

    @pytest.mark.parametrize("prefs, sides", [
        (((), (2, 3), (1,), ()), None),  # agent 1 ranks 3, who ranks nobody
        (((), (2,), (1,), ()), (0, 0, 1)),  # the last check, the sides, fails
    ])
    def test_an_instance_that_failed_validation_keeps_the_filtered_view(self, prefs, sides):
        inst = Instance(3, prefs, sides)
        with pytest.raises((AsymmetricAcceptability, SidedPairViolation)):
            validate_instance(inst)
        assert inst.mutual is not inst.prefs
        assert [inst.mutual[i] for i in inst.agents()] == [(2,), (1,), ()]

    def test_variable_gadget_is_valid(self):
        inst = variable_gadget()
        validate_instance(inst)
        assert inst.d_max == 2  # isolated form; communication entries add the third

    def test_bad_shape_rejected_on_construction(self):
        with pytest.raises(ValueError):
            Instance(2, ((), (2,)), None)  # missing a list
        with pytest.raises(ValueError):
            Instance(1, ((), (7,)), None)  # id out of range
        with pytest.raises(ValueError):
            Instance(-1, ((),), None)


class TestMatching:
    def test_pairs_normalized(self):
        m = Matching(frozenset({(2, 1)}))
        assert m.pairs == frozenset({(1, 2)})
        assert m.partner_of(1) == 2
        assert m.partner_of(3) == 3  # unmatched maps to itself

    def test_agent_reuse_rejected(self):
        with pytest.raises(ValueError):
            Matching(frozenset({(1, 2), (2, 3)}))

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            Matching(frozenset({(1, 1)}))

    def test_size_and_perfect(self):
        inst = Instance(2, ((), (2,), (1,)), None)
        assert matching_size(Matching(frozenset())) == 0
        assert not is_perfect(inst, Matching(frozenset()))
        m = Matching(frozenset({(1, 2)}))
        assert matching_size(m) == 1
        assert is_perfect(inst, m)

    def test_gadget_m1_is_perfect(self):
        assert matching_size(M1_GADGET) == 4
        assert is_perfect(variable_gadget(), M1_GADGET)


class TestBlockingReport:
    def test_unmatched_mutual_pair_blocks(self):
        inst = Instance(2, ((), (2,), (1,)), None)
        rep = blocking_report(inst, Matching(frozenset()), frozenset({1, 2}))
        assert rep.blocking_pairs == frozenset({(1, 2)})
        assert rep.deviator_agents == frozenset({1, 2})

    def test_gadget_m1_internal_pair(self):
        rep = blocking_report(variable_gadget(), M1_GADGET, frozenset())
        assert rep.blocking_pairs == frozenset({(3, 8)})  # x3-y4
        assert rep.deviator_pairs == frozenset()

    def test_gadget_m2_internal_pair(self):
        rep = blocking_report(variable_gadget(), M2_GADGET, frozenset())
        assert rep.blocking_pairs == frozenset({(1, 5)})  # x1-y1

    def test_ordered_cycle_partial_matching(self):
        inst = ordered_cycle(3)
        rep = blocking_report(inst, Matching(frozenset({(1, 2)})), frozenset({1, 2, 3}))
        assert rep.blocking_pairs == frozenset({(2, 3)})
        assert rep.deviator_agents == frozenset({2, 3})

    def test_deviator_view_reads_only_the_deviators_neighbourhood(self):
        n = 2000
        prefs = [()] + [tuple(j for j in (i - 1, i + 1) if 1 <= j <= n) for i in range(1, n + 1)]
        inst = Instance(n, tuple(prefs), None)
        # agents 1..1000 are matched in pairs; the deviator 1001 is not
        m = Matching(frozenset((i, i + 1) for i in range(1, 1000, 2)))
        rep = blocking_report(inst, m, frozenset({1001}))
        assert rep.deviator_pairs == frozenset({(1001, 1002)})
        assert set(inst.ranks) <= {1000, 1001, 1002}
        assert rep.deviator_pairs < rep.blocking_pairs  # the full view reads every list
        assert len(inst.ranks) == n


class TestVerifySolution:
    def test_empty_deviators_vacuous(self):
        inst = ordered_cycle(3)
        p = problem(inst, set(), budget=0)
        assert verify_solution(p, Matching(frozenset()), 0)

    def test_blocked_deviator_fails_budget(self):
        p = problem(ordered_cycle(3), {1, 2, 3}, budget=0)
        m = Matching(frozenset({(1, 2)}))
        assert not verify_solution(p, m, 1)
        with pytest.raises(BudgetExceeded):
            verify_solution(p, m, 1, strict=True)

    def test_one_sided_pair_is_rejected(self):
        # agent 1 ranks 3, but 3 ranks nobody
        p = problem(Instance(3, ((), (2, 3), (1,), ()), None), set())
        assert verify_solution(p, Matching(frozenset({(1, 2)})), 0, strict=True)
        with pytest.raises(VerificationError, match="not mutually acceptable"):
            verify_solution(p, Matching(frozenset({(1, 3)})), 0, strict=True)

    def test_value_mismatch(self):
        p = problem(ordered_cycle(3), {1, 2, 3})
        m = Matching(frozenset({(1, 2)}))
        with pytest.raises(ValueMismatch):
            verify_solution(p, m, 0, strict=True)

    def test_perfect_regime_odd_instance(self):
        p = problem(ordered_cycle(3), set(), regime=SizeRegime.PERFECT)
        with pytest.raises(RegimeViolation):
            verify_solution(p, Matching(frozenset({(1, 2)})), 0, strict=True)

    def test_max_cardinality_regime(self):
        inst = ordered_cycle(4)
        p = problem(inst, set(), regime=SizeRegime.MAX_CARDINALITY)
        assert verify_solution(p, Matching(frozenset({(1, 2), (3, 4)})), 0)
        assert not verify_solution(p, Matching(frozenset({(1, 2)})), 0)

    def test_objective_values_differ(self):
        # one deviator in two blocking pairs: 2 pairs but 1 counted agent... the
        # agent count includes the partners that are deviators only
        inst = ordered_cycle(3)
        p_bp = problem(inst, {1, 2, 3}, objective=Objective.BLOCKING_PAIRS)
        rep = blocking_report(inst, Matching(frozenset()), p_bp.deviators)
        assert objective_value(rep, Objective.BLOCKING_PAIRS) == 3
        assert objective_value(rep, Objective.BLOCKING_AGENTS) == 3


class TestProblem:
    def test_deviators_must_exist(self):
        with pytest.raises(ValueError):
            problem(ordered_cycle(3), {9})

    def test_budget_non_negative(self):
        with pytest.raises(ValueError):
            problem(ordered_cycle(3), {1}, budget=-1)


@settings(max_examples=120, deadline=None)
@given(spec=spec_strategy(), mseed=st.integers(0, 2**32 - 1))
def test_matched_pair_never_blocks_itself(spec, mseed):
    prob = generate(spec)
    m = random_matching(prob.instance, mseed)
    rep = blocking_report(prob.instance, m, prob.deviators)
    assert not (rep.blocking_pairs & m.pairs)


@settings(max_examples=120, deadline=None)
@given(spec=spec_strategy(), mseed=st.integers(0, 2**32 - 1), dseed=st.integers(0, 2**32 - 1))
def test_deviator_pairs_monotone_in_deviator_set(spec, mseed, dseed):
    import random as _random

    prob = generate(spec)
    inst = prob.instance
    m = random_matching(inst, mseed)
    rng = _random.Random(dseed)
    d2 = frozenset(a for a in inst.agents() if rng.random() < 0.6)
    d1 = frozenset(a for a in d2 if rng.random() < 0.5)
    rep1 = blocking_report(inst, m, d1)
    rep2 = blocking_report(inst, m, d2)
    assert rep1.deviator_pairs <= rep2.deviator_pairs
    full = blocking_report(inst, m, frozenset(inst.agents()))
    assert full.deviator_pairs == full.blocking_pairs
    # the deviator view is the full view restricted to the deviators
    assert rep2.deviator_pairs == {p for p in rep2.blocking_pairs if set(p) & d2}
    assert rep2.deviator_agents == rep2.blocking_agents & d2


@settings(max_examples=120, deadline=None)
@given(spec=spec_strategy(), mseed=st.integers(0, 2**32 - 1))
def test_zero_pairs_iff_zero_agents(spec, mseed):
    prob = generate(spec)
    m = random_matching(prob.instance, mseed)
    rep = blocking_report(prob.instance, m, prob.deviators)
    assert (len(rep.deviator_pairs) == 0) == (len(rep.deviator_agents) == 0)


@settings(max_examples=80, deadline=None)
@given(spec=spec_strategy(), mseed=st.integers(0, 2**32 - 1), pseed=st.integers(0, 2**32 - 1))
def test_blocking_report_relabeling_invariance(spec, mseed, pseed):
    import random as _random

    prob = generate(spec)
    inst = prob.instance
    if prob.instance.sides is not None:
        return  # relabeling a sided instance permutes sides too; covered via SRI
    m = random_matching(inst, mseed)
    ids = list(inst.agents())
    shuffled = ids[:]
    _random.Random(pseed).shuffle(shuffled)
    perm = dict(zip(ids, shuffled))
    inst2 = relabel_instance(inst, perm)
    m2 = Matching(frozenset((perm[i], perm[j]) for i, j in m.pairs))
    d2 = frozenset(perm[a] for a in prob.deviators)
    rep = blocking_report(inst, m, prob.deviators)
    rep2 = blocking_report(inst2, m2, d2)
    mapped = frozenset(tuple(sorted((perm[i], perm[j]))) for i, j in rep.blocking_pairs)
    assert mapped == rep2.blocking_pairs
    assert frozenset(perm[a] for a in rep.deviator_agents) == rep2.deviator_agents
