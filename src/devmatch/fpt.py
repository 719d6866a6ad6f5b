"""Parametrized configuration-search solvers for deviator stability.

The search fixes, per configuration, how every deviator is matched (its
candidate matching M_C) together with a small set B of tolerated blocking
pairs / blocking agents (|B| <= k).  Agents that some deviator prefers to
its assigned partner — and whose pair/agent is not tolerated — must end up
matched strictly better than every such deviator.  The truncation records
this as a sparse cut, {agent: rank at which its list is cut}, laid over the
unchanged instance; one matching over the remaining agents then reads every
list through that cut, found by classic.covering_matching: a blossom search
that covers the must-match agents first and, outside the any-size regime,
then grows to maximum size.  The first configuration whose extension exists
and verifies decides the outcome.

Running time is exponential only in the number of deviators and the budget;
everything else is polynomial.  In the any-size regime the work per
configuration depends only on the deviators' neighbourhood, not on the
number of agents: candidate matchings come from a backtracking walk that
drops a clash as soon as it appears, the cut is a dict rather than a copy of
the instance, and values and floors come from core.blocking_report's
deviator view.  The solver touches no preference list of agents at
acceptability-distance three or more from the deviator set; the lazy
Instance.ranks, which holds a table for every agent whose list was read,
lets tests check exactly that.

Both entry points search independent parts one by one and add up their
optima, exactly: a blocking pair is an edge, so both objectives add up over
parts no edge joins.  A part is a sub-instance relabelled in ascending id:
a deviator group's distance-two ball in the any-size regime, where blocking
pairs depend only on partners that close, and else a component, as
matching sizes add up.  Under a budget the last part is only decided.

Each part tries budgets 0, 1, 2, ... in turn.  What does not depend on the
budget (the maximum matching size, floors, extension values) lives in the
part's _Sweep, which hands itself to each budget's solve_fpt walk as the
keyword-only _sweep argument; the module keeps no state between calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .classic import (
    Unsolvable,
    covering_matching,
    irving_sr,
    max_cardinality_matching,
    max_cardinality_size,
)
from .core import (
    DeviatorProblem,
    Instance,
    Matching,
    Objective,
    SizeRegime,
    SolveOutcome,
    blocking_report,
    objective_value,
    verify_solution,
)

_UNRANKED = 1 << 30


class PerfectInfeasible(ValueError):
    """No perfect matching exists, so the perfect regime has no optimum."""


@dataclass(frozen=True)
class CandidateConfiguration:
    """One guess of the deviators' pairs plus the tolerated instability.

    candidate_matching touches only deviators and their chosen partners.
    blocked_set holds candidate blocking pairs (each containing a deviator,
    disjoint from the matching) under the pair objective, or candidate
    blocking deviators under the agent objective.  index is the position in
    the deterministic enumeration.
    """

    candidate_matching: Matching
    blocked_set: frozenset
    index: int


@dataclass(frozen=True)
class TruncationResult:
    """The cut that makes must-match agents accept only good-enough partners.

    cut maps each must-match agent to the 1-based rank of its best-ranked
    deviator that prefers it to its assigned partner (its pair/agent not
    tolerated).  The agent's list is read as prefs[agent][:cut[agent] - 1],
    the entries strictly better than that deviator; agents absent from cut
    keep their whole list.  The instance itself is never copied.
    must_match is the set of cut agents.  rejected is set when the
    configuration is self-contradictory, with reason saying why.
    """

    cut: dict[int, int]
    must_match: frozenset[int]
    rejected: bool
    reason: str | None = None
    configuration: CandidateConfiguration | None = None


def _deviator_matchings(inst: Instance, devs: list[int]):
    """Yield every matching the deviators can choose, in product order.

    Deviator devs[i] tries the entries of its list in rank order, then
    unmatched, and devs[-1] varies fastest.  The walk backtracks as soon as
    a choice clashes: a non-deviator partner already taken, a deviator that
    already chose otherwise or is claimed by another deviator, or a claimed
    deviator not picking its claimant.  So it yields exactly the matchings
    of the full product of choices, in the product's order.  The walk keeps
    its own stack, so its depth is not bounded by Python's recursion limit.
    """
    options = [inst.prefs[d] + (None,) for d in devs]
    dev_set = frozenset(devs)
    claimant: dict[int, int] = {}
    taken: set[int] = set()
    pairs: list[tuple[int, int]] = []
    placed: list[int | None] = []  # per placed deviator: the partner it took
    tried = [0] * len(devs)  # per deviator: options tried so far

    while True:
        pos = len(placed)
        if pos == len(devs):
            yield Matching(frozenset(pairs))
        else:
            d = devs[pos]
            must = claimant.get(d)
            opts = options[pos]
            ok = False
            while not ok and tried[pos] < len(opts):
                c = opts[tried[pos]]
                tried[pos] += 1
                if must is not None:
                    ok, took = c == must, None
                elif c is None or c == d:
                    ok, took = True, None
                elif c in dev_set:
                    ok, took = c > d and c not in claimant, c
                else:
                    ok, took = c not in taken, c
            if ok:
                if took in dev_set:
                    claimant[took] = d
                    pairs.append((d, took))
                elif took is not None:
                    taken.add(took)
                    pairs.append((d, took) if d < took else (took, d))
                placed.append(took)
                continue
            tried[pos] = 0
        if not placed:
            return
        took = placed.pop()
        if took in dev_set:
            del claimant[took]
            pairs.pop()
        elif took is not None:
            taken.remove(took)
            pairs.pop()


def _tolerable(p: DeviatorProblem) -> list:
    """The sorted pool tolerated sets are drawn from.

    Canonical (smaller id first) deviator pairs under the pair objective,
    the deviators themselves under the agent objective.
    """
    if p.objective is Objective.BLOCKING_AGENTS:
        return sorted(p.deviators)
    return sorted({(d, r) if d < r else (r, d) for d in p.deviators for r in p.instance.prefs[d]})


def enumerate_configurations(p: DeviatorProblem, k: int):
    """Yield every candidate configuration for budget k, in a fixed order.

    Deviators are processed in ascending id; each picks a partner from its
    own list in rank order, or unmatched last.  Combinations that are not
    matchings (a deviator pair without reciprocity, or a partner claimed
    twice) never appear.  Each matching is then crossed with every
    tolerated set: sizes 0..k, lexicographic within a size, drawn from the
    canonical deviator pairs (pair objective; sets clashing with the
    matching are skipped) or from the deviators themselves (agent
    objective).
    """
    by_pairs = p.objective is Objective.BLOCKING_PAIRS
    pool = _tolerable(p)
    index = 0
    for m_c in _deviator_matchings(p.instance, sorted(p.deviators)):
        for size in range(k + 1):
            for blocked in itertools.combinations(pool, size):
                if by_pairs and not m_c.pairs.isdisjoint(blocked):
                    continue
                yield CandidateConfiguration(m_c, frozenset(blocked), index)
                index += 1


def truncate_and_collect(p: DeviatorProblem, cfg: CandidateConfiguration) -> TruncationResult:
    """Apply the must-match truncation rule for one configuration.

    Scans all deviators first and cuts afterwards, so an agent triggered by
    several deviators is cut once, at the best-ranked one.  Rejects when
    tolerated pairs overlap the candidate matching or when a matched pair
    loses a member's entry to the cut.  Reads only the deviators' lists and
    their entries' rank tables.
    """
    inst = p.instance
    m_c = cfg.candidate_matching
    by_pairs = p.objective is Objective.BLOCKING_PAIRS

    if by_pairs and not cfg.blocked_set.isdisjoint(m_c.pairs):
        return TruncationResult({}, frozenset(), True, "tolerated pair is matched", cfg)

    cut: dict[int, int] = {}
    for d in sorted(p.deviators):
        if not by_pairs and d in cfg.blocked_set:
            continue
        own = inst.prefs[d]
        partner = m_c.partner_of(d)
        better = own[: inst.ranks[d][partner] - 1] if partner != d else own
        for r in better:
            if by_pairs and ((d, r) if d < r else (r, d)) in cfg.blocked_set:
                continue
            back = inst.ranks[r][d]
            if back < cut.get(r, _UNRANKED):
                cut[r] = back

    must = frozenset(cut)
    for i, j in m_c.pairs:
        for a, b in ((i, j), (j, i)):
            if a in cut and cut[a] <= inst.ranks[a][b]:
                return TruncationResult(
                    cut,
                    must,
                    True,
                    f"matched pair ({i}, {j}) falls to the truncation of {a}",
                    cfg,
                )
    return TruncationResult(cut, must, False, None, cfg)


def _find(parent, a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _union(parent, a: int, b: int) -> None:
    a, b = sorted((_find(parent, a), _find(parent, b)))
    parent[b] = a


def _ball_around_deviators(p: DeviatorProblem) -> dict[int, int]:
    """Agents within distance two of the deviators, each with its group's least deviator.

    Deviators whose balls overlap, directly or in a chain, share a group: each
    edge walked joins the groups of its two ends.
    """
    inst = p.instance
    level0 = sorted(p.deviators)
    near = {d: d for d in level0}  # a union-find forest whose roots are deviators
    level1: list[int] = []
    for d in level0:
        for j in inst.prefs[d]:
            if j in near:
                _union(near, d, j)
            elif d in inst.ranks[j]:
                near[j] = d
                level1.append(j)
    for v in level1:
        for j in inst.prefs[v]:
            if j in near:
                _union(near, v, j)
            elif v in inst.ranks[j]:
                near[j] = v
    return {a: _find(near, a) for a in near}


def extend_via_weighted_matching(
    p: DeviatorProblem, trunc: TruncationResult, target_size: int | None
) -> Matching | None:
    """Complete a truncated configuration by one Q-first matching, or reject.

    Lists are read through trunc.cut: agent i keeps prefs[i][:cut[i] - 1],
    and j still accepts i when i ranks above cut.get(j, infinity) on j's
    list.  The graph is on the agents of p's part, already numbered 1..n;
    those the candidate matching covers get no edges.  classic.covering_matching
    grows a tree from each exposed must-match agent of Q first, and with a
    target size (maximum-cardinality and perfect regimes) then augments
    from every other exposed agent, so the augmenting order does what the
    weights n + |e ∩ Q| (|e ∩ Q| without a target) of a weighted matching
    used to: maximum cardinality first, Q covered second.  The result is
    rejected unless all of Q is matched and the combined size reaches the
    target.  Returns the extension matching alone; None means reject.  The
    function keeps the name of the weighted version it replaced, under
    which perfbench's tracer probes it.
    """
    inst = p.instance
    cut = trunc.cut
    m_c = trunc.configuration.candidate_matching
    matched = m_c.matched_agents()
    q = trunc.must_match

    for r in q:
        if r not in matched and cut[r] == 1:
            return None

    adj = [()]
    for i in inst.agents():
        stop = cut.get(i)
        own = inst.prefs[i]
        adj.append([] if i in matched else [
            j for j in (own if stop is None else own[: stop - 1])
            if j not in matched and inst.ranks[j].get(i, _UNRANKED) < cut.get(j, _UNRANKED)
        ])
    must = [r for r in sorted(q) if r not in matched]
    mate = covering_matching(adj, must, target_size is not None)
    if mate is None:
        return None
    m_ext = Matching(frozenset((i, mate[i]) for i in inst.agents() if i < mate[i]))
    if target_size is not None and len(m_c.pairs) + len(m_ext.pairs) < target_size:
        return None
    return m_ext


@dataclass
class _Sweep:
    """The budget-independent part of one part's search, shared by its budgets.

    search hands the sweep to each budget's solve_fpt walk as its _sweep
    argument.  problem is the part's problem with its budget left out.
    target is the maximum matching size (None in the any-size regime).
    floors maps a candidate matching's pairs to its floor (see floor);
    values maps a memo key (candidate matching, cut) to the value of its
    extension, or to None when the extension is rejected.  Both depend on
    the configuration alone, so every budget reuses them.  Only values are
    kept, not matchings, which in the maximum-cardinality regime span the
    whole part: an extension is redone only when its value fits the budget,
    which ends the search.
    """

    problem: DeviatorProblem
    target: int | None
    floors: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    @classmethod
    def of(cls, p: DeviatorProblem) -> "_Sweep":
        target = None
        if p.size_regime is not SizeRegime.ANY:
            target = max_cardinality_size(p.instance)
        return cls(replace(p, budget=None), target)

    def floor(self, m_c: Matching) -> int:
        """Objective value already locked in by the candidate matching alone.

        Counts the deviator blocking pairs of M_C whose end across from a
        deviator is matched by M_C: that end keeps its partner in every
        completion, so the pair blocks whatever the tolerated set.
        """
        devs = self.problem.deviators
        locked = [
            (i, j)
            for i, j in blocking_report(self.problem.instance, m_c, devs).deviator_pairs
            if (i in devs and m_c.is_matched(j)) or (j in devs and m_c.is_matched(i))
        ]
        if self.problem.objective is Objective.BLOCKING_AGENTS:
            locked = {a for pair in locked for a in pair} & devs
        return len(locked)

    def search(self, budgets) -> SolveOutcome | None:
        """The outcome at the first of budgets that works, or None; each walk gets this sweep."""
        outs = (solve_fpt(replace(self.problem, budget=k), _sweep=self) for k in budgets)
        return next((out for out in outs if out.feasible), None)


def _note(p: DeviatorProblem, index: int | str | None = None) -> str:
    tag = f"fpt-{p.objective.value}-{p.size_regime.value}"
    return tag if index is None else f"{tag}#{index}"


def solve_fpt(p: DeviatorProblem, *, _sweep: _Sweep | None = None) -> SolveOutcome:
    """Decide whether the budget is attainable, returning a witness matching.

    Without _sweep, splits p into parts (_solve_in_parts).  _sweep is
    internal: passed by a part's _Sweep.search, it makes this call walk
    that part's stream, returning on the first configuration whose
    truncation survives, whose extension is accepted, and whose combined
    matching verifies at value <= budget; exhausting it means infeasible.
    """
    if p.budget is None:
        raise ValueError("solve_fpt needs an explicit budget")
    if _sweep is None:
        return _solve_in_parts(p)
    sweep, k = _sweep, p.budget

    for cfg in enumerate_configurations(p, k):
        m_c = cfg.candidate_matching
        floor = sweep.floors.get(m_c.pairs)
        if floor is None:
            floor = sweep.floors[m_c.pairs] = sweep.floor(m_c)
        if floor > k:
            continue
        trunc = truncate_and_collect(p, cfg)
        if trunc.rejected:
            continue
        # A key met before, under this budget or a smaller one, is skipped
        # unless its value now fits: its extension would come out the same.
        key = (m_c.pairs, tuple(sorted(trunc.cut.items())))
        if key in sweep.values:
            known = sweep.values[key]
            if known is None or known > k:
                continue
        m_ext = extend_via_weighted_matching(p, trunc, sweep.target)
        if m_ext is None:
            sweep.values[key] = None
            continue
        combined = Matching(m_c.pairs | m_ext.pairs)
        value = objective_value(blocking_report(p.instance, combined, p.deviators), p.objective)
        sweep.values[key] = value
        if value <= k and (
            p.size_regime is SizeRegime.ANY or verify_solution(p, combined, value)
        ):
            return SolveOutcome.solution(combined, value, _note(p, cfg.index))
    return SolveOutcome.infeasible(_note(p))


def optimize_fpt(p: DeviatorProblem) -> SolveOutcome:
    """Minimise the objective by trying budgets 0, 1, 2, ... until one works.

    The first feasible budget is the optimum.  Budgets beyond the tolerated
    pool's size add nothing, and the pool-sized budget always succeeds in
    the any-size and maximum-cardinality regimes.  The perfect regime raises
    PerfectInfeasible when the instance has no perfect matching at all.
    Each part's budgets share that part's _Sweep, passed to every walk, so
    an extension that failed a smaller budget is not redone unless its
    value fits.
    """
    if p.budget is not None:
        raise ValueError("optimize_fpt expects no budget")
    return _solve_in_parts(p)


def _restrict(inst: Instance, agents: list[int]) -> Instance:
    """The sub-instance on ascending agents; agents[i - 1] becomes agent i.

    Entries outside agents are dropped, as a ball's outer lists reach
    distance three.  Every agent gives inst itself.
    """
    if len(agents) == inst.num_agents:
        return inst
    new = {a: i for i, a in enumerate(agents, start=1)}
    prefs = ((),) + tuple(tuple(new[j] for j in inst.prefs[a] if j in new) for a in agents)
    return Instance(len(agents), prefs, inst.sides and tuple(inst.sides[a] for a in agents))


def _parts(p: DeviatorProblem) -> tuple[list[tuple[_Sweep, list[int]]], list[int]]:
    """The sweeps of p's parts with their agents, and the idle agents, all ascending.

    A part's agents are a deviator group's ball in the any-size regime, else
    a component with deviators; the idle agents are in the other components.
    """
    inst, devs, idle = p.instance, p.deviators, []
    if p.size_regime is SizeRegime.ANY:
        balls: dict[int, list[int]] = {}
        for a, g in sorted(_ball_around_deviators(p).items()):
            balls.setdefault(g, []).append(a)
        units = [balls[g] for g in sorted(balls)]
    else:
        parent = list(range(inst.num_agents + 1))
        for i in inst.agents():
            for j in inst.prefs[i]:
                _union(parent, i, j)
        comps: dict[int, list[int]] = {}
        for a in inst.agents():
            comps.setdefault(_find(parent, a), []).append(a)
        roots = dict.fromkeys(_find(parent, d) for d in sorted(devs))
        units = [comps[r] for r in roots]
        idle = sorted(a for r, c in comps.items() if r not in roots for a in c)
    return [(_Sweep.of(replace(p, instance=_restrict(inst, c),
                               deviators={i for i, a in enumerate(c, 1) if a in devs})), c)
            for c in units], idle


def _solve_in_parts(p: DeviatorProblem) -> SolveOutcome:
    """Search p's parts one by one and join them with a maximum matching of the idle agents.

    Under a budget every part but the last is optimized within the budget
    left and the last is only decided at it, so one part is one walk.
    """
    sweeps, idle = _parts(p)
    m = max_cardinality_matching(_restrict(p.instance, idle)) if idle else Matching(frozenset())
    pairs = {(idle[i - 1], idle[j - 1]) for i, j in m.pairs}
    if p.size_regime is SizeRegime.PERFECT and (2 * len(pairs) != len(idle) or any(
        2 * s.target != s.problem.instance.num_agents for s, _ in sweeps
    )):
        if p.budget is None:
            raise PerfectInfeasible("no perfect matching exists")
        return SolveOutcome.infeasible(_note(p))
    total, indices = 0, []
    for t, (sweep, ids) in enumerate(sweeps, start=1):
        # no value exceeds the pool's size, so no larger budget is tried
        limit = len(_tolerable(sweep.problem))
        if p.budget is not None:
            limit = min(limit, p.budget - total)
        decide = p.budget is not None and t == len(sweeps)
        out = sweep.search((limit,) if decide else range(limit + 1))
        if out is None:
            assert p.budget is not None, "the largest budget tolerates every candidate pair"
            return SolveOutcome.infeasible(_note(p))
        total += out.value
        indices.append(out.certificate_note.rpartition("#")[2])
        pairs.update((ids[i - 1], ids[j - 1]) for i, j in out.matching.pairs)
    # Parts all accepted at their configuration #0, or no parts, make up the whole's #0.
    index = "0" if set(indices) <= {"0"} else "+".join(indices)
    return SolveOutcome.solution(Matching(frozenset(pairs)), total, _note(p, index))


def solve_bipartite_restriction(p: DeviatorProblem) -> Matching | None:
    """A matching with no deviator blocking pair, certified by Irving's algorithm.

    Let H keep the deviators and the agents on their lists, relabelled in
    ascending id, and only the edges that touch a deviator, each list in
    its original order (the proposal table drops one-sided entries).  Any
    deviator blocking pair is an edge of H ranked as in p, so a stable
    matching of H has none in p; Irving's algorithm (Irving 1985) finds one
    whenever H has one, and a bipartite H always has one (Gale & Shapley
    1962).  Returns None when H has no stable matching.  The name is
    historical: this test once two-coloured H and ran the proposal
    algorithm on the two sides.
    """
    if p.size_regime is not SizeRegime.ANY:
        raise ValueError("the bipartite restriction works in the any-size regime")
    prefs, devs = p.instance.prefs, p.deviators
    agents = sorted(devs.union(*(prefs[d] for d in devs)))
    new = {a: i for i, a in enumerate(agents, start=1)}
    h = ((),) + tuple(tuple(new[j] for j in prefs[a] if a in devs or j in devs) for a in agents)
    try:
        m = irving_sr(Instance(len(agents), h))
    except Unsolvable:
        return None
    return Matching(frozenset((agents[i - 1], agents[j - 1]) for i, j in m.pairs))
