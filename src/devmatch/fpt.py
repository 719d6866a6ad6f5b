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
number of agents: candidate matchings come from a backtracking walk over
the deviators' lists less their one-sided entries (Instance.mutual) that
drops a clash as soon as it appears, core's trigger scan of the deviators
(_scan) gives each candidate matching's floor and the triggers every
truncation reads, the cut is a dict rather than a copy of the instance, and
values come from core.blocking_report's deviator view, which reads the same
scan.  The solver touches no preference list of agents at
acceptability-distance three or more from the deviator set, and builds rank
tables only of the parts' sub-instances; the tests check that by recording
every read of Instance.prefs.

Both entry points search independent parts one by one and add up their
optima, exactly: a blocking pair is an edge, so both objectives add up over
parts no edge joins.  A part is a sub-instance relabelled in ascending id,
found by one walk from the deviators: a deviator group's distance-two ball
in the any-size regime, where blocking pairs depend only on partners that
close, and else a component, as matching sizes add up.  Under a budget the
last part is only decided.

Each part tries budgets 0, 1, 2, ... in turn.  What does not depend on the
budget (the maximum matching size, the tolerated pool, the scanned
candidate matchings with their share of that pool, extension values)
lives in the part's _Sweep, which hands itself to each budget's solve_fpt
walk as the keyword-only _sweep argument; the module keeps no state
between calls.  So each candidate
matching is built and scanned once per part, later budgets replay the
kept ones, and a candidate whose floor exceeds the budget is skipped as
one block, its configurations counted into the index without being built.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from .classic import (
    Unsolvable,
    _mate_matching,
    covering_matching,
    irving_sr,
    max_cardinality_matching,
    max_cardinality_size,
)
from .core import (
    _UNRANKED,
    DeviatorProblem,
    Instance,
    Matching,
    Objective,
    SizeRegime,
    SolveOutcome,
    _inherit_mutual,
    _triggers,
    blocking_report,
    objective_value,
    verify_solution,
)


class PerfectInfeasible(ValueError):
    """No perfect matching exists, so the perfect regime has no optimum."""


@dataclass(frozen=True)
class CandidateConfiguration:
    """One guess of the deviators' pairs plus the tolerated instability.

    candidate_matching touches only deviators and their chosen partners.
    blocked_set holds candidate blocking pairs (each containing a deviator,
    disjoint from the matching) under the pair objective, or candidate
    blocking deviators under the agent objective.  index is the position in
    the deterministic enumeration.  triggers are the candidate matching's,
    from _scan, in a search's stream, and None in the plain enumeration.
    """

    candidate_matching: Matching
    blocked_set: frozenset
    index: int
    triggers: list | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TruncationResult:
    """The cut that makes must-match agents accept only good-enough partners.

    cut maps each must-match agent to the 1-based rank of its best-ranked
    deviator that prefers it to its assigned partner (its pair/agent not
    tolerated).  The agent's list is read as prefs[agent][:cut[agent] - 1],
    the entries strictly better than that deviator; agents absent from cut
    keep their whole list.  The instance itself is never copied.  rejected
    is set when the configuration is self-contradictory, with reason saying
    why; a rejected cut holds the triggers folded in up to the one that
    rejected it.
    """

    cut: dict[int, int]
    rejected: bool
    reason: str | None = None
    configuration: CandidateConfiguration | None = None


def _deviator_matchings(inst: Instance, devs: list[int]):
    """Yield every matching the deviators can choose, in product order.

    Deviator devs[i] tries the entries of its list that rank it back
    (Instance.mutual) in rank order, then unmatched, and devs[-1] varies
    fastest.  The walk backtracks as soon as a choice clashes: a non-deviator
    partner already taken, a deviator that already chose otherwise or is
    claimed by another deviator, or a claimed deviator not picking its
    claimant.  So it yields exactly the matchings of the full product of
    choices, in the product's order.  The walk keeps its own stack, so its
    depth is not bounded by Python's recursion limit.
    """
    options = [inst.mutual[d] + (None,) for d in devs]
    dev_set = frozenset(devs)
    partner: dict[int, int] = {}  # both ends of every pair placed so far
    pairs: list[tuple[int, int]] = []
    placed: list[int | None] = []  # per placed deviator: the partner it took
    tried = [0] * len(devs)  # per deviator: options tried so far

    while True:
        pos = len(placed)
        if pos == len(devs):
            yield Matching._trusted(frozenset(pairs), dict(partner))
        else:
            d = devs[pos]
            must = partner.get(d)  # a deviator that claimed d
            opts = options[pos]
            ok = False
            while not ok and tried[pos] < len(opts):
                c = opts[tried[pos]]
                tried[pos] += 1
                if must is not None:
                    ok, took = c == must, None
                elif c is None or c == d:
                    ok, took = True, None
                else:  # a later deviator or a non-deviator, not yet paired
                    ok, took = c not in partner and (c > d or c not in dev_set), c
            if ok:
                if took is not None:
                    partner[d], partner[took] = took, d
                    pairs.append((d, took) if d < took else (took, d))
                placed.append(took)
                continue
            tried[pos] = 0
        if not placed:
            return
        took = placed.pop()
        if took is not None:
            del partner[devs[len(placed)]], partner[took]
            pairs.pop()


def _tolerable(p: DeviatorProblem) -> list:
    """The sorted pool tolerated sets are drawn from.

    Canonical (smaller id first) deviator pairs under the pair objective,
    the deviators themselves under the agent objective.
    """
    if p.objective is Objective.BLOCKING_AGENTS:
        return sorted(p.deviators)
    return sorted({(d, r) if d < r else (r, d) for d in p.deviators for r in p.instance.prefs[d]})


def _free(pool: list, m_c: Matching, by_pairs: bool) -> list:
    """The part of pool a tolerated set with m_c may hold: under bp, never a pair of m_c."""
    return [b for b in pool if b not in m_c.pairs] if by_pairs else pool


def enumerate_configurations(p: DeviatorProblem, k: int, *, _sweep: _Sweep | None = None):
    """Yield every candidate configuration for budget k, in a fixed order.

    Deviators are processed in ascending id; each picks a partner from its
    own list in rank order, or unmatched last.  Combinations that are not
    matchings (a deviator pair without reciprocity, or a partner claimed
    twice) never appear.  Each matching is then crossed with every
    tolerated set: sizes 0..k, lexicographic within a size, drawn from the
    canonical deviator pairs (pair objective; sets clashing with the
    matching are skipped) or from the deviators themselves (agent
    objective).

    _sweep is internal: given a part's _Sweep, the candidate matchings come
    scanned from it, each with the pool its tolerated sets are drawn from,
    computed once when the candidate is scanned, so no later budget builds
    it again.  Each configuration carries its candidate's triggers, and a
    candidate whose floor exceeds k yields nothing.  Its configurations
    still count in the index, so every index is the one the full stream
    gives.
    """
    if _sweep is None:
        pool, by_pairs = _tolerable(p), p.objective is Objective.BLOCKING_PAIRS
        scanned = ((m_c, None, 0, _free(pool, m_c, by_pairs))
                   for m_c in _deviator_matchings(p.instance, sorted(p.deviators)))
    else:
        scanned = _sweep.scanned()
    index = 0
    for m_c, triggers, floor, free in scanned:
        if floor > k:
            index += sum(math.comb(len(free), size) for size in range(k + 1))
            continue
        for size in range(k + 1):
            for blocked in itertools.combinations(free, size):
                yield CandidateConfiguration(m_c, frozenset(blocked), index, triggers)
                index += 1


def _scan(p: DeviatorProblem, m_c: Matching, devs: list[int]) -> tuple[list, int]:
    """A candidate matching's triggers and floor: core._triggers over devs, the sorted deviators.

    A breaking trigger (d, r, back, breaks) is a blocking pair of M_C whose
    end across from d keeps its partner in every completion, so it blocks
    whatever the tolerated set: the floor counts those pairs, or the
    deviators in them under the agent objective.
    """
    triggers = _triggers(p.instance, m_c._partner, devs)
    locked = {(d, r) if d < r else (r, d) for d, r, _, breaks in triggers if breaks}
    if p.objective is Objective.BLOCKING_AGENTS:
        locked = {a for pair in locked for a in pair} & p.deviators
    return triggers, len(locked)


def truncate_and_collect(
    p: DeviatorProblem, cfg: CandidateConfiguration, triggers: list
) -> TruncationResult:
    """Apply the must-match truncation rule for one configuration.

    triggers are the candidate matching's, from _scan.  Each one the
    tolerated set does not cover cuts its agent, so an agent triggered by
    several deviators is cut once, at the best-ranked one.  Rejects when
    tolerated pairs overlap the candidate matching or when an uncovered
    trigger breaks a matched pair.  Reads no preference list.
    """
    m_c, blocked = cfg.candidate_matching, cfg.blocked_set
    by_pairs = p.objective is Objective.BLOCKING_PAIRS

    if by_pairs and not blocked.isdisjoint(m_c.pairs):
        return TruncationResult({}, True, "tolerated pair is matched", cfg)

    cut: dict[int, int] = {}
    for d, r, back, breaks in triggers:
        if (((d, r) if d < r else (r, d)) if by_pairs else d) in blocked:
            continue
        if back < cut.get(r, _UNRANKED):
            cut[r] = back
        if breaks:
            i, j = sorted((r, m_c.partner_of(r)))
            reason = f"matched pair ({i}, {j}) falls to the truncation of {r}"
            return TruncationResult(cut, True, reason, cfg)
    return TruncationResult(cut, False, None, cfg)


def extend_via_weighted_matching(
    p: DeviatorProblem, trunc: TruncationResult, target_size: int | None
) -> Matching | None:
    """Complete a truncated configuration by one Q-first matching, or reject.

    Lists are read through Instance.mutual and trunc.cut: agent i keeps
    the entries it ranks above cut[i] (prefs[i][:cut[i] - 1] on a
    validated instance), and j still accepts i when i ranks above
    cut.get(j, infinity) on j's list, so only the cut's agents have their
    rank tables read.  The graph is on the agents of p's part, already
    numbered 1..n; those the candidate matching covers get no edges.  The
    must-match set Q is the cut's agents.  classic.covering_matching grows
    a tree from each exposed agent of Q first, and with a target size
    (maximum-cardinality and perfect regimes) then augments from every
    other exposed agent, so the augmenting order does what the weights
    n + |e ∩ Q| (|e ∩ Q| without a target) of a weighted matching used
    to: maximum cardinality first, Q covered second.  The result is
    rejected unless all of Q is matched and the combined size reaches the
    target.  Without a target and with Q empty the extension is the empty
    matching, returned before any adjacency is built.  Returns the
    extension matching alone; None means reject.  The function keeps the
    name of the weighted version it replaced, under which perfbench's
    tracer probes it.
    """
    inst = p.instance
    cut = trunc.cut
    m_c = trunc.configuration.candidate_matching
    matched = m_c.matched_agents()
    must = [r for r in sorted(cut) if r not in matched]
    if any(cut[r] == 1 for r in must):
        return None
    if not must and target_size is None:
        return Matching._trusted(frozenset(), {})

    mutual, ranks = inst.mutual, inst.ranks
    adj = [()] + [[] if i in matched else [
        j for j in mutual[i]
        if j not in matched and (i not in cut or ranks[i][j] < cut[i])
        and (j not in cut or ranks[j][i] < cut[j])
    ] for i in inst.agents()]
    mate = covering_matching(adj, must, target_size is not None)
    if mate is None:
        return None
    m_ext = _mate_matching(mate)
    if target_size is not None and len(m_c.pairs) + len(m_ext.pairs) < target_size:
        return None
    return m_ext


@dataclass
class _Sweep:
    """The budget-independent part of one part's search, shared by its budgets.

    search hands the sweep to each budget's solve_fpt walk as its _sweep
    argument.  problem is the part's problem, with no budget.  target is
    the maximum matching size (None in the any-size regime), and pool the
    tolerated sets' pool.  values maps a memo key (candidate matching, cut)
    to the value of its extension, or to None when the extension is
    rejected.  It depends on the configuration alone, so every
    budget reuses it.  Only values are kept, not matchings, which in the
    maximum-cardinality regime span the whole part: an extension is redone
    only when its value fits the budget, which ends the search.

    Each candidate matching is walked and scanned once per sweep: walk is
    the one _deviator_matchings walk the budgets share, over the deviators
    sorted once, and kept holds its scanned entries (m_c, triggers, floor,
    free) while keep is set, which search does whenever another budget
    follows.  free is the part of pool the candidate's tolerated sets are
    drawn from, built when the candidate is scanned.  A later budget replays
    kept and then goes on with walk, so a sweep that is only decided keeps
    nothing.
    """

    problem: DeviatorProblem
    target: int | None
    values: dict = field(default_factory=dict)
    keep: bool = False
    kept: list = field(default_factory=list)
    pool: list = field(init=False)
    walk: Iterator = field(init=False, repr=False)

    def __post_init__(self):
        p = self.problem
        pool = self.pool = _tolerable(p)
        by_pairs, devs = p.objective is Objective.BLOCKING_PAIRS, sorted(p.deviators)
        # a walk over p, not self, so a finished sweep is freed without the cyclic collector
        self.walk = ((m_c, *_scan(p, m_c, devs), _free(pool, m_c, by_pairs))
                     for m_c in _deviator_matchings(p.instance, devs))

    @classmethod
    def of(cls, p: DeviatorProblem) -> "_Sweep":
        """The sweep of p, a part's problem with no budget."""
        target = None
        if p.size_regime is not SizeRegime.ANY:
            target = max_cardinality_size(p.instance)
        return cls(p, target)

    def scanned(self):
        """Every candidate matching's entry: the kept ones, then the rest of the shared walk."""
        yield from self.kept
        # A loop, not yield from: closing an abandoned stream must not close the walk.
        for entry in self.walk:
            if self.keep:
                self.kept.append(entry)
            yield entry

    def search(self, budgets) -> SolveOutcome | None:
        """The outcome at the first of budgets that works, or None; each walk gets this sweep."""
        p = self.problem
        for t, k in enumerate(budgets, start=1):
            self.keep = t < len(budgets)
            at_k = DeviatorProblem(p.instance, p.deviators, p.objective, p.size_regime, k)
            out = solve_fpt(at_k, _sweep=self)
            if out.feasible:
                return out
        return None


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

    for cfg in enumerate_configurations(p, k, _sweep=sweep):
        trunc = truncate_and_collect(p, cfg, cfg.triggers)
        if trunc.rejected:
            continue
        m_c = cfg.candidate_matching
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
        # the extension leaves m_c's agents alone, so the two are disjoint
        combined = Matching._trusted(m_c.pairs | m_ext.pairs, {**m_c._partner, **m_ext._partner})
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
    no candidate matching is scanned twice, and an extension that failed a
    smaller budget is not redone unless its value fits.
    """
    if p.budget is not None:
        raise ValueError("optimize_fpt expects no budget")
    return _solve_in_parts(p)


def _restrict(inst: Instance, agents: list[int]) -> Instance:
    """The sub-instance on ascending agents; agents[i - 1] becomes agent i.

    Entries outside agents are dropped, as a ball's outer lists reach
    distance three.  Every agent gives inst itself.  Both ends of a pair
    are kept or dropped together, so a validated inst's sub-instance reads
    Instance.mutual off its lists too.
    """
    if len(agents) == inst.num_agents:
        return inst
    new = {a: i for i, a in enumerate(agents, start=1)}
    prefs = ((),) + tuple(tuple(new[j] for j in inst.prefs[a] if j in new) for a in agents)
    sub = Instance(len(agents), prefs, inst.sides and tuple(inst.sides[a] for a in agents))
    return _inherit_mutual(sub, inst)


def _parts(p: DeviatorProblem) -> tuple[list[tuple[_Sweep, list[int]]], list[int]]:
    """The sweeps of p's parts with their agents, and the idle agents, all ascending.

    One walk along the lists starts from each unreached deviator in ascending
    id and labels what it reaches with that deviator, so parts come in order
    of least deviator; acceptability is symmetric, so it finds components.
    In the any-size regime it follows only edges with an end in near, the
    deviators and their neighbours: each lies in one deviator's distance-two
    ball, so a part is a chain of overlapping balls.  Both ends count, as two
    balls may meet at an agent outside near.  Elsewhere every agent is near,
    so a part is a component with deviators and the idle agents are the
    unreached ones.
    """
    inst, devs = p.instance, p.deviators
    local = p.size_regime is SizeRegime.ANY
    near = devs.union(*(inst.prefs[d] for d in devs)) if local else inst.agents()
    label, reached = [0] * (inst.num_agents + 1), []
    for d in sorted(devs):
        if label[d]:
            continue
        label[d], stack = d, [d]
        while stack:
            v = stack.pop()
            reached.append(v)
            for j in inst.prefs[v]:
                if not label[j] and (v in near or j in near):
                    label[j] = d
                    stack.append(j)
    parts: dict[int, list[int]] = {d: [] for d in sorted(devs) if label[d] == d}
    idle = []
    for a in sorted(reached) if local else inst.agents():
        if label[a]:
            parts[label[a]].append(a)
        else:
            idle.append(a)
    return [(_Sweep.of(DeviatorProblem(_restrict(inst, c),
                                       {i for i, a in enumerate(c, 1) if a in devs},
                                       p.objective, p.size_regime)), c)
            for c in parts.values()], idle


def _solve_in_parts(p: DeviatorProblem) -> SolveOutcome:
    """Search p's parts one by one and join them with a maximum matching of the idle agents.

    Under a budget every part but the last is optimized within the budget
    left and the last is only decided at it, so one part is one walk.
    """
    sweeps, idle = _parts(p)
    partner: dict[int, int] = {}  # the whole's partner map, joined from the parts' disjoint ones
    if idle:
        m = max_cardinality_matching(_restrict(p.instance, idle))
        partner.update([(idle[i - 1], idle[j - 1]) for i, j in m._partner.items()])
    if p.size_regime is SizeRegime.PERFECT and (len(partner) != len(idle) or any(
        2 * s.target != s.problem.instance.num_agents for s, _ in sweeps
    )):
        if p.budget is None:
            raise PerfectInfeasible("no perfect matching exists")
        return SolveOutcome.infeasible(_note(p))
    total, indices = 0, []
    for t, (sweep, ids) in enumerate(sweeps, start=1):
        # no value exceeds the pool's size, so no larger budget is tried
        limit = len(sweep.pool)
        if p.budget is not None:
            limit = min(limit, p.budget - total)
        decide = p.budget is not None and t == len(sweeps)
        out = sweep.search((limit,) if decide else range(limit + 1))
        if out is None:
            assert p.budget is not None, "the largest budget tolerates every candidate pair"
            return SolveOutcome.infeasible(_note(p))
        if sweep.problem.instance is p.instance:  # the one part is the whole: out is the answer
            return out
        total += out.value
        indices.append(out.certificate_note.rpartition("#")[2])
        partner.update([(ids[i - 1], ids[j - 1]) for i, j in out.matching._partner.items()])
    # Parts all accepted at their configuration #0, or no parts, make up the whole's #0.
    index = "0" if set(indices) <= {"0"} else "+".join(indices)
    pairs = frozenset([(i, j) for i, j in partner.items() if i < j])
    return SolveOutcome.solution(Matching._trusted(pairs, partner), total, _note(p, index))


def solve_bipartite_restriction(p: DeviatorProblem) -> Matching | None:
    """A matching with no deviator blocking pair, certified by Irving's algorithm.

    Let H keep the deviators and the agents on their lists, relabelled in
    ascending id, and only the edges that touch a deviator, each list in
    its original order (Irving's table reads Instance.mutual).  Any
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
    # H keeps or drops each edge from both its ends, so it is as mutual as p's instance
    try:
        m = irving_sr(_inherit_mutual(Instance(len(agents), h), p.instance))
    except Unsolvable:
        return None
    return Matching(frozenset((agents[i - 1], agents[j - 1]) for i, j in m.pairs))
