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
drops a clash as soon as it appears and scans each at its leaf, off rows of
the deviators' lists read once per part (_candidates), for its floor and
the triggers every truncation reads.  The cut is a dict rather than a copy
of the instance, and values are counted off core.blocking_report's scan.
The solver reads no list at acceptability-distance three or more from the
deviators (the tests record every read of Instance.prefs), and every part
is cut all mutual, so it builds rank tables only of its deviators and
their entries, and the idle agents none.

Both entry points search independent parts one by one and add up their
optima, exactly: a blocking pair is an edge, so both objectives add up over
parts no edge joins.  A part is a sub-instance relabelled in ascending id,
found by one walk from the deviators: a deviator group's distance-two ball
in the any-size regime, where blocking pairs depend only on partners that
close, and else a component, as matching sizes add up.  Under a budget the
last part is only decided.

Each part tries budgets 0, 1, 2, ... in turn.  What does not depend on the
budget (the maximum matching size, the tolerated pool, the candidate
matchings' records with their live keys, extension values) lives in the
part's _Sweep, which hands itself to each budget's solve_fpt walk as the
keyword-only _sweep argument; the module keeps no state between calls.
So each candidate matching is walked and scanned once per part, and later
budgets replay the kept records.  A walk yields only the configurations its
budget can accept: none of a candidate whose floor exceeds the budget;
of the others, only tolerated sets that hold every key of a breaking
trigger and of a first-choice trigger (its agent is free and ranks the
deviator first, so its cut would leave it nothing to match) and no key
outside the triggers; and, once the smaller budgets have been walked,
only sets of the budget's size, since an accepted configuration's value
is at most its set's size.

A solution names what it accepted in SolveOutcome.accepted: each part's
candidate matching and tolerated set, which truncation and extension turn
back into that part's matching.  Its note names only the solver,
objective and regime (fpt-bp-any), not the configuration's position in
the stream, which a pruned walk could not count cheaply.
"""

from __future__ import annotations

import itertools
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
    _deviator_value,
    blocking_report,  # noqa: F401  (re-exported: callers reach it as fpt.blocking_report)
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
    blocking deviators under the agent objective.  In a search's stream,
    triggers and key (its pairs tuple, the memo's key) come from the
    candidate's record (_candidates); the full enumeration leaves them None.
    """

    candidate_matching: Matching
    blocked_set: frozenset
    triggers: list | None = field(default=None, compare=False, repr=False)
    key: tuple | None = field(default=None, compare=False, repr=False)


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


def _walk(inst: Instance, devs: list[int]):
    """Walk every matching the deviators can choose, in product order.

    Deviator devs[i] tries the entries of its list that rank it back
    (Instance.mutual) in rank order, then unmatched, and devs[-1] varies
    fastest.  The walk backtracks as soon as a choice clashes: a non-deviator
    partner already taken, a deviator that already chose otherwise or is
    claimed by another deviator, or a claimed deviator not picking its
    claimant.  So it reaches exactly the matchings of the full product of
    choices, in the product's order.  At each it yields the same live
    objects: the pairs, their partner map and, per deviator, the count of
    options tried, its choice last.  It keeps its own stack, so its depth is
    not bounded by Python's recursion limit.
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
            yield pairs, partner, tried
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


def _deviator_matchings(inst: Instance, devs: list[int]):
    """Yield every matching the deviators can choose, in _walk's order."""
    for pairs, partner, _ in _walk(inst, devs):
        yield Matching._trusted(frozenset(pairs), dict(partner))


def _tolerable(p: DeviatorProblem) -> list:
    """The sorted pool tolerated sets are drawn from.

    Canonical (smaller id first) deviator pairs under the pair objective,
    the deviators themselves under the agent objective.
    """
    if p.objective is Objective.BLOCKING_AGENTS:
        return sorted(p.deviators)
    return sorted({(d, r) if d < r else (r, d) for d in p.deviators for r in p.instance.prefs[d]})


def enumerate_configurations(p: DeviatorProblem, k: int, *, _sweep: _Sweep | None = None):
    """Yield every candidate configuration for budget k, in a fixed order.

    Deviators are processed in ascending id; each picks a partner from its
    own list in rank order, or unmatched last.  Combinations that are not
    matchings (a deviator pair without reciprocity, or a partner claimed
    twice) never appear.  Each matching is then crossed with every
    tolerated set: sizes 0..k, lexicographic within a size, drawn from the
    canonical deviator pairs (pair objective; sets clashing with the
    matching are skipped) or from the deviators themselves (agent
    objective).  This is the full stream.

    _sweep is internal: given a part's _Sweep, the candidate matchings come
    as its records, and only configurations the budget can accept are
    yielded, each with its candidate's triggers and key; a candidate's
    Matching is built only when it yields.  A candidate whose floor
    exceeds k yields nothing.  Of the others, only tolerated sets B that
    hold every key of locked and no key outside locked and loose (the
    record's masks) are yielded: a set missing a locked key is rejected, by
    truncation when the key's trigger breaks a pair of M_C and by the
    extension when it is a first-choice trigger, whose agent it cuts to
    nothing though that agent must be matched; a set holding a key with no
    trigger has the cut of its part inside the triggers' keys, which comes
    earlier and is answered the same.  When the sweep's least
    is k, only sets of size k are yielded: a smaller set was tried by the
    walk at its own size's budget (_Sweep.search).  The sets come as locked
    plus the combinations of loose, which keeps the full stream's
    lexicographic order, since two sets of one size compare by their
    symmetric difference.
    """
    if _sweep is None:
        pool, by_pairs = _tolerable(p), p.objective is Objective.BLOCKING_PAIRS
        for m_c in _deviator_matchings(p.instance, sorted(p.deviators)):
            free = [b for b in pool if b not in m_c.pairs] if by_pairs else pool
            for size in range(k + 1):
                for blocked in itertools.combinations(free, size):
                    yield CandidateConfiguration(m_c, frozenset(blocked))
        return

    pool, least = _sweep.pool, _sweep.least
    for pairs, partner, triggers, floor, locked, loose in _sweep.scanned():
        fewest = locked.bit_count()
        sizes = range(max(least, fewest), min(k, fewest + loose.bit_count()) + 1)
        if floor <= k and sizes:
            m_c = Matching._trusted(frozenset(pairs), partner)
            bits = [1 << i for i in range(loose.bit_length()) if loose >> i & 1]  # ascending
            for size in sizes:
                for extra in itertools.combinations(bits, size - fewest):
                    held = locked | sum(extra)
                    blocked = [pool[i] for i in range(held.bit_length()) if held >> i & 1]
                    yield CandidateConfiguration(m_c, frozenset(blocked), triggers, pairs)


def _candidates(p: DeviatorProblem, pool: list) -> Iterator[tuple]:
    """Each candidate matching M_C's record (pairs, partner, triggers, floor, locked, loose).

    pairs and partner are M_C's.  The triggers (d, r, back, breaks) are
    core._triggers' scan of the sorted deviators, read off rows of each
    deviator's list built once in the walk's option order: M_C's are each
    deviator's rows above its choice.  A breaking trigger blocks whatever
    the tolerated set, so the floor counts them (their pairs, or their
    deviators under the agent objective).  A key (the canonical pair, or d
    under the agent objective) is the bit of its place in pool.  locked
    holds the keys every extendable tolerated set holds and loose the
    other triggers' keys: a breaking trigger's key is locked, as truncation
    rejects a set without it, and so, after the floor is counted, is a
    first-choice trigger's (back == 1 and not breaking: r is free and ranks
    d first, so its cut would leave it nothing though it must be matched).
    """
    inst, devs = p.instance, sorted(p.deviators)
    by_pairs = p.objective is Objective.BLOCKING_PAIRS
    spot = {b: i for i, b in enumerate(pool)}
    mutual, ranks, table = inst.mutual, inst.ranks, []
    for d in devs:
        rows = []
        for r in mutual[d]:
            back = ranks[r][d]
            bit = 1 << spot[((d, r) if d < r else (r, d)) if by_pairs else d]
            one = bit if back == 1 else 0  # r ranks d first: if r is free, its cut leaves it nothing
            rows.append((r, ranks[r], back, bit, one, (d, r, back, False), (d, r, back, True)))
        table.append(rows)
    for pairs, partner, tried in _walk(inst, devs):
        triggers, locked, first, loose = [], 0, 0, 0
        for d, rows, t in zip(devs, table, tried):
            for r, theirs, back, bit, one, calm, breaking in rows[:t - 1] if d in partner else rows:
                mate = partner.get(r)
                if mate is not None and back < theirs[mate]:
                    triggers.append(breaking)
                    locked |= bit
                else:
                    triggers.append(calm)
                    first, loose = first | one, loose | bit
        floor = locked.bit_count()
        if not by_pairs and locked:  # a locked pair of two deviators counts both
            floor = len({a for d, r, _, breaks in triggers if breaks for a in (d, r)} & p.deviators)
        locked |= first
        yield tuple(pairs), dict(partner), triggers, floor, locked, loose & ~locked


def truncate_and_collect(
    p: DeviatorProblem, cfg: CandidateConfiguration, triggers: list
) -> TruncationResult:
    """Apply the must-match truncation rule for one configuration.

    triggers are the candidate matching's (_candidates).  Each one the
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
    matching, returned before any adjacency is built.  An agent of Q cut at
    rank 1 has no edge, so covering_matching rejects it; the sweep never
    yields such a cut, as _candidates locks the first-choice trigger behind it
    into every tolerated set, but the full stream does.  Returns the
    extension matching alone; None means reject.  The function keeps the
    name of the weighted version it replaced, under which perfbench's
    tracer probes it.
    """
    inst = p.instance
    cut = trunc.cut
    m_c = trunc.configuration.candidate_matching
    matched = m_c.matched_agents()
    must = [r for r in sorted(cut) if r not in matched]
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
    the maximum matching size (None in the any-size regime), pool the
    tolerated sets' pool and note the certificate note of every walk's
    outcome, formatted once.  values, the extension memo, maps a
    candidate's key (its pairs tuple) to {cut: the extension's value, or
    None when rejected}.  A value depends on the configuration alone, so
    every budget reuses it.  Matchings, which in the maximum-cardinality
    regime span the whole part, are not kept: an extension is redone only
    when its value fits the budget, which ends the search.

    Each candidate matching is walked and scanned once per sweep: walk is
    the _candidates walk the budgets share, and kept holds its records while
    keep is set, which search does whenever another budget follows.  A
    later budget replays kept and goes on with walk.  A sweep only decided
    keeps no record and drops each candidate's memo once its walk has
    passed it.  least is the smallest tolerated set a walk yields: search
    sets it to the budget once every smaller budget has been walked.
    """

    problem: DeviatorProblem
    target: int | None
    values: dict = field(default_factory=dict)
    keep: bool = False
    least: int = 0
    kept: list = field(default_factory=list)
    pool: list = field(init=False)
    note: str = field(init=False)
    walk: Iterator = field(init=False, repr=False)

    def __post_init__(self):
        p = self.problem
        self.pool, self.note = _tolerable(p), _note(p)
        # a walk over p and pool, not self: a finished sweep is freed without the cyclic collector
        self.walk = _candidates(p, self.pool)

    @classmethod
    def of(cls, p: DeviatorProblem) -> "_Sweep":
        """The sweep of p, a part's problem with no budget."""
        target = None
        if p.size_regime is not SizeRegime.ANY:
            target = max_cardinality_size(p.instance)
        return cls(p, target)

    def scanned(self):
        """Every candidate's record: the kept ones, then the rest of the shared walk."""
        yield from self.kept
        # A loop, not yield from: closing an abandoned stream must not close the walk.
        for entry in self.walk:
            if self.keep:
                self.kept.append(entry)
            yield entry

    def search(self, budgets) -> SolveOutcome | None:
        """The outcome at the first of budgets that works, or None; each walk gets this sweep.

        budgets is one budget, only decided, or 0, 1, 2, ... in turn.  After
        budget 0, each walk yields only tolerated sets of its budget's size:
        an accepted configuration's value is at most its set's size, so one
        with a smaller set would put the optimum below the budget, where an
        earlier walk has already failed.
        """
        p = self.problem
        for t, k in enumerate(budgets, start=1):
            self.keep, self.least = t < len(budgets), k if t > 1 else 0
            out = solve_fpt(p._with_budget(k), _sweep=self)
            if out.feasible:
                return out
        return None


def _note(p: DeviatorProblem) -> str:
    return f"fpt-{p.objective.value}-{p.size_regime.value}"


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

    candidate = memo = None
    for cfg in enumerate_configurations(p, k, _sweep=sweep):
        trunc = truncate_and_collect(p, cfg, cfg.triggers)
        if trunc.rejected:
            continue
        m_c = cfg.candidate_matching
        if cfg.key is not candidate:  # a decided walk meets each once: its memo leaves the sweep
            candidate, values = cfg.key, sweep.values
            memo = values.setdefault(candidate, {}) if sweep.keep else values.pop(candidate, {})
        # A cut met before, under this budget or a smaller one, is skipped
        # unless its value now fits: its extension would come out the same.
        cut = tuple(sorted(trunc.cut.items()))
        if cut in memo:
            known = memo[cut]
            if known is None or known > k:
                continue
        m_ext = extend_via_weighted_matching(p, trunc, sweep.target)
        if m_ext is None:
            memo[cut] = None
            continue
        # the extension leaves m_c's agents alone, so the two are disjoint
        combined = Matching._trusted(m_c.pairs | m_ext.pairs, {**m_c._partner, **m_ext._partner})
        value = _deviator_value(p.instance, combined._partner, p.deviators, p.objective)
        memo[cut] = value
        if value <= k and (
            p.size_regime is SizeRegime.ANY or verify_solution(p, combined, value)
        ):
            return SolveOutcome.solution(combined, value, sweep.note,
                                         ((m_c.pairs, cfg.blocked_set),))
    return SolveOutcome.infeasible(sweep.note)


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
    """The sub-instance on ascending agents, all mutual; agents[i - 1] becomes agent i.

    Every agent gives inst itself.  Otherwise the relabelling drops entries
    outside agents, as a ball's outer lists reach distance three, and
    one-sided entries, found as validate_instance finds them with one set
    per list (a validated inst has none).  So the cut is marked all mutual:
    no part or idle matching builds a rank table to read Instance.mutual.
    The lists come from a constructed instance, so Instance._trusted builds it.
    """
    if len(agents) == inst.num_agents:
        return inst
    new, prefs = {a: i for i, a in enumerate(agents, start=1)}, inst.prefs
    ranked = None if inst._all_mutual else {a: frozenset(prefs[a]) for a in agents}
    lists = [tuple([new[j] for j in prefs[a] if j in new and (ranked is None or a in ranked[j])])
             for a in agents]
    sides = inst.sides and (0,) + tuple(inst.sides[a] for a in agents)
    return Instance._trusted(len(agents), ((), *lists), sides, all_mutual=True)


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
    return [(_Sweep.of(DeviatorProblem._trusted(
                _restrict(inst, c), frozenset([i for i, a in enumerate(c, 1) if a in devs]),
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
    by_pairs = p.objective is Objective.BLOCKING_PAIRS
    total, accepted = 0, []
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
        partner.update([(ids[i - 1], ids[j - 1]) for i, j in out.matching._partner.items()])
        [(m_c, blocked)] = out.accepted
        accepted.append((
            frozenset([(ids[i - 1], ids[j - 1]) for i, j in m_c]),
            frozenset([(ids[i - 1], ids[j - 1]) for i, j in blocked] if by_pairs
                      else [ids[d - 1] for d in blocked]),
        ))
    pairs = frozenset([(i, j) for i, j in partner.items() if i < j])
    return SolveOutcome.solution(Matching._trusted(pairs, partner), total, _note(p),
                                 tuple(accepted))


def solve_bipartite_restriction(p: DeviatorProblem) -> Matching | None:
    """A matching with no deviator blocking pair, certified by Irving's algorithm.

    Let H keep the deviators and the agents on their lists, relabelled in
    ascending id, and only the mutual edges that touch a deviator, each
    list in its original order, so H is all mutual (one-sided entries are
    dropped as _restrict drops them).  Any deviator blocking pair is an
    edge of H ranked as in p, so a stable matching of H has none in p;
    Irving's algorithm (Irving 1985) finds one whenever H has one, and a
    bipartite H always has one (Gale & Shapley 1962).  Returns None when H
    has no stable matching.  The name is historical: this test once
    two-coloured H and ran the proposal algorithm on the two sides.
    """
    if p.size_regime is not SizeRegime.ANY:
        raise ValueError("the bipartite restriction works in the any-size regime")
    prefs, devs = p.instance.prefs, p.deviators
    agents = sorted(devs.union(*(prefs[d] for d in devs)))
    new = {a: i for i, a in enumerate(agents, start=1)}
    ranked = None if p.instance._all_mutual else {a: frozenset(prefs[a]) for a in agents}
    h = ((),) + tuple(tuple(new[j] for j in prefs[a] if (a in devs or j in devs)
                            and (ranked is None or a in ranked[j])) for a in agents)
    try:
        m = irving_sr(Instance._trusted(len(agents), h, all_mutual=True))
    except Unsolvable:
        return None
    return Matching(frozenset((agents[i - 1], agents[j - 1]) for i, j in m.pairs))
