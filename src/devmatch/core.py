"""Core types and checks for stable matching with a designated deviator set.

Agents are numbered 1..n.  Preference lists are strict and may be incomplete;
an agent absent from another's list is unacceptable to it.  A matching is an
agent-disjoint set of mutually acceptable pairs; agents not in any pair are
unmatched.  A pair {i, j} blocks a matching when each side strictly prefers
the other to its current situation, where being unmatched is worse than any
acceptable partner.

Only instability touching a designated set of *deviators* counts here:
conformists tolerate blocking pairs, deviators do not.  The two objectives
are the number of blocking pairs containing at least one deviator, and the
number of deviators contained in at least one blocking pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import count


class InstanceError(ValueError):
    """An instance violates a structural requirement."""


class SelfRank(InstanceError):
    """An agent ranks itself."""


class DuplicateEntry(InstanceError):
    """A preference list mentions the same agent twice."""


class AsymmetricAcceptability(InstanceError):
    """Agent i ranks j but j does not rank i."""

    def __init__(self, i: int, j: int):
        super().__init__(f"agent {i} ranks agent {j}, but {j} does not rank {i}")
        self.i = i
        self.j = j


class SidedPairViolation(InstanceError):
    """A sided instance has an acceptable pair within one side."""


class VerificationError(ValueError):
    """A claimed solution fails verification."""


class RegimeViolation(VerificationError):
    """The matching does not belong to the requested matching family."""


class ValueMismatch(VerificationError):
    """The claimed objective value differs from the recomputed one."""


class BudgetExceeded(VerificationError):
    """The objective value exceeds the instability budget."""


class Objective(Enum):
    """What to minimise over the matching family."""

    BLOCKING_PAIRS = "bp"
    BLOCKING_AGENTS = "ba"


class SizeRegime(Enum):
    """The matching family optimised over."""

    ANY = "any"
    MAX_CARDINALITY = "max"
    PERFECT = "perfect"


_UNRANKED = 1 << 30  # the rank of an absent partner: below every list entry


class _PerAgent(dict):
    """agent -> build(agent), each value built on first access."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, agent: int):
        value = self[agent] = self.build(agent)
        return value


@dataclass(frozen=True)
class Instance:
    """A strict-preference matching instance.

    prefs[i] is agent i's preference list, most preferred first; prefs[0] is
    an unused placeholder so ids index directly.  sides, when present, tags
    each agent with side 0 or 1 (bipartite instances); it uses the same
    placeholder convention.

    Construction performs shape checks only (list count, id ranges); the
    semantic invariants live in validate_instance so that malformed data can
    still be constructed and then rejected with a precise error.
    Instance._trusted skips the shape checks and the copies they make.  It
    is for lists the library has just built and range-checked itself:
    fileio.parse_instance, before its validate_instance call, and fpt's
    sub-instances relabelled from a constructed instance (the search's
    parts and the zero certificate's H), which fpt passes as all_mutual, as
    it drops their one-sided and self entries.  Anything else, from inside
    the library or out, goes through Instance(...).
    """

    num_agents: int
    prefs: tuple[tuple[int, ...], ...]
    sides: tuple[int, ...] | None = None
    _all_mutual = False  # not a field: set once every entry is known to rank its agent back

    @classmethod
    def _trusted(cls, num_agents: int, prefs: tuple[tuple[int, ...], ...],
                 sides: tuple[int, ...] | None = None, all_mutual: bool = False) -> Instance:
        """The instance of prefs (tuples, ids in 1..num_agents, () first) and sides (0 first)."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "num_agents", num_agents)
        object.__setattr__(inst, "prefs", prefs)
        object.__setattr__(inst, "sides", sides)
        object.__setattr__(inst, "_all_mutual", all_mutual)
        return inst

    def __post_init__(self):
        n = self.num_agents
        if n < 0:
            raise InstanceError("agent count must be non-negative")
        prefs = tuple(tuple(lst) for lst in self.prefs)
        if len(prefs) != n + 1 or prefs[0] != ():
            raise InstanceError(
                "prefs needs an empty placeholder at index 0 and one list per agent"
            )
        for i in range(1, n + 1):
            for j in prefs[i]:
                if not 1 <= j <= n:
                    raise InstanceError(f"agent {i} ranks {j}, outside 1..{n}")
        object.__setattr__(self, "prefs", prefs)
        if self.sides is not None:
            sides = tuple(self.sides)
            if len(sides) == n:
                sides = (0,) + sides
            if len(sides) != n + 1 or any(s not in (0, 1) for s in sides[1:]):
                raise InstanceError("sides must assign 0 or 1 to every agent")
            object.__setattr__(self, "sides", (0,) + sides[1:])

    def agents(self) -> range:
        return range(1, self.num_agents + 1)

    @cached_property
    def d_max(self) -> int:
        """Length of the longest preference list."""
        return max((len(p) for p in self.prefs[1:]), default=0)

    @cached_property
    def ranks(self) -> dict[int, dict[int, int]]:
        """ranks[i][j] = 1-based position of j on i's list (absent: unacceptable).

        Each agent's table is built the first time it is asked for, so a
        solver that stays near a few agents reads only their lists however
        many agents the instance has.
        """
        prefs = self.prefs
        return _PerAgent(lambda i: dict(zip(prefs[i], count(1))))

    @cached_property
    def mutual(self) -> dict[int, tuple[int, ...]] | tuple[tuple[int, ...], ...]:
        """mutual[i] = i's list less i itself and the entries that do not rank i back.

        Solvers pair agents through this view or through both rank tables,
        so a one-sided or self entry, which validate_instance rejects, is
        never paired.  On an instance that validate_instance passed, or a
        sub-instance the configuration search cut dropping those entries,
        every entry is another agent that ranks its agent back, so mutual is
        prefs itself, as it is when first read, and builds no rank table.
        Elsewhere each agent's entry is built on first access from the rank
        tables.
        """
        prefs = self.prefs
        if self._all_mutual:
            return prefs
        ranks = self.ranks
        return _PerAgent(lambda i: tuple([j for j in prefs[i] if i in ranks[j] and j != i]))


def validate_instance(instance: Instance) -> None:
    """Check the semantic invariants, raising on the first violation found.

    Raises SelfRank, DuplicateEntry, AsymmetricAcceptability, or
    SidedPairViolation.  A validated instance has no agent ranking itself,
    no repeated entries, symmetric acceptability, and (when sided) only
    cross-side acceptable pairs.  Self-ranks and duplicates are checked
    agent by agent in ascending order, then acceptability at the first
    agent i ascending and the first j on i's list, then the sides.

    The checks read one set per list and build no rank table, so
    instance.ranks stays empty for the solver to fill.  Once every check
    has passed, the instance is marked as one whose entries are all mutual:
    its Instance.mutual is its prefs, so no solver builds a rank table to
    drop one-sided entries it cannot have.
    """
    prefs = instance.prefs
    accepts = [frozenset()]
    for i in instance.agents():
        lst = prefs[i]
        members = frozenset(lst)
        if i in members:
            raise SelfRank(f"agent {i} ranks itself")
        if len(members) != len(lst):
            raise DuplicateEntry(f"agent {i} lists a partner twice")
        accepts.append(members)
    for i in instance.agents():
        for j in prefs[i]:
            if i not in accepts[j]:
                raise AsymmetricAcceptability(i, j)
    sides = instance.sides
    if sides is not None:
        for i in instance.agents():
            side = sides[i]
            for j in prefs[i]:
                if sides[j] == side:
                    raise SidedPairViolation(
                        f"agents {i} and {j} are acceptable but share side {side}"
                    )
    object.__setattr__(instance, "_all_mutual", True)


@dataclass(frozen=True)
class Matching:
    """An agent-disjoint set of pairs; every agent not in a pair is unmatched.

    Matching(pairs) checks its pairs: no agent paired with itself and none
    in two pairs.  It stores each pair smaller id first, with the partner
    map _partner that every scan reads.  Matching._trusted skips those
    checks and takes the partner map as given.  It is for the solvers'
    own pairs, which are normalised and agent-disjoint by construction: a
    blossom search's mate array, the configuration search's candidate
    walk, and the union of two matchings on disjoint agents.  The search
    builds several per configuration, so proving each again would cost
    more than the scan that reads it.  Anything read from outside the
    library goes through Matching(pairs).
    """

    pairs: frozenset[tuple[int, int]]
    _partner: dict[int, int] = field(default=None, compare=False, repr=False)

    @classmethod
    def _trusted(cls, pairs: frozenset[tuple[int, int]], partner: dict[int, int]) -> Matching:
        """The matching of pairs (each i < j, agent-disjoint) whose partner map is partner."""
        m = object.__new__(cls)
        object.__setattr__(m, "pairs", pairs)
        object.__setattr__(m, "_partner", partner)
        return m

    def __post_init__(self):
        norm = set()
        partner: dict[int, int] = {}
        for p in self.pairs:
            i, j = p
            if i == j:
                raise ValueError(f"agent {i} cannot be paired with itself")
            if i > j:
                i, j = j, i
            norm.add((i, j))
        for i, j in norm:
            for a, b in ((i, j), (j, i)):
                if a in partner:
                    raise ValueError(f"agent {a} appears in two pairs")
                partner[a] = b
        object.__setattr__(self, "pairs", frozenset(norm))
        object.__setattr__(self, "_partner", partner)

    def partner_of(self, i: int) -> int:
        """Partner of agent i, or i itself when unmatched."""
        return self._partner.get(i, i)

    def is_matched(self, i: int) -> bool:
        return i in self._partner

    def matched_agents(self) -> frozenset[int]:
        return frozenset(self._partner)


def matching_size(matching: Matching) -> int:
    """Number of matched pairs."""
    return len(matching.pairs)


def is_perfect(instance: Instance, matching: Matching) -> bool:
    """True when every agent of the instance is matched."""
    return 2 * len(matching.pairs) == instance.num_agents


def _triggers(instance: Instance, mate: dict[int, int], agents):
    """The list of (i, j, back, breaks) per i in agents and j that i ranks above its partner.

    mate maps each matched agent to its partner, as Matching keeps it.  j
    runs over i's list down to that partner (all of it when i is unmatched),
    keeping the entries other than i that rank i back: back is i's rank on
    j's list, and breaks is set when j's partner ranks below i.  {i, j}
    blocks exactly when breaks is set or j is unmatched.
    """
    ranks, found = instance.ranks, []
    for i in agents:
        for j in instance.prefs[i][: ranks[i].get(mate.get(i), _UNRANKED) - 1]:
            theirs = ranks[j]
            back = theirs.get(i)
            # an unmatched j gets i as its partner: back < back fails
            if back is not None and j != i:
                found.append((i, j, back, back < theirs.get(mate.get(j, i), _UNRANKED)))
    return found


def _blocking_pairs_of(instance: Instance, mate: dict[int, int], agents) -> frozenset:
    """The blocking pairs with a member in agents, read off _triggers."""
    return frozenset([
        (i, j) if i < j else (j, i)
        for i, j, _, breaks in _triggers(instance, mate, agents)
        if breaks or j not in mate
    ])


@dataclass(frozen=True)
class BlockingReport:
    """The blocking pairs of a matching: the deviator view and the full one.

    deviator_pairs are the blocking pairs containing at least one deviator;
    deviator_agents are the deviators contained in at least one blocking
    pair.  blocking_pairs and blocking_agents cover every agent and are
    computed on first access.
    """

    instance: Instance = field(repr=False, compare=False)
    matching: Matching = field(repr=False, compare=False)
    deviator_pairs: frozenset[tuple[int, int]]
    deviator_agents: frozenset[int]

    @cached_property
    def blocking_pairs(self) -> frozenset[tuple[int, int]]:
        return _blocking_pairs_of(
            self.instance, self.matching._partner, self.instance.agents()
        )

    @cached_property
    def blocking_agents(self) -> frozenset[int]:
        return frozenset(a for pair in self.blocking_pairs for a in pair)


def blocking_report(
    instance: Instance,
    matching: Matching,
    deviators: frozenset[int] = frozenset(),
) -> BlockingReport:
    """Find the blocking pairs that touch the deviator set.

    A pair {i, j} blocks when i and j are mutually acceptable and each
    strictly prefers the other to its current partner; an unmatched agent
    prefers every acceptable partner.  Both views read the pairs off one
    scan, _triggers, which also values the configuration search's
    extensions: each scanned agent reads its own list down to its partner,
    checking each entry against that entry's rank table only.  The deviator
    view scans the deviators alone, so its cost does not grow with the
    number of agents; the full view scans every agent, in time linear in
    the total list length.
    """
    pairs = _blocking_pairs_of(instance, matching._partner, deviators)
    return BlockingReport(instance, matching, pairs, _deviators_in(pairs, deviators))


def _deviators_in(pairs: frozenset, deviators: frozenset[int]) -> frozenset[int]:
    """The deviators contained in at least one of pairs."""
    return frozenset(a for pair in pairs for a in pair if a in deviators)


def objective_value(report: BlockingReport, objective: Objective) -> int:
    """The deviator-restricted objective value given a blocking report."""
    if objective is Objective.BLOCKING_PAIRS:
        return len(report.deviator_pairs)
    return len(report.deviator_agents)


def _deviator_value(
    instance: Instance, mate: dict[int, int], deviators: frozenset[int], objective: Objective
) -> int:
    """objective_value of blocking_report's deviator view, read off the same scan without a report.

    mate is the matching's partner map.  The configuration search values
    every extension this way.
    """
    pairs = _blocking_pairs_of(instance, mate, deviators)
    if objective is Objective.BLOCKING_PAIRS:
        return len(pairs)
    return len(_deviators_in(pairs, deviators))


@dataclass(frozen=True)
class DeviatorProblem:
    """A deviator-stability question over an instance.

    budget None asks for the minimum objective value over the regime's
    matching family; an integer k asks whether value <= k is achievable.
    """

    instance: Instance
    deviators: frozenset[int]
    objective: Objective = Objective.BLOCKING_PAIRS
    size_regime: SizeRegime = SizeRegime.ANY
    budget: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "deviators", frozenset(self.deviators))
        for d in self.deviators:
            if not 1 <= d <= self.instance.num_agents:
                raise ValueError(f"deviator {d} is not an agent id")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be non-negative")

    @classmethod
    def _trusted(cls, instance: Instance, deviators: frozenset[int], objective: Objective,
                 size_regime: SizeRegime, budget: int | None = None) -> DeviatorProblem:
        """The problem of these fields, deviators (a frozenset of ids of instance) taken as checked.

        For problems derived from one that passed __post_init__: the
        configuration search's parts, whose deviators are relabelled from
        the whole's, and each budget's copy (_with_budget).
        """
        p = object.__new__(cls)
        p.__dict__.update(instance=instance, deviators=deviators, objective=objective,
                          size_regime=size_regime, budget=budget)
        return p

    def _with_budget(self, budget: int) -> DeviatorProblem:
        """This problem at a non-negative budget, its deviators taken as already checked."""
        return self._trusted(self.instance, self.deviators, self.objective, self.size_regime,
                             budget)


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a solve: a matching and its objective value, or infeasible.

    certificate_note names the algorithm that produced the outcome.  accepted
    is the configuration search's witness, empty from every other solver
    and on an infeasible outcome: one entry per part, in order of the
    part's least deviator, holding the part's accepted configuration as
    (its candidate matching's pairs, its tolerated set), in the problem's
    own agent ids.  The tolerated set holds canonical pairs under the pair
    objective and deviators under the agent objective.  Truncating and
    extending an entry, as the search did, gives back that part's matching.
    """

    matching: Matching | None
    value: int | None
    certificate_note: str
    accepted: tuple[tuple[frozenset, frozenset], ...] = field(default=(), compare=False)

    @property
    def feasible(self) -> bool:
        return self.matching is not None

    @classmethod
    def solution(cls, matching: Matching, value: int, certificate_note: str,
                 accepted: tuple = ()) -> "SolveOutcome":
        return cls(matching, value, certificate_note, accepted)

    @classmethod
    def infeasible(cls, certificate_note: str) -> "SolveOutcome":
        return cls(None, None, certificate_note)


def checked_value(problem: DeviatorProblem, matching: Matching, claimed_value=None) -> int:
    """Check a claimed solution against its problem and return its recomputed value.

    Verifies, in order: every pair is mutually acceptable, read as each
    end's membership on the other's list, so no rank table is built for it
    and, an agent being in at most one pair, each list is read at most
    once; the matching belongs to the regime's family (perfect matchings
    cover everyone, an odd agent count can never be perfect;
    maximum-cardinality matchings are compared against
    classic.max_cardinality_size, which runs the blossom search once per
    instance); the recomputed objective equals claimed_value, unless that
    is None; and the value respects the budget when one is set.  The first
    failing check raises VerificationError.
    """
    inst = problem.instance
    prefs = inst.prefs
    for i, j in matching.pairs:
        if i < 1 or j > inst.num_agents or j not in prefs[i] or i not in prefs[j]:
            raise VerificationError(f"pair ({i}, {j}) is not mutually acceptable")

    if problem.size_regime is SizeRegime.PERFECT:
        if not is_perfect(inst, matching):
            raise RegimeViolation("matching is not perfect")
    elif problem.size_regime is SizeRegime.MAX_CARDINALITY:
        from .classic import max_cardinality_size  # deferred: classic builds on core

        if matching_size(matching) != max_cardinality_size(inst):
            raise RegimeViolation("matching is not of maximum cardinality")

    report = blocking_report(inst, matching, problem.deviators)
    actual = objective_value(report, problem.objective)
    if claimed_value is not None and actual != claimed_value:
        raise ValueMismatch(f"claimed value {claimed_value}, recomputed {actual}")
    if problem.budget is not None and actual > problem.budget:
        raise BudgetExceeded(f"value {actual} exceeds budget {problem.budget}")
    return actual


def verify_solution(
    problem: DeviatorProblem,
    matching: Matching,
    claimed_value: int,
    strict: bool = False,
) -> bool:
    """True when checked_value(problem, matching, claimed_value) passes its checks.

    With strict=True the failing check's VerificationError propagates
    instead of False being returned.
    """
    try:
        checked_value(problem, matching, claimed_value)
    except VerificationError:
        if strict:
            raise
        return False
    return True
