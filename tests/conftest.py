"""Shared instance builders for the test suite."""

import random

from devmatch import core, fpt
from devmatch.core import DeviatorProblem, Instance, Matching, Objective, SizeRegime


class Unreachable:
    """Stands in for networkx where no code may reach it: any attribute fails."""

    def __getattr__(self, name):
        raise AssertionError(f"networkx.{name} reached")


def ordered_cycle(k: int) -> Instance:
    """k agents in a cycle, each preferring its successor to its predecessor."""
    prefs = [()]
    for i in range(1, k + 1):
        succ = i % k + 1
        pred = (i - 2) % k + 1
        prefs.append((succ, pred))
    return Instance(k, tuple(prefs), None)


def variable_gadget() -> Instance:
    """The isolated 8-agent gadget with two perfect matchings.

    Agents 1..4 are the x-side, 5..8 the y-side; agent r's list here is the
    gadget-internal part (the communication entry removed).
    """
    prefs = (
        (),
        (5, 6),
        (6, 7),
        (8, 7),
        (5, 8),
        (1, 4),
        (1, 2),
        (2, 3),
        (3, 4),
    )
    return Instance(8, prefs, (0, 0, 0, 0, 1, 1, 1, 1))


def problem(
    inst: Instance,
    deviators,
    objective=Objective.BLOCKING_PAIRS,
    regime=SizeRegime.ANY,
    budget=None,
) -> DeviatorProblem:
    return DeviatorProblem(inst, frozenset(deviators), objective, regime, budget)


def scan(p: DeviatorProblem, m_c: Matching) -> tuple:
    """(triggers, floor, locked, loose) of m_c as a sweep of p records them, read off core._triggers.

    The reference for the sweep's own scan (fpt._candidates): core's trigger
    scan of the sorted deviators, each trigger's key placed by its position
    in the sweep's pool, the breaking ones locked and counted by the floor
    (their pairs, or their deviators under the agent objective), then the
    first-choice ones (back == 1, not breaking) locked too.
    """
    spot = {b: i for i, b in enumerate(fpt._tolerable(p))}
    triggers = core._triggers(p.instance, m_c._partner, sorted(p.deviators))
    by_pairs = p.objective is Objective.BLOCKING_PAIRS
    locked = first = loose = 0
    for d, r, back, breaks in triggers:
        bit = 1 << spot[((d, r) if d < r else (r, d)) if by_pairs else d]
        if breaks:
            locked |= bit
        elif back == 1:
            first |= bit
        else:
            loose |= bit
    floor = locked.bit_count()
    if not by_pairs:
        floor = len({a for d, r, _, breaks in triggers if breaks for a in (d, r)} & p.deviators)
    locked |= first
    return triggers, floor, locked, loose & ~locked


def mutual_cut(inst: Instance, agents: list, touching=None) -> tuple:
    """inst's mutual lists of agents, relabelled 1..len(agents) in agents' order, () first.

    Entries outside agents are dropped, and so, given touching, are entries
    with neither end in it.
    """
    new = {a: i for i, a in enumerate(agents, start=1)}
    return ((),) + tuple(
        tuple(new[j] for j in inst.mutual[a]
              if j in new and (touching is None or a in touching or j in touching))
        for a in agents
    )


def with_one_sided_entries(inst: Instance, rng: random.Random, count: int) -> Instance | None:
    """inst with count one-sided entries: j put on i's list, at a random place.

    Each entry comes from its own pair {i, j} that neither end ranks, so
    none becomes mutual.  Returns None when no such pair exists.
    """
    prefs = [list(lst) for lst in inst.prefs]
    pairs = [(i, j) for i in inst.agents() for j in range(i + 1, inst.num_agents + 1)
             if j not in prefs[i]]
    if not pairs:
        return None
    for i, j in rng.sample(pairs, min(count, len(pairs))):
        if rng.random() < 0.5:
            i, j = j, i
        prefs[i].insert(rng.randint(0, len(prefs[i])), j)
    return Instance(inst.num_agents, tuple(map(tuple, prefs)), inst.sides)


def random_matching(inst: Instance, seed: int) -> Matching:
    """A random valid matching: shuffled greedy fill over mutual pairs."""
    rng = random.Random(seed)
    ranks = inst.ranks
    pairs = [
        (i, j)
        for i in inst.agents()
        for j in inst.prefs[i]
        if i < j and i in ranks[j]
    ]
    rng.shuffle(pairs)
    target = rng.randint(0, len(pairs))
    taken = []
    used = set()
    for i, j in pairs:
        if len(taken) == target:
            break
        if i not in used and j not in used:
            taken.append((i, j))
            used.update((i, j))
    return Matching(frozenset(taken))


class _ReadRecorder(tuple):
    """A prefs tuple that records whose lists are read into its read set.

    An index records that agent; a slice or an iteration records every
    index it covers, so no Python-level read goes unseen.
    """

    def __getitem__(self, key):
        self.read.update(range(len(self))[key] if isinstance(key, slice) else (key,))
        return super().__getitem__(key)

    def __iter__(self):
        self.read.update(range(len(self)))
        return super().__iter__()


def record_list_reads(inst: Instance) -> set:
    """Swap inst's prefs for a recording copy; return the set of agents whose lists get read.

    Swap before inst.ranks is first used, so its tables' reads are recorded too.
    """
    prefs = _ReadRecorder(inst.prefs)
    prefs.read = set()
    object.__setattr__(inst, "prefs", prefs)
    return prefs.read


def beyond_distance_two(inst: Instance, deviators) -> set:
    """The agents at acceptability-distance three or more from the deviators, or unreachable."""
    seen = set(deviators)
    frontier = list(seen)
    for _ in range(2):
        frontier = [j for v in frontier for j in inst.prefs[v] if j not in seen]
        seen.update(frontier)
    return set(inst.agents()) - seen


def relabel_instance(inst: Instance, perm: dict) -> Instance:
    """Apply an agent permutation {old: new} to an instance."""
    n = inst.num_agents
    prefs = [()] * (n + 1)
    sides = [0] * (n + 1) if inst.sides is not None else None
    for i in inst.agents():
        prefs[perm[i]] = tuple(perm[j] for j in inst.prefs[i])
        if sides is not None:
            sides[perm[i]] = inst.sides[i]
    return Instance(n, tuple(prefs), tuple(sides[1:]) if sides else None)


def induce(inst: Instance, agents: list) -> Instance:
    """Subinstance on the given agents, relabeled 1..k in list order."""
    remap = {a: i for i, a in enumerate(agents, start=1)}
    prefs = [()]
    for a in agents:
        prefs.append(tuple(remap[b] for b in inst.prefs[a] if b in remap))
    sides = None
    if inst.sides is not None:
        sides = tuple(inst.sides[a] for a in agents)
    return Instance(len(agents), tuple(prefs), sides)


def random_22e3_formula(n: int, rng: random.Random):
    """Random 3-CNF where every variable occurs exactly twice per polarity.

    Draws the 4n literal slots as one shuffled sequence and rechunks until
    no clause repeats a variable, so all formulas with that occurrence
    profile are reachable.
    """
    from devmatch.reductions import CnfFormula

    if n % 3:
        raise ValueError("variable count must be divisible by 3")
    slots = [v for v in range(1, n + 1) for _ in range(2)]
    slots += [-v for v in range(1, n + 1) for _ in range(2)]
    while True:
        rng.shuffle(slots)
        clauses = [tuple(slots[i: i + 3]) for i in range(0, len(slots), 3)]
        if all(len({abs(l) for l in c}) == 3 for c in clauses):
            return CnfFormula(n, tuple(clauses))


def reference_formula():
    """Four-clause formula over three variables with the (2,2) profile."""
    from devmatch.reductions import CnfFormula

    return CnfFormula(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3), (-1, 2, -3)))


def single_path_composition(f, variable, occurrence):
    """The one-communication-path subinstance pair for a chosen occurrence.

    Returns (j_sub, deviators, i_sub, projection, comm_edge).  j_sub keeps
    the variable gadget, the linked clause gadget and the connector between
    them, relabeled 1..28; i_sub is the same sixteen gadget agents joined by
    a direct communication edge instead of the connector; projection maps a
    perfect matching of j_sub onto i_sub's agents by dropping connector
    pairs (connectors always match internally in a perfect matching, so
    nothing else is lost).
    """
    from devmatch.reductions import sat_to_perfect_smi

    p, idx = sat_to_perfect_smi(f)
    i, r = variable, occurrence
    j, s = idx.occurrence_of[(i, r)]
    var_ids = [idx.x[(i, rr)] for rr in (1, 2, 3, 4)]
    var_ids += [idx.y[(i, rr)] for rr in (1, 2, 3, 4)]
    clause_ids = [idx.c[(j, ss)] for ss in (1, 2, 3)]
    clause_ids += [idx.p[(j, ss)] for ss in (1, 2, 3)]
    clause_ids += [idx.q[j], idx.z[j]]
    t_ids = [idx.t[(i, r, kappa)] for kappa in range(1, 13)]
    j_sub = induce(p.instance, var_ids + clause_ids + t_ids)
    deviators = frozenset({17, 23})  # the connector's two communication ends

    x_slots = {1: (5, 6), 2: (6, 7), 3: (8, 7), 4: (5, 8)}
    prefs = [()]
    for rr in (1, 2, 3, 4):
        a, b = x_slots[rr]
        prefs.append((a, 8 + s, b) if rr == r else (a, b))
    prefs += [(1, 4), (1, 2), (2, 3), (3, 4)]
    for ss in (1, 2, 3):
        prefs.append((11 + ss, r, 15) if ss == s else (11 + ss, 15))
    for ss in (1, 2, 3):
        prefs.append((8 + ss, 16))
    prefs += [(9, 10, 11), (12, 13, 14)]
    i_sub = Instance(16, tuple(prefs), None)

    def projection(m):
        return frozenset(pair for pair in m.pairs if pair[1] <= 16)

    return j_sub, deviators, i_sub, projection, (r, 8 + s)
