"""Exact polynomial solvers for instances whose preference lists have length <= 2.

With lists this short the acceptability graph is a disjoint union of paths
and cycles, so each component can be handled in isolation and the objective
is the sum of per-component contributions.  solve_shortlist_any minimises
over all matchings, and solve_shortlist_max over maximum-cardinality
matchings, both in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DeviatorProblem,
    Instance,
    Matching,
    Objective,
    SizeRegime,
    SolveOutcome,
    _blocking_pairs_of,
    blocking_report,
    objective_value,
)


class ListTooLong(ValueError):
    """An agent's preference list has more than two entries."""

    def __init__(self, agent: int):
        super().__init__(f"agent {agent} ranks more than two partners")
        self.agent = agent


@dataclass(frozen=True)
class ComponentDecomposition:
    """The acceptability graph split into paths and cycles.

    Components appear in order of their smallest agent id.  A path is listed
    endpoint to endpoint starting from its smaller endpoint (an isolated
    agent is a one-agent path).  A cycle is rotated to start at its smallest
    agent, continuing toward that agent's smaller neighbour.
    """

    paths: tuple[tuple[int, ...], ...]
    even_cycles: tuple[tuple[int, ...], ...]
    odd_cycles: tuple[tuple[int, ...], ...]


def _adjacency(instance: Instance) -> list[list[int]]:
    for i in instance.agents():
        if len(instance.prefs[i]) > 2:
            raise ListTooLong(i)
    return [[]] + [sorted(instance.mutual[i]) for i in instance.agents()]


def decompose(inst: Instance) -> ComponentDecomposition:
    """Partition the agents of a short-list instance into paths and cycles.

    Raises ListTooLong (with the smallest offending agent) if any list has
    more than two entries.
    """
    adj = _adjacency(inst)
    seen = [False] * (inst.num_agents + 1)
    paths: list[tuple[int, ...]] = []
    evens: list[tuple[int, ...]] = []
    odds: list[tuple[int, ...]] = []
    for start in inst.agents():
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        endpoints = sorted(v for v in comp if len(adj[v]) <= 1)
        if endpoints:
            seq = _walk(adj, endpoints[0], len(comp))
            paths.append(seq)
        else:
            seq = _walk(adj, start, len(comp))
            (evens if len(seq) % 2 == 0 else odds).append(seq)
    return ComponentDecomposition(tuple(paths), tuple(evens), tuple(odds))


def _walk(adj: list[list[int]], start: int, size: int) -> tuple[int, ...]:
    seq = [start]
    prev, cur = None, start
    while len(seq) < size:
        nxt = [w for w in adj[cur] if w != prev]
        prev, cur = cur, nxt[0]
        seq.append(cur)
    return tuple(seq)


def _prefers(ranks, x: int, a: int, b: int) -> bool:
    """Does x rank a strictly above b?  (Both must be on x's list.)"""
    return ranks[x][a] < ranks[x][b]


def _orient(seq: tuple[int, ...], ranks) -> tuple[int, ...] | None:
    """The cycle's preference orientation, or None when it has none.

    Returns a rotation-preserving relisting of seq under which every agent
    prefers its successor to its predecessor; such cycles have no fully
    stable matching when odd.  Tries the stored direction first, then the
    reversed one (still starting at the same agent).
    """
    k = len(seq)
    if all(
        _prefers(ranks, seq[t], seq[(t + 1) % k], seq[(t - 1) % k]) for t in range(k)
    ):
        return seq
    rev = (seq[0],) + tuple(reversed(seq[1:]))
    if all(
        _prefers(ranks, rev[t], rev[(t + 1) % k], rev[(t - 1) % k]) for t in range(k)
    ):
        return rev
    return None


def _path_pairs(seq: tuple[int, ...], ranks) -> list[tuple[int, int]]:
    """A fully stable matching of a path component.

    A right-to-left pass decides, for each suffix, whether its first agent
    must be matched to its path-successor to avoid a blocking pair; a
    left-to-right walk then realises those decisions.
    """
    m = len(seq)
    if m < 2:
        return []
    take = [False] * m
    take[m - 2] = True
    for j in range(m - 3, -1, -1):
        must = _prefers(ranks, seq[j + 1], seq[j], seq[j + 2])
        take[j] = must or not take[j + 1]
    pairs = []
    j = 0
    while j < m - 1:
        if take[j]:
            pairs.append((seq[j], seq[j + 1]))
            j += 2
        else:
            j += 1
    return pairs


def _stable_cycle_pairs(seq: tuple[int, ...], ranks) -> list[tuple[int, int]]:
    """A fully stable matching of a cycle that has one (must exist).

    An oriented even cycle alternates pairs along the orientation.  A cycle
    with no orientation has an edge whose two agents are each other's first
    choice; matching it can never block, and the leftover arc is a path.
    """
    k = len(seq)
    oriented = _orient(seq, ranks)
    if oriented is not None:
        return [(oriented[t], oriented[t + 1]) for t in range(0, k - 1, 2)]
    for t in range(k):
        x, y = seq[t], seq[(t + 1) % k]
        if ranks[x][y] == 1 and ranks[y][x] == 1:
            arc = tuple(seq[(t + 1 + s) % k] for s in range(1, k - 1))
            return [(x, y)] + _path_pairs(arc, ranks)
    raise AssertionError("cycle with no orientation must contain a mutual first choice")


def _leave_out(seq: tuple[int, ...], q: int) -> list[tuple[int, int]]:
    """The unique maximum matching of the cycle/path that skips position q."""
    k = len(seq)
    return [
        (seq[(q + 2 * x - 1) % k], seq[(q + 2 * x) % k]) for x in range(1, (k + 1) // 2)
    ]


def _ordered_odd_pairs(
    oriented: tuple[int, ...], deviators: frozenset[int]
) -> list[tuple[int, int]]:
    """Best near-stable matching of an oriented odd cycle.

    Leaving one agent unmatched creates exactly one blocking pair: the
    unmatched agent with its predecessor.  Scan the directed edges once for
    a predecessor/unmatched slot filled by two conformists (no deviator
    cost), then for a conformist predecessor alone (one pair, one agent);
    otherwise everyone is a deviator and any slot costs one pair, two agents.
    """
    k = len(oriented)
    for t in range(k):
        if oriented[t] not in deviators and oriented[(t + 1) % k] not in deviators:
            return _leave_out(oriented, (t + 1) % k)
    for t in range(k):
        if oriented[t] not in deviators:
            return _leave_out(oriented, (t + 1) % k)
    return _leave_out(oriented, k - 1)


def solve_shortlist_any(p: DeviatorProblem) -> SolveOutcome:
    """Minimise the deviator objective over all matchings (lists <= 2).

    Paths, even cycles, and odd cycles with no preference orientation all
    admit fully stable matchings and contribute nothing.  Each oriented odd
    cycle contributes its single unavoidable blocking pair, placed where it
    touches the fewest deviators.  Runs in linear time.
    """
    if p.size_regime is not SizeRegime.ANY:
        raise ValueError("solve_shortlist_any handles the any-size regime only")
    inst = p.instance
    ranks = inst.ranks
    dec = decompose(inst)
    pairs: list[tuple[int, int]] = []
    for seq in dec.paths:
        pairs.extend(_path_pairs(seq, ranks))
    for seq in dec.even_cycles:
        pairs.extend(_stable_cycle_pairs(seq, ranks))
    for seq in dec.odd_cycles:
        oriented = _orient(seq, ranks)
        if oriented is None:
            pairs.extend(_stable_cycle_pairs(seq, ranks))
        else:
            pairs.extend(_ordered_odd_pairs(oriented, p.deviators))
    matching = Matching(frozenset(pairs))
    value = objective_value(blocking_report(inst, matching, p.deviators), p.objective)
    if p.budget is not None and value > p.budget:
        return SolveOutcome.infeasible("shortlist-any")
    return SolveOutcome.solution(matching, value, "shortlist-any")


def _score(inst: Instance, mate: dict[int, int], agents, p: DeviatorProblem) -> int:
    """The objective restricted to the deviators among agents, by core's scan."""
    scan = {a for a in agents if a in p.deviators}
    found = _blocking_pairs_of(inst, mate, scan)
    if p.objective is Objective.BLOCKING_PAIRS:
        return len(found)
    return len({a for pair in found for a in pair if a in scan})


def _mate(pairs: list[tuple[int, int]]) -> dict[int, int]:
    return {a: b for x, y in pairs for a, b in ((x, y), (y, x))}


def _best_hole(inst: Instance, seq: tuple[int, ...], cycle: bool, p: DeviatorProblem):
    """The least (value, unmatched agent, position) over an odd component's holes.

    An odd path can leave any agent at an even position unmatched, an odd
    cycle any agent.  Moving the hole from q to q + 2 swaps the pair
    (q+1, q+2) for (q, q+1): only blocking pairs touching agents q..q+2
    change, so the value moves by the score of agents q-1..q+3 after the
    swap minus their score before.
    """
    k = len(seq)
    mate = _mate(_leave_out(seq, 0))
    value = _score(inst, mate, seq, p)
    best = (value, seq[0], 0)
    q = 0
    for _ in range(k - 1 if cycle else (k - 1) // 2):
        window = [seq[t % k] for t in range(q - 1, q + 4) if cycle or 0 <= t < k]
        value -= _score(inst, mate, window, p)
        a, b, c = seq[q], seq[(q + 1) % k], seq[(q + 2) % k]
        mate[a], mate[b] = b, a
        del mate[c]
        value += _score(inst, mate, window, p)
        q = (q + 2) % k
        best = min(best, (value, seq[q], q))
    return best


def solve_shortlist_max(p: DeviatorProblem) -> SolveOutcome:
    """Minimise the deviator objective over maximum-cardinality matchings.

    Per component the maximum matchings are few: one for an even path, two
    for an even cycle, and one per hole (unmatched agent) of an odd path or
    cycle, all scored on the component alone (no blocking pair spans
    components) in linear time by sliding the hole (see _best_hole).  Ties
    go to the candidate leaving the smallest agent id unmatched, and to the
    first for an even cycle.
    """
    if p.size_regime is not SizeRegime.MAX_CARDINALITY:
        raise ValueError("solve_shortlist_max handles the maximum-cardinality regime only")
    inst = p.instance
    dec = decompose(inst)
    total = 0
    pairs: list[tuple[int, int]] = []
    components = [(s, False) for s in dec.paths]
    components += [(s, True) for s in dec.even_cycles + dec.odd_cycles]
    for seq, cycle in components:
        k = len(seq)
        if k % 2:
            val, _, q = _best_hole(inst, seq, cycle, p)
            chosen = _leave_out(seq, q)
        else:
            candidates = [
                [(seq[t], seq[(t + 1) % k]) for t in range(s, k - 1 + s, 2)]
                for s in ((0, 1) if cycle else (0,))
            ]
            val, chosen = min(
                ((_score(inst, _mate(m), seq, p), m) for m in candidates),
                key=lambda scored: scored[0],
            )
        pairs.extend(chosen)
        total += val

    matching = Matching(frozenset(pairs))
    if p.budget is not None and total > p.budget:
        return SolveOutcome.infeasible("shortlist-max")
    return SolveOutcome.solution(matching, total, "shortlist-max")
