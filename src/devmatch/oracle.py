"""Exhaustive reference oracle for small instances.

Enumerates every matching of an instance (optionally restricted to maximum
cardinality or perfect matchings) and reports exact optima for both deviator
objectives, one optimal witness per objective, and a census of stable
matchings.  Everything here is independent of the solver modules so the two
can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    DeviatorProblem,
    Instance,
    Matching,
    Objective,
    SizeRegime,
)


class TooLarge(ValueError):
    """The instance exceeds the enumeration cap."""


@dataclass(frozen=True)
class OracleReport:
    """Exact answers from full enumeration.

    regime_sizes is (maximum matching size, whether a perfect matching
    exists).  optimum_bp / optimum_ba are the minima of the two objectives
    over the requested regime's family, None when that family is empty.
    stable_matched_sets collects, in first-seen order, the distinct sets of
    matched agents over all stable matchings.
    """

    regime_sizes: tuple[int, bool]
    optimum_bp: int | None
    optimum_ba: int | None
    witness_per_objective: dict[Objective, Matching]
    stable_exists: bool
    stable_matched_sets: tuple[frozenset[int], ...]


def _mutual_neighbors(instance: Instance) -> list[list[int]]:
    prefs = instance.prefs
    return [sorted(j for j in lst if i in prefs[j]) for i, lst in enumerate(prefs)]


def _max_size(n: int, neighbors: list[list[int]]) -> int:
    """Maximum matching size by branch and bound on the smallest open agent."""
    covered = bytearray(n + 1)
    best = 0

    def rec(size: int, uncovered: int) -> None:
        nonlocal best
        if size + uncovered // 2 <= best:
            return
        i = 1
        while i <= n and covered[i]:
            i += 1
        if i > n:
            best = size
            return
        covered[i] = 1
        for j in neighbors[i]:
            if not covered[j]:
                covered[j] = 1
                rec(size + 1, uncovered - 2)
                covered[j] = 0
        rec(size, uncovered - 1)
        covered[i] = 0

    rec(0, n)
    return best


def enumerate_matchings(
    instance: Instance, regime: SizeRegime = SizeRegime.ANY, cap: int = 14
) -> Iterator[Matching]:
    """Yield every matching in the regime's family, deterministically.

    Branches on the smallest not-yet-decided agent, trying partners in
    ascending order and the unmatched option last.  Raises TooLarge
    immediately (not at first iteration) when the instance has more than
    cap agents.
    """
    n = instance.num_agents
    if n > cap:
        raise TooLarge(f"{n} agents exceeds the enumeration cap of {cap}")
    neighbors = _mutual_neighbors(instance)
    if regime is SizeRegime.PERFECT and n % 2 == 1:
        return iter(())
    allow_unmatched = regime is not SizeRegime.PERFECT
    if regime is SizeRegime.ANY:
        target = None
    elif regime is SizeRegime.MAX_CARDINALITY:
        target = _max_size(n, neighbors)
    else:
        target = n // 2
    return _generate(n, neighbors, allow_unmatched, target)


def _generate(
    n: int, neighbors: list[list[int]], allow_unmatched: bool, target: int | None
) -> Iterator[Matching]:
    covered = bytearray(n + 1)
    chosen: list[tuple[int, int]] = []

    def rec(uncovered: int) -> Iterator[Matching]:
        if target is not None and len(chosen) + uncovered // 2 < target:
            return
        i = 1
        while i <= n and covered[i]:
            i += 1
        if i > n:
            if target is None or len(chosen) == target:
                yield Matching(frozenset(chosen))
            return
        covered[i] = 1
        for j in neighbors[i]:
            if not covered[j]:
                covered[j] = 1
                chosen.append((i, j))
                yield from rec(uncovered - 2)
                chosen.pop()
                covered[j] = 0
        if allow_unmatched:
            yield from rec(uncovered - 1)
        covered[i] = 0

    return rec(n)


def oracle_solve(problem: DeviatorProblem, cap: int = 14) -> OracleReport:
    """Solve a deviator problem exactly by enumerating all matchings once.

    A single walk over every matching aggregates, per matching size, the
    best value and first-best witness for each objective; the requested
    regime then selects which sizes compete.  Stable matchings are censused
    along the way.
    """
    inst = problem.instance
    n = inst.num_agents
    best_bp: dict[int, tuple[int, Matching]] = {}
    best_ba: dict[int, tuple[int, Matching]] = {}
    stable_sets: list[frozenset[int]] = []
    seen = set()
    devs = problem.deviators
    rank = [{j: r for r, j in enumerate(lst)} for lst in inst.prefs]
    edges = [(i, j) for i, nbrs in enumerate(_mutual_neighbors(inst)) for j in nbrs if i < j]
    for m in enumerate_matchings(inst, SizeRegime.ANY, cap=cap):
        # a mutually acceptable pair blocks when each end ranks the other above
        # its partner; an unmatched end's partner (itself) ranks below all (n)
        blocking = [(i, j) for i, j in edges if rank[i][j] < rank[i].get(m.partner_of(i), n)
                    and rank[j][i] < rank[j].get(m.partner_of(j), n)]
        size = len(m.pairs)
        vbp = sum(1 for i, j in blocking if i in devs or j in devs)
        vba = len({a for pair in blocking for a in pair} & devs)
        cur = best_bp.get(size)
        if cur is None or vbp < cur[0]:
            best_bp[size] = (vbp, m)
        cur = best_ba.get(size)
        if cur is None or vba < cur[0]:
            best_ba[size] = (vba, m)
        if not blocking:
            matched = m.matched_agents()
            if matched not in seen:
                seen.add(matched)
                stable_sets.append(matched)
    max_size = max(best_bp)
    perfect_exists = n % 2 == 0 and n // 2 in best_bp
    if problem.size_regime is SizeRegime.ANY:
        family = sorted(best_bp)
    elif problem.size_regime is SizeRegime.MAX_CARDINALITY:
        family = [max_size]
    else:
        family = [n // 2] if perfect_exists else []

    def pick(table: dict[int, tuple[int, Matching]]):
        opt, wit = None, None
        for s in family:
            v, m = table[s]
            if opt is None or v < opt:
                opt, wit = v, m
        return opt, wit

    opt_bp, wit_bp = pick(best_bp)
    opt_ba, wit_ba = pick(best_ba)
    witnesses: dict[Objective, Matching] = {}
    if wit_bp is not None:
        witnesses[Objective.BLOCKING_PAIRS] = wit_bp
    if wit_ba is not None:
        witnesses[Objective.BLOCKING_AGENTS] = wit_ba
    return OracleReport(
        regime_sizes=(max_size, perfect_exists),
        optimum_bp=opt_bp,
        optimum_ba=opt_ba,
        witness_per_objective=witnesses,
        stable_exists=bool(stable_sets),
        stable_matched_sets=tuple(stable_sets),
    )
