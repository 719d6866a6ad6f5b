"""Seeded instance builders for the benchmark's library workloads.

Every builder returns plain data (agent count, preference tuples with the
index-0 placeholder, deviator set) so that each timed op can build a fresh
`Instance` from it: `Instance.ranks` and `Instance.d_max` are cached on the
object, and re-solving one object would skip work every real caller pays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Prefs:
    """An instance as plain data, plus what is known about it by construction.

    max_pairs is the size of a maximum matching; known maps (regime,
    objective) pairs, e.g. ("any", "bp"), to the optimum.
    """

    num_agents: int
    prefs: tuple[tuple[int, ...], ...]
    deviators: frozenset[int]
    max_pairs: int
    known: dict[tuple[str, str], int] = field(default_factory=dict)

    def optimum(self, regime: str, objective: str) -> int | None:
        return self.known.get((regime, objective))


def _relabelling(n: int, rng: random.Random) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [0] + perm


def ordered_triangles(c: int, m: int, seed: int) -> Prefs:
    """tri(c, m): c all-deviator ordered 3-cycles plus a conformist path of m.

    In each 3-cycle every agent ranks its successor first and its
    predecessor second, so every matching leaves one blocking pair per
    triangle: the optimum is c under bp and 2c under ba, in the any and the
    max regime alike.  Agent ids are shuffled by the seed, which changes the
    deviators' order and so the order of the configuration stream.
    """
    n = 3 * c + m
    rng = random.Random(seed)
    lab = _relabelling(n, rng)
    prefs: list[tuple[int, ...]] = [()] * (n + 1)
    deviators = set()
    for t in range(c):
        ring = [lab[3 * t + s] for s in (1, 2, 3)]
        for s in range(3):
            prefs[ring[s]] = (ring[(s + 1) % 3], ring[(s - 1) % 3])
        deviators.update(ring)
    path = [lab[3 * c + s] for s in range(1, m + 1)]
    for s, agent in enumerate(path):
        nbrs = [path[x] for x in (s - 1, s + 1) if 0 <= x < m]
        rng.shuffle(nbrs)
        prefs[agent] = tuple(nbrs)
    known = {
        (regime, objective): c if objective == "bp" else 2 * c
        for regime in ("any", "max")
        for objective in ("bp", "ba")
    }
    return Prefs(n, tuple(prefs), frozenset(deviators), c + m // 2, known)


PATH = "path"
EVEN_CYCLE = "ecycle"
ORDERED_ODD_CYCLE = "ocycle"
UNORDERED_ODD_CYCLE = "ucycle"


def degree_two(components, seed: int) -> Prefs:
    """A degree-<=2 instance made of the given (kind, size) components.

    Paths, even cycles and unordered odd cycles get a random preference order
    at every agent, and each of their agents is a deviator with probability
    1/2; an unordered odd cycle also gets one mutual first choice, so it has
    no preference orientation.  An ordered odd cycle has every agent prefer
    its successor and is all deviators, so each one costs exactly 1 bp / 2 ba
    in the any regime while every other component costs nothing there: the
    any-regime optimum is known by construction.  Agent ids are shuffled by
    the seed.
    """
    rng = random.Random(seed)
    n = sum(size for _, size in components)
    lab = _relabelling(n, rng)
    prefs: list[tuple[int, ...]] = [()] * (n + 1)
    deviators = set()
    base = 0
    ordered = 0
    for kind, size in components:
        if kind in (ORDERED_ODD_CYCLE, UNORDERED_ODD_CYCLE) and (size < 3 or size % 2 == 0):
            raise ValueError(f"{kind} needs an odd size of at least 3, got {size}")
        if kind == EVEN_CYCLE and (size < 4 or size % 2):
            raise ValueError(f"{kind} needs an even size of at least 4, got {size}")
        ids = [lab[base + s] for s in range(1, size + 1)]
        base += size
        cyclic = kind != PATH
        for s, agent in enumerate(ids):
            succ = ids[(s + 1) % size] if cyclic or s + 1 < size else None
            pred = ids[(s - 1) % size] if cyclic or s > 0 else None
            if kind == ORDERED_ODD_CYCLE:
                prefs[agent] = (succ, pred)
            else:
                nbrs = [x for x in (succ, pred) if x is not None]
                rng.shuffle(nbrs)
                prefs[agent] = tuple(nbrs)
        if kind == UNORDERED_ODD_CYCLE:
            a, b = ids[0], ids[1]
            prefs[a] = (b, ids[-1])
            prefs[b] = (a, ids[2])
        if kind == ORDERED_ODD_CYCLE:
            deviators.update(ids)
            ordered += 1
        else:
            deviators.update(x for x in ids if rng.random() < 0.5)
    known = {("any", "bp"): ordered, ("any", "ba"): 2 * ordered}
    max_pairs = sum(size // 2 for _, size in components)
    return Prefs(n, tuple(prefs), frozenset(deviators), max_pairs, known)

