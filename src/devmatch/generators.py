"""Reproducible random instance generation.

Everything is driven by one `random.Random(seed)` (CPython's Mersenne
Twister) so identical specs produce byte-identical problems.  The exact
draw order is part of the contract:

1. SmiUniform only: shuffle the agent ids once; the first n//2 land on
   side 0, the rest on side 1.
2. List all candidate pairs (i, j) with i < j in lexicographic order
   (cross-side pairs only for SmiUniform) and shuffle them once.
3. Draw the target edge count uniformly from 0..len(candidates), then walk
   the shuffled candidates greedily, keeping a pair whenever both endpoints
   are below list_cap, until the target is met, candidates run out, or
   fewer than two agents are below list_cap.  Late in the walk, when few
   agents are below list_cap, it goes on as an open-pair scan that skips
   every pair with an agent at list_cap by one set lookup: it keeps the same
   pairs and makes no draw.
4. For each agent in ascending id order, sort its neighbor set ascending
   and shuffle it once; that order is the preference list.
5. For each agent in ascending id order, one uniform draw decides deviator
   membership (draw < deviator_fraction).

Edges are sampled before lists so acceptability is symmetric by
construction, with no repair pass.  Specs over MAX_CANDIDATES pairs are refused.

Every draw rests on `getrandbits` alone: the shuffles and `randint` draw
below a bound with `getrandbits(k)` and reject what lands past it, as
`random.Random` does.  Every shuffle (steps 1, 2 and 4) is that
Fisher-Yates loop written out, with the same draws as `rng.shuffle`; step 2
shuffles the pairs encoded as the ints i * (n + 1) + j, listed for SmiUniform
from each side's sorted agents, so no same-side pair is visited.  Seeds
outside 0..2**64 - 1 are refused, as `random.Random` seeds by absolute value.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_right
from dataclasses import dataclass

from .core import DeviatorProblem, Instance, Objective, SizeRegime


MAX_CANDIDATES = 5_000_000  # about 3,162 agents unsided; the repo draws at most 2,000


class InfeasibleSpec(ValueError):
    """The generation spec cannot produce a valid instance."""


class GenModel(enum.Enum):
    SRI_UNIFORM = "sri"
    SMI_UNIFORM = "smi"
    PATH_CYCLE_ONLY = "pathcycle"


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one random instance draw.

    list_cap bounds every preference list's length (and hence d_max);
    PATH_CYCLE_ONLY requires list_cap <= 2 so components are paths and
    cycles.  The seed must lie in 0..2**64 - 1.
    """

    n: int
    model: GenModel = GenModel.SRI_UNIFORM
    list_cap: int = 3
    deviator_fraction: float = 0.25
    seed: int = 0


def _shuffle(rng: random.Random, x: list) -> None:
    """rng.shuffle(x): the same getrandbits draws and swaps, without a call per draw.

    Position i swaps with a draw below i + 1, from top to 1: getrandbits(k),
    k = (i + 1).bit_length(), redrawn while past i.  k holds over each block
    of i whose i + 1 shares a bit length.
    """
    getrandbits = rng.getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the block's least i: i + 1 = 2 ** (k - 1)
        for i in range(top, low - 1, -1):
            r = getrandbits(k)
            while r > i:
                r = getrandbits(k)
            x[i], x[r] = x[r], x[i]
        top = low - 1


def _walk(candidates: list[int], width: int, sides, cap: int, target: int) -> list[list[int]]:
    """Step 3's greedy walk: each agent's kept neighbors, in the order kept.

    The walk draws nothing.  Once 16 * room**2 <= len(candidates), where room
    counts the agents below cap, it goes on over the same iterator keeping
    only the codes in live: the unkept pairs whose two agents are both below
    cap, built once at the switch (at most room**2 / 2 codes, a 32nd of the
    candidates) and shrunk as agents reach cap.  Every code in live is kept
    when the walk reaches it and every other code would be passed over, so
    the scan keeps what the plain walk keeps; it stops once live is empty,
    as nothing further could be kept.
    """
    degree = [0] * width
    neighbors: list[list[int]] = [[] for _ in range(width)]
    if target == 0:
        return neighbors
    kept = 0
    room = width - 1  # agents below cap
    rest = iter(candidates)
    for pair in rest:
        i = pair // width
        j = pair - i * width
        if degree[i] < cap and degree[j] < cap:
            neighbors[i].append(j)
            neighbors[j].append(i)
            degree[i] += 1
            degree[j] += 1
            kept += 1
            room -= (degree[i] == cap) + (degree[j] == cap)
            if kept == target or room < 2:
                return neighbors
            if 16 * room * room <= len(candidates):
                break
    else:  # the candidates ran out
        return neighbors

    open_agents = [a for a in range(1, width) if degree[a] < cap]
    live = {
        a * width + b
        for x, a in enumerate(open_agents)
        for b in open_agents[x + 1:]
        if (sides is None or sides[a - 1] != sides[b - 1]) and b not in neighbors[a]
    }
    for pair in filter(live.__contains__, rest):
        i = pair // width
        j = pair - i * width
        neighbors[i].append(j)
        neighbors[j].append(i)
        degree[i] += 1
        degree[j] += 1
        kept += 1
        if kept == target:
            break
        live.discard(pair)
        for a in (i, j):
            if degree[a] == cap:
                open_agents.remove(a)
                for b in open_agents:
                    live.discard(a * width + b if a < b else b * width + a)
        if not live:
            break
    return neighbors


def generate(spec: GenSpec) -> DeviatorProblem:
    """Draw the instance described by spec; objective/regime/budget defaults."""
    if spec.n < 0:
        raise InfeasibleSpec("n must be non-negative")
    if spec.list_cap < 1:
        raise InfeasibleSpec("list_cap must be at least 1")
    if not 0.0 <= spec.deviator_fraction <= 1.0:
        raise InfeasibleSpec("deviator_fraction must lie in [0, 1]")
    if not 0 <= spec.seed < 1 << 64:
        raise InfeasibleSpec("seed must lie in 0..2**64 - 1")
    if spec.model is GenModel.PATH_CYCLE_ONLY and spec.list_cap > 2:
        raise InfeasibleSpec("path/cycle instances need list_cap <= 2")
    if spec.model is GenModel.SMI_UNIFORM and 0 < spec.n < 2:
        raise InfeasibleSpec("two-sided instances need at least 2 agents")
    n = spec.n
    count = n // 2 * (n - n // 2) if spec.model is GenModel.SMI_UNIFORM else n * (n - 1) // 2
    if count > MAX_CANDIDATES:
        raise InfeasibleSpec(f"n={n} gives {count} candidate pairs, over {MAX_CANDIDATES}")

    rng = random.Random(spec.seed)
    width = n + 1  # pair (i, j) is the int i * width + j, so ints sort as pairs do
    candidates: list[int] = []
    sides = None
    if spec.model is GenModel.SMI_UNIFORM and n:
        ids = list(range(1, n + 1))
        _shuffle(rng, ids)
        by_side = (sorted(ids[: n // 2]), sorted(ids[n // 2:]))
        side_list = [0] * width
        for i in by_side[1]:
            side_list[i] = 1
        sides = tuple(side_list[1:])
        for i in range(1, n + 1):
            other = by_side[1 - side_list[i]]
            base = i * width
            candidates.extend([base + j for j in other[bisect_right(other, i):]])
    else:
        for i in range(1, n + 1):
            candidates.extend(range(i * width + i + 1, (i + 1) * width))
    _shuffle(rng, candidates)
    target = rng.randint(0, len(candidates)) if candidates else 0
    neighbors = _walk(candidates, width, sides, spec.list_cap, target)

    prefs: list[tuple[int, ...]] = [()]
    for i in range(1, n + 1):
        order = sorted(neighbors[i])
        _shuffle(rng, order)
        prefs.append(tuple(order))

    deviators = frozenset(
        i for i in range(1, n + 1) if rng.random() < spec.deviator_fraction
    )
    instance = Instance(n, tuple(prefs), sides)
    return DeviatorProblem(
        instance,
        deviators,
        objective=Objective.BLOCKING_PAIRS,
        size_regime=SizeRegime.ANY,
        budget=None,
    )
