"""Classic stable-matching algorithms and matching building blocks.

Two exact solvers for full stability (Gale-Shapley on sided instances,
Irving's proposal/rotation algorithm on unsided ones); a maximum-cardinality
matching of an instance's acceptability graph by Edmonds' blossom search,
implemented here in O(V^3) time; and a small weighted graph type whose
maximum-weight matching is delegated to networkx's weighted blossom
implementation.  The graph type is what the configuration-search solver
feeds its extension subproblems into.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .core import Instance, Matching

_WEIGHT_LIMIT = 2**63 - 1


class NotBipartite(ValueError):
    """The operation needs a sided instance and this one has no sides."""


class Unsolvable(ValueError):
    """The instance admits no fully stable matching."""


@dataclass(frozen=True)
class WeightedGraph:
    """An undirected graph with non-negative integer edge weights.

    vertices carry agent ids; edges are (i, j, weight) triples normalised to
    i < j.  The constructor rejects self-loops, parallel edges, endpoints
    outside the vertex set, and weights that are negative, non-integral, or
    too large for 64-bit arithmetic.  Inputs built by the solvers keep every
    single weight at most n + 2 and every matching's total weight at most
    n * (n + 2), so sums stay well inside the 64-bit range.
    """

    vertices: frozenset[int]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        seen = set()
        norm = []
        for i, j, w in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValueError(f"parallel edge ({i}, {j})")
            if i not in self.vertices or j not in self.vertices:
                raise ValueError(f"edge ({i}, {j}) leaves the vertex set")
            if not isinstance(w, int) or isinstance(w, bool):
                raise ValueError(f"edge ({i}, {j}) has non-integer weight {w!r}")
            if w < 0 or w > _WEIGHT_LIMIT:
                raise ValueError(f"edge ({i}, {j}) weight {w} outside 0..2^63-1")
            seen.add((i, j))
            norm.append((i, j, w))
        object.__setattr__(self, "edges", tuple(sorted(norm)))


def _to_nx(graph: WeightedGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(sorted(graph.vertices))
    for i, j, w in graph.edges:
        g.add_edge(i, j, weight=w)
    return g


def max_weight_matching(graph: WeightedGraph) -> Matching:
    """A maximum-weight matching of the graph (any cardinality)."""
    pairs = nx.max_weight_matching(_to_nx(graph), maxcardinality=False)
    return Matching(frozenset(tuple(sorted(p)) for p in pairs))


def matching_weight(graph: WeightedGraph, matching: Matching) -> int:
    weights = {(i, j): w for i, j, w in graph.edges}
    return sum(weights[p] for p in matching.pairs)


def max_cardinality_matching(instance: Instance) -> Matching:
    """A maximum matching of the instance's mutual-acceptability graph.

    Edmonds' cardinality blossom search (Edmonds 1965; Gabow 1976), in
    O(V^3) time and O(V + E) space.  The adjacency lists keep each agent's
    preference order and ignore one-sided entries.  A greedy pass in
    ascending agent order matches each agent to its first free neighbour;
    then each still exposed agent, in ascending order, grows one
    alternating tree from itself breadth first, contracts each odd cycle it
    closes into the cycle's base, and augments along the first path it
    finds to another exposed agent.  An agent with no augmenting path never
    gains one later, so one pass suffices.  Each search resets only the
    agents it labelled.  The result depends only on the instance.
    """
    n = instance.num_agents
    ranks = instance.ranks
    adj = [()] + [
        tuple(j for j in instance.prefs[i] if i in ranks[j]) for i in range(1, n + 1)
    ]
    mate = [0] * (n + 1)  # 0: exposed
    for i in range(1, n + 1):
        if not mate[i]:
            for j in adj[i]:
                if not mate[j]:
                    mate[i], mate[j] = j, i
                    break
    base = list(range(n + 1))
    # the way back to the root is x, parent[x], mate[parent[x]], parent[...], ...
    parent = [0] * (n + 1)
    even = [False] * (n + 1)  # the root, the mates of reached agents, blossoms
    seen = [0] * (n + 1)  # stamps for the base-path walks of one contraction
    stamp = 0
    for root in range(1, n + 1):
        if mate[root]:
            continue
        even[root] = True
        tree = [root]
        blooms = {}  # base -> members, for blossoms of more than one vertex
        queue = [root]
        head = 0
        end = 0
        while head < len(queue) and not end:
            v = queue[head]
            head += 1
            for w in adj[v]:
                if base[v] == base[w] or mate[v] == w:
                    continue
                if even[w]:
                    # w is even too: contract the odd cycle through v and w
                    stamp += 1
                    a = v
                    while True:  # mark v's base path up to the root
                        a = base[a]
                        seen[a] = stamp
                        if a == root:
                            break
                        a = parent[mate[a]]
                    b = base[w]
                    while seen[b] != stamp:
                        b = base[parent[mate[b]]]
                    stamp += 1
                    inner = []  # bases of the sub-blossoms the cycle absorbs
                    for x, child in ((v, w), (w, v)):
                        while base[x] != b:
                            for c in (base[x], base[mate[x]]):
                                if seen[c] != stamp:
                                    seen[c] = stamp
                                    inner.append(c)
                            parent[x] = child
                            child = mate[x]
                            x = parent[child]
                    bloom = blooms.setdefault(b, [b])
                    for c in inner:
                        for x in blooms.pop(c, (c,)):
                            base[x] = b
                            bloom.append(x)
                            if not even[x]:
                                even[x] = True
                                queue.append(x)
                elif not parent[w]:
                    parent[w] = v
                    tree.append(w)
                    if not mate[w]:
                        end = w
                        break
                    u = mate[w]
                    even[u] = True
                    tree.append(u)
                    queue.append(u)
        while end:  # flip the augmenting path that ends at end
            v = parent[end]
            nxt = mate[v]
            mate[end], mate[v] = v, end
            end = nxt
        for x in tree:
            base[x] = x
            parent[x] = 0
            even[x] = False
    return Matching(frozenset((i, mate[i]) for i in range(1, n + 1) if i < mate[i]))


def max_cardinality_size(instance: Instance) -> int:
    """Size of a maximum matching in the instance's acceptability graph."""
    return len(max_cardinality_matching(instance).pairs)


def gale_shapley(instance: Instance) -> Matching:
    """Proposal-side-optimal stable matching of a sided instance.

    Agents on agent 1's side propose; recipients hold their best offer so
    far.  The result has no blocking pair at all.  Raises NotBipartite when
    the instance has no side labels.
    """
    if instance.sides is None:
        raise NotBipartite("gale_shapley needs a sided instance")
    n = instance.num_agents
    if n == 0:
        return Matching(frozenset())
    ranks = instance.ranks
    side = instance.sides[1]
    proposers = [i for i in instance.agents() if instance.sides[i] == side]
    next_idx = [0] * (n + 1)
    holds: dict[int, int] = {}
    engaged_to: dict[int, int] = {}
    free = list(reversed(proposers))
    while free:
        x = free.pop()
        while next_idx[x] < len(instance.prefs[x]):
            y = instance.prefs[x][next_idx[x]]
            next_idx[x] += 1
            if x not in ranks[y]:
                continue
            h = holds.get(y)
            if h is None:
                holds[y] = x
                engaged_to[x] = y
                break
            if ranks[y][x] < ranks[y][h]:
                holds[y] = x
                engaged_to[x] = y
                del engaged_to[h]
                free.append(h)
                break
    return Matching(frozenset((x, y) if x < y else (y, x) for x, y in engaged_to.items()))


class _Table:
    """Mutable preference table for the proposal/rotation algorithm.

    Keeps, per agent, the alive sublist of its preference list with lazy
    first/last pointers, plus the current accepted proposal each agent
    holds.  All deletions are symmetric.
    """

    def __init__(self, instance: Instance):
        ranks = instance.ranks
        self.n = instance.num_agents
        self.prefs = [
            tuple(j for j in instance.prefs[i] if i in ranks[j]) if i else ()
            for i in range(self.n + 1)
        ]
        self.pos = [
            {j: idx for idx, j in enumerate(self.prefs[i])} for i in range(self.n + 1)
        ]
        self.alive = [set(self.prefs[i]) for i in range(self.n + 1)]
        self.first_idx = [0] * (self.n + 1)
        self.last_idx = [len(self.prefs[i]) - 1 for i in range(self.n + 1)]
        self.holds = [0] * (self.n + 1)
        self.excluded: set[int] = set()

    def first(self, i: int) -> int | None:
        idx, prefs, alive = self.first_idx[i], self.prefs[i], self.alive[i]
        while idx <= self.last_idx[i]:
            if prefs[idx] in alive:
                self.first_idx[i] = idx
                return prefs[idx]
            idx += 1
        return None

    def last(self, i: int) -> int | None:
        idx, prefs, alive = self.last_idx[i], self.prefs[i], self.alive[i]
        while idx >= self.first_idx[i]:
            if prefs[idx] in alive:
                self.last_idx[i] = idx
                return prefs[idx]
            idx -= 1
        return None

    def second(self, i: int) -> int | None:
        top = self.first(i)
        if top is None:
            return None
        prefs, alive = self.prefs[i], self.alive[i]
        for idx in range(self.first_idx[i] + 1, self.last_idx[i] + 1):
            if prefs[idx] in alive:
                return prefs[idx]
        return None

    def delete(self, i: int, j: int) -> None:
        self.alive[i].discard(j)
        self.alive[j].discard(i)

    def run_proposals(self, free: list[int], strict: bool) -> None:
        """Drain the free stack, letting each agent propose to its current first.

        Every proposal is accepted (anyone preferred to the current holder
        was already deleted from the recipient's list), the recipient's
        entries below the new proposer are deleted symmetrically, and a
        displaced previous holder becomes free.  An agent whose list runs
        out is excluded in phase one (strict=False) but proves the instance
        unsolvable during rotation elimination (strict=True).
        """
        while free:
            x = free.pop()
            y = self.first(x)
            if y is None:
                if strict:
                    raise Unsolvable(f"agent {x} ran out of potential partners")
                self.excluded.add(x)
                continue
            prev = self.holds[y]
            self.holds[y] = x
            prefs_y = self.prefs[y]
            idx = self.last_idx[y]
            stop = self.pos[y][x]
            while idx > stop:
                z = prefs_y[idx]
                if z in self.alive[y]:
                    self.delete(y, z)
                idx -= 1
            self.last_idx[y] = stop
            if prev and prev != x:
                free.append(prev)


def irving_sr(instance: Instance) -> Matching:
    """A fully stable matching of an unsided instance, if one exists.

    Phase one runs the proposal engine from scratch; an agent whose list
    empties there is unmatched in every stable matching and drops out.
    Phase two repeatedly finds a rotation by the second/last chase, deletes
    each member's top pair, and re-runs proposals.  All preference lists
    reduced to at most one entry yields the matching; a list emptying
    during phase two means none exists.  Raises Unsolvable in that case.
    """
    t = _Table(instance)
    t.run_proposals(list(range(instance.num_agents, 0, -1)), strict=False)

    cursor = 1
    while True:
        while cursor <= t.n:
            if t.second(cursor) is not None:
                break
            cursor += 1
        if cursor > t.n:
            break
        chain: list[int] = []
        pos_in_chain: dict[int, int] = {}
        a = cursor
        while a not in pos_in_chain:
            pos_in_chain[a] = len(chain)
            chain.append(a)
            b = t.second(a)
            a = t.last(b)
        cycle = chain[pos_in_chain[a]:]
        freed: list[int] = []
        for x in cycle:
            y = t.first(x)
            t.delete(x, y)
            if t.holds[y] == x:
                t.holds[y] = 0
            freed.append(x)
        t.run_proposals(freed, strict=True)

    pairs = set()
    for i in instance.agents():
        if i in t.excluded or not t.alive[i]:
            continue
        j = t.first(i)
        if i < j:
            pairs.add((i, j))
    return Matching(frozenset(pairs))
