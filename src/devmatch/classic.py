"""Classic stable-matching algorithms and matching building blocks.

Two exact solvers for full stability (Gale-Shapley on sided instances,
Irving's proposal/rotation algorithm on unsided ones); one Edmonds blossom
search, implemented here in O(V^3) time, behind both a maximum-cardinality
matching of an instance's acceptability graph and the must-cover matching
that completes each configuration of the configuration search; and a small
weighted graph type whose maximum-weight matching is delegated to
networkx's weighted blossom implementation.  No solver uses the weighted
matching; it stays as a public building block, and networkx is imported
only when it is called.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    too large for 64-bit arithmetic.
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


def max_weight_matching(graph: WeightedGraph) -> Matching:
    """A maximum-weight matching of the graph (any cardinality)."""
    import networkx as nx  # deferred: importing it costs more than all of devmatch

    g = nx.Graph()
    g.add_nodes_from(sorted(graph.vertices))
    g.add_weighted_edges_from(graph.edges)
    pairs = nx.max_weight_matching(g, maxcardinality=False)
    return Matching(frozenset(tuple(sorted(p)) for p in pairs))


def matching_weight(graph: WeightedGraph, matching: Matching) -> int:
    weights = {(i, j): w for i, j, w in graph.edges}
    return sum(weights[p] for p in matching.pairs)


def _blossom_search(adj, mate, roots, spare=None):
    """Grow one alternating tree from each exposed root; yield the roots left exposed.

    Edmonds' cardinality blossom search (Edmonds 1965; Gabow 1976) on a
    local graph: vertices 1..V, adj[v] the neighbours of v (adj[0] unused),
    mate[v] the partner of v or 0 when v is exposed.  Each root still
    exposed when its turn comes grows one tree breadth first, contracts
    each odd cycle it closes into the cycle's base, and augments along the
    first path it finds to an exposed vertex.  With spare (a truth value
    per vertex) an even vertex v with spare[v] also ends the search: the
    even path from the root to v is flipped, so v loses its partner and the
    root gains one.  Either way no vertex but v is uncovered.  mate is
    updated in place, each search resets only the vertices it labelled,
    and the next root is searched only when the caller asks for more.
    """
    size = len(adj)
    if spare is None:
        spare = [False] * size
    base = list(range(size))
    # the way back to the root is x, parent[x], mate[parent[x]], parent[...], ...
    parent = [0] * size
    even = [False] * size  # the root, the mates of reached vertices, blossoms
    seen = [0] * size  # stamps for the base-path walks of one contraction
    stamp = 0
    for root in roots:
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
            if spare[v]:  # flip the even path: v's old mate takes the path's last edge
                end = mate[v]
                mate[v] = 0
                break
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
        while end:  # flip the path that ends at end
            v = parent[end]
            nxt = mate[v]
            mate[end], mate[v] = v, end
            end = nxt
        for x in tree:
            base[x] = x
            parent[x] = 0
            even[x] = False
        if not mate[root]:
            yield root


def max_cardinality_matching(instance: Instance) -> Matching:
    """A maximum matching of the instance's mutual-acceptability graph.

    O(V^3) time and O(V + E) space.  The adjacency lists are the
    instance's mutual lists, in preference order.  A greedy pass in
    ascending agent order matches each agent to its first free neighbour;
    then _blossom_search grows a tree from each still exposed agent, in
    ascending order.  An agent with no augmenting path never gains one
    later, so one pass suffices.  The result depends only on the instance.
    """
    n = instance.num_agents
    adj = [()] + [instance.mutual[i] for i in range(1, n + 1)]
    mate = [0] * (n + 1)  # 0: exposed
    for i in range(1, n + 1):
        if not mate[i]:
            for j in adj[i]:
                if not mate[j]:
                    mate[i], mate[j] = j, i
                    break
    for _ in _blossom_search(adj, mate, range(1, n + 1)):
        pass
    return _mate_matching(mate)


def _mate_matching(mate: list[int]) -> Matching:
    """The matching of a mate array (0: exposed), built without Matching's checks."""
    partner = {i: j for i, j in enumerate(mate) if j}
    return Matching._trusted(frozenset([(i, j) for i, j in partner.items() if i < j]), partner)


def covering_matching(adj, must, maximum: bool) -> list[int] | None:
    """A matching of a local graph that covers every vertex in must, or None.

    adj is a graph as _blossom_search takes it.  Vertices coverable by one
    matching form a matroid (Edmonds & Fulkerson 1965), so growing a tree
    from each vertex of must in turn decides it: the tree reaches either an
    exposed vertex (augment) or an even vertex outside must (flip the even
    path, uncovering that vertex); a vertex of must that reaches neither
    is left exposed by every matching that covers the ones before it.
    With maximum set, every other exposed vertex then augments once, which
    never uncovers anyone, so the result is a maximum matching covering
    must.  Returns the mate array (0: exposed).
    """
    mate = [0] * len(adj)
    spare = [True] * len(adj)
    for v in must:
        spare[v] = False
    if next(_blossom_search(adj, mate, must, spare), None) is not None:
        return None
    if maximum:
        for _ in _blossom_search(adj, mate, range(1, len(adj))):
            pass
    return mate


def max_cardinality_size(instance: Instance) -> int:
    """Size of a maximum matching in the instance's acceptability graph.

    The size is remembered on the instance, whose lists never change, so
    the blossom search runs once per instance however often it is asked:
    the configuration search asks once for its target and again for each
    accepted matching's verification.
    """
    known = vars(instance)
    if "_max_size" not in known:
        known["_max_size"] = len(max_cardinality_matching(instance).pairs)
    return known["_max_size"]


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
    free = [i for i in reversed(instance.agents()) if instance.sides[i] == side]
    next_idx = [0] * (n + 1)
    holds: dict[int, int] = {}  # recipient -> the proposer it holds
    while free:
        x = free.pop()
        own = instance.mutual[x]
        while next_idx[x] < len(own):
            y = own[next_idx[x]]
            next_idx[x] += 1
            h = holds.get(y)
            if h is None or ranks[y][x] < ranks[y][h]:
                holds[y] = x
                if h is not None:
                    free.append(h)
                break
    return Matching(frozenset((x, y) if x < y else (y, x) for y, x in holds.items()))


class _Table:
    """Mutable preference table for the proposal/rotation algorithm.

    Keeps, per agent, the alive sublist of its preference list with lazy
    first/last pointers, plus the current accepted proposal each agent
    holds.  All deletions are symmetric.
    """

    def __init__(self, instance: Instance):
        self.n = instance.num_agents
        self.prefs = [instance.mutual[i] if i else () for i in range(self.n + 1)]
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
