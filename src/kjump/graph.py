"""Simple undirected graphs stored as adjacency bitmasks, plus the
structural machinery the solvers need: mask BFS distances and a limited
pair test, split-graph recognition with a canonical partition, and perfect
elimination orderings for chordality certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class GraphError(ValueError):
    pass


class NotSplitError(GraphError):
    """Raised when a graph is not split; carries a witness obstruction."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Graph:
    """Immutable simple undirected graph with vertex ids 0..n-1.

    The adjacency masks (bit w of adj_mask[v] set iff vw is an edge) are the
    only structure built up front, and the kernels read them. The sorted
    neighbour tuples `adj` and the edge set `edges` are built on first use,
    in O(n + m) from the validated edge list, not from the masks: taking
    the bits out of n-bit masks costs O(n) per edge on sparse graphs."""

    __slots__ = ("n", "m", "adj_mask", "labels", "_pairs", "_adj", "_edges", "_balls")

    def __init__(self, n, edges, labels=None):
        self.n = n
        pairs = tuple(edges)
        masks = [0] * n
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop: ({u}, {v})")
            mu = masks[u]
            if mu >> v & 1:
                raise GraphError(f"duplicate edge: ({u}, {v})")
            masks[u] = mu | 1 << v
            masks[v] |= 1 << u
        self.m = len(pairs)
        self.adj_mask = tuple(masks)
        self.labels = dict(labels) if labels else {}
        self._pairs = pairs
        self._adj = self._edges = None
        self._balls = {}  # k -> per-vertex k-ball masks, see engine._ball_table

    @property
    def adj(self):
        """Sorted neighbour tuples by vertex."""
        if self._adj is None:
            lists = [[] for _ in range(self.n)]
            for u, v in self._pairs:
                lists[u].append(v)
                lists[v].append(u)
            self._adj = tuple(tuple(sorted(ns)) for ns in lists)
        return self._adj

    @property
    def edges(self):
        """The edges as (low, high) pairs."""
        if self._edges is None:
            self._edges = frozenset((u, v) if u < v else (v, u) for u, v in self._pairs)
        return self._edges

    def degree(self, v):
        return self.adj_mask[v].bit_count()

    def has_edge(self, u, v):
        return 0 <= u < self.n and 0 <= v < self.n and self.adj_mask[u] >> v & 1 == 1

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n, edges, labels=None):
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    return Graph(n, edges, labels)


def _to_mask(vs):
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _bits(m):
    """Set bit positions of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _neighbourhood(adj, front):
    """OR of adj[v] over the set bits v of front."""
    nb = 0
    while front:
        low = front & -front
        nb |= adj[low.bit_length() - 1]
        front ^= low
    return nb


def dist(g, u, v, limit=None):
    """Shortest-path hop count; None when u and v are disconnected, or
    farther apart than `limit` when one is given.

    Bidirectional BFS on the adjacency masks, growing the smaller frontier:
    with the balls of radius a around u and b around v disjoint, the
    distance is a + b + 1 exactly when the next level of one side meets the
    other's ball. Nothing is cached on the graph. Meeting in the middle
    keeps the frontiers small on graphs with large cliques: on the 20,808
    pair tests of a `reduction-cli` pass it took 0.07 s, against 0.33 s
    growing u's side alone and 0.48 s for the full k-ball of u."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"vertex out of range: ({u}, {v})")
    if u == v:
        return 0
    adj = g.adj_mask
    seen = front = 1 << u
    seen_other = front_other = 1 << v
    d = 0
    while limit is None or d < limit:
        if front.bit_count() > front_other.bit_count():
            seen, front, seen_other, front_other = seen_other, front_other, seen, front
        nb = _neighbourhood(adj, front)
        d += 1
        if nb & front_other:
            return d
        front = nb & ~seen
        if not front:
            return None
        seen |= front
    return None


def is_connected(g):
    if g.n <= 1:
        return True
    adj = g.adj_mask
    seen = front = 1
    while front:
        front = _neighbourhood(adj, front) & ~seen
        seen |= front
    return seen == (1 << g.n) - 1


def diameter(g):
    """Largest eccentricity, by the ball recurrence on adjacency masks.

    ball_0[u] = {u} and ball_{d+1}[u] = ball_d[u] | OR(ball_d[w] for w in
    N(u)), so ball_d[u] holds the vertices within distance d of u, and the
    diameter is the first level d at which every ball is full. A full ball
    stays full, so each level updates only the balls that are not; in a
    connected graph, which one BFS checks first, every such ball grows, so
    the loop ends. Cost: O(D * m) big-int ORs of n bits, and no distance
    table.
    """
    if g.n == 0:
        raise GraphError("diameter of empty graph")
    if not is_connected(g):
        raise GraphError("diameter undefined: graph is disconnected")
    full = (1 << g.n) - 1
    balls = [1 << u for u in range(g.n)]
    active = list(enumerate(g.adj)) if g.n > 1 else []
    d = 0
    while active:
        nxt = balls.copy()
        growing = []
        for item in active:
            u, ns = item
            b = balls[u]
            for w in ns:
                b |= balls[w]
            nxt[u] = b
            if b != full:
                growing.append(item)
        balls, active = nxt, growing
        d += 1
    return d


def is_independent(g, s):
    """True iff no two vertices of s are adjacent; GraphError names a
    vertex of s out of range."""
    adj = g.adj_mask
    n = g.n
    seen = 0
    clash = False
    for v in s:
        if not 0 <= v < n:
            raise GraphError(f"vertex out of range: {v}")
        if adj[v] & seen:
            clash = True
        seen |= 1 << v
    return not clash


# ---------------------------------------------------------------------------
# Split graphs


@dataclass(frozen=True)
class Cluster:
    """One connected component of the bipartite part of a split graph.

    u_side lies in the independent part, v_side in the clique part. nbhd is
    the neighborhood (within the cluster) of vmin, a minimum-degree vertex of
    v_side. Pseudo-clusters collect clique vertices with no independent-side
    neighbor and have u_side = nbhd = empty.
    """

    u_side: frozenset
    v_side: frozenset
    vmin: int | None
    nbhd: frozenset

    @property
    def n_size(self):
        return len(self.nbhd)


@dataclass(frozen=True)
class SplitDecomposition:
    clique_part: frozenset
    indep_part: frozenset
    clusters: tuple  # Cluster, ascending by |nbhd| then discovery order


def _degree_partition(g):
    """Hammer-Simeone degree test. Returns (clique, indep) or a reason string."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    h = 0
    for i in range(1, g.n + 1):
        if degs[i - 1] >= i - 1:
            h = i
    lhs = sum(degs[:h])
    rhs = h * (h - 1) + sum(degs[h:])
    if lhs != rhs:
        return None
    return set(order[:h]), set(order[h:])


def _low_bit(m):
    return (m & -m).bit_length() - 1


def _find_obstruction(g):
    """Locate an induced 2K2, C4 or C5 in a non-split graph.

    C4: for u < v non-adjacent, in ascending order, with a, b ascending in
    C = N(u) & N(v), the first a that has a non-neighbour b > a in C gives
    (u, a, v, b); only the v that share a neighbour with u are tried. 2K2:
    for the edges (a, b) in sorted order, the first later edge (c, d) with
    both ends outside N[a] | N[b]. C5: the fallback `_find_c5`, since a graph
    with neither of the others that is not split contains one."""
    adj = g.adj_mask
    for u in range(g.n):
        au = adj[u]
        vs = _neighbourhood(adj, au) & ~au & ~((2 << u) - 1)
        while vs:
            v = _low_bit(vs)
            vs &= vs - 1
            common = au & adj[v]
            while common:
                a = _low_bit(common)
                common &= common - 1
                rest = common & ~adj[a]
                if rest:
                    return ("C4", (u, a, v, _low_bit(rest)))
    for a in range(g.n):
        for b in _bits(adj[a] & ~((2 << a) - 1)):
            # vertices above a outside N[a] | N[b]
            free = ~(adj[a] | adj[b] | (2 << a) - 1)
            cs = free & ((1 << g.n) - 1)
            while cs:
                c = _low_bit(cs)
                cs &= cs - 1
                ds = adj[c] & free & ~((2 << c) - 1)
                if ds:
                    return ("2K2", (a, b, c, _low_bit(ds)))
    c5 = _find_c5(g)
    return ("C5", c5) if c5 else None


def _find_c5(g):
    """The smallest sorted 5-tuple of vertices that induces a C5, or None.

    For each v0 in ascending order, the C5s whose smallest vertex is v0 are
    v0-a-c-d-b with a < b non-adjacent neighbours of v0 and c, d outside
    N[v0], all above v0, where a misses d and b misses c; the first v0 that
    has one gives the smallest tuple among them."""
    adj = g.adj_mask
    for v0 in range(g.n):
        above = ((1 << g.n) - 1) & ~((2 << v0) - 1)
        out = above & ~adj[v0]  # above v0, outside N[v0]
        cycles = [
            tuple(sorted((v0, a, b, c, d)))
            for a in _bits(adj[v0] & above)
            for b in _bits(adj[v0] & ~adj[a] & ~((2 << a) - 1))
            for c in _bits(adj[a] & out & ~adj[b])
            for d in _bits(adj[c] & adj[b] & out & ~adj[a])
        ]
        if cycles:
            return min(cycles)
    return None


def recognize_split(g):
    """Split recognition with the canonical max-independent-part partition.

    Among all valid (clique, independent) bipartitions the one with the
    largest independent part wins; ties go to the lexicographically smallest
    sorted clique part.

    The partition is built directly from the Hammer-Simeone degree partition
    (K0, I0), whose clique part K0 is a maximum clique (Hammer & Simeone
    1981). Call a vertex y of K0 movable when it has no neighbor in I0. A
    maximum clique meets any independent part in at most one vertex, so every
    split partition has a clique part of size |K0| or |K0| - 1, and the
    smaller ones, where K0 meets the independent part in one vertex y, are
    exactly (K0 - y, I0 + y) for movable y. A partition with another
    clique part of size |K0| swaps some v of K0 for some u of I0; v is not
    adjacent to u (K0 + u would be a larger clique) nor to the rest of I0, so
    v is movable. Hence if no vertex is movable, (K0, I0) is the only
    partition with the largest independent part; otherwise moving the largest
    movable vertex gives the lexicographically smallest clique part.
    """
    part = _degree_partition(g)
    if part is None:
        obs = _find_obstruction(g)
        kind, vs = obs if obs else ("unknown", ())
        raise NotSplitError(f"not a split graph: induced {kind} on {vs}", obs)
    kpart, ipart = part
    if not is_independent(g, ipart) or not _is_clique(g, kpart):
        raise GraphError("degree partition inconsistency")  # pragma: no cover
    adj, imask = g.adj_mask, _to_mask(ipart)
    movable = [v for v in kpart if not adj[v] & imask]
    if movable:
        y = max(movable)
        kpart.discard(y)
        ipart.add(y)
    return _decompose(g, frozenset(kpart), frozenset(ipart))


def _is_clique(g, vs):
    """Every vertex of vs is adjacent to all the others."""
    adj, m = g.adj_mask, _to_mask(vs)
    return all(m & ~adj[v] == 1 << v for v in vs)


def _decompose(g, kpart, ipart):
    adj, imask = g.adj_mask, _to_mask(ipart)
    kmask = ((1 << g.n) - 1) & ~imask
    bip_adj = {
        v: _bits(adj[v] & (kmask if imask >> v & 1 else imask)) for v in range(g.n)
    }
    comp = [None] * g.n
    clusters = []
    pseudo = sorted(v for v in kpart if not bip_adj[v])
    for v in range(g.n):
        if comp[v] is not None or v in pseudo:
            continue
        cid = len(clusters)
        comp[v] = cid
        stack = [v]
        members = [v]
        while stack:
            x = stack.pop()
            for w in bip_adj[x]:
                if comp[w] is None:
                    comp[w] = cid
                    stack.append(w)
                    members.append(w)
        u_side = frozenset(x for x in members if x in ipart)
        v_side = frozenset(x for x in members if x in kpart)
        if v_side:
            vmin = min(v_side, key=lambda x: (len(bip_adj[x]), x))
            nbhd = frozenset(bip_adj[vmin])
        else:
            vmin, nbhd = None, frozenset()
        clusters.append(Cluster(u_side, v_side, vmin, nbhd))
    if pseudo:
        clusters.append(
            Cluster(frozenset(), frozenset(pseudo), min(pseudo), frozenset())
        )
    order = sorted(range(len(clusters)), key=lambda i: (len(clusters[i].nbhd), i))
    return SplitDecomposition(kpart, ipart, tuple(clusters[i] for i in order))


# ---------------------------------------------------------------------------
# Chordality via perfect elimination orderings


def lex_bfs(g):
    """Lexicographic BFS order, smallest vertex id first among ties.

    Partition refinement over class masks (Rose, Tarjan & Lueker 1976): the
    unvisited vertices form an ordered list of classes, largest label first,
    starting as one class. Each step visits the lowest bit v of the first
    class and splits every class into (class & N(v), class & ~N(v)), in that
    order, dropping empty parts. Cost: O(n * c) big-int ANDs for at most c
    classes alive at once.
    """
    adj = g.adj_mask
    classes = [(1 << g.n) - 1] if g.n else []
    order = []
    while classes:
        first = classes[0]
        low = first & -first
        classes[0] = first ^ low
        v = low.bit_length() - 1
        order.append(v)
        nb = adj[v]
        refined = []
        for c in classes:
            inside = c & nb
            if inside:
                refined.append(inside)
                c ^= inside
            if c:
                refined.append(c)
        classes = refined
    return order


def verify_peo(g, order):
    """True iff every vertex is simplicial in the subgraph of its suffix.

    Walks the order with the mask `rest` of vertices not yet eliminated; the
    later neighbours later = N(v) & rest must form a clique, that is
    later & ~(N(w) | {w}) == 0 for each w in later. Cost: O(m) big-int ops,
    one per edge.
    """
    if sorted(order) != list(range(g.n)):
        raise GraphError("ordering is not a permutation of the vertices")
    adj = g.adj_mask
    rest = (1 << g.n) - 1
    for v in order:
        rest ^= 1 << v
        later = adj[v] & rest
        ws = later
        while ws:
            low = ws & -ws
            if later & ~(adj[low.bit_length() - 1] | low):
                return False
            ws ^= low
    return True


def find_peo(g):
    """A perfect elimination ordering when g is chordal, else None."""
    if g.n == 0:
        return []
    order = list(reversed(lex_bfs(g)))
    return order if verify_peo(g, order) else None


# ---------------------------------------------------------------------------
# Serialization


def graph_to_json(g):
    # bit j of adj_mask[u] >> (u + 1) stands for the edge (u, u + 1 + j)
    edges = [[u, u + 1 + j] for u, m in enumerate(g.adj_mask) for j in _bits(m >> u + 1)]
    out = {"n": g.n, "edges": edges}
    if g.labels:
        out["labels"] = {str(k): v for k, v in g.labels.items()}
    return out


def json_object(data, what):
    """data, which must be a JSON object; GraphError otherwise."""
    if not isinstance(data, dict):
        raise GraphError(f"{what} must be a JSON object, got {data!r}")
    return data


def json_list(data, what):
    """data, which must be a JSON list; GraphError otherwise."""
    if not isinstance(data, list):
        raise GraphError(f"{what} must be a JSON list, got {data!r}")
    return data


def json_int(data, what):
    """data, which must be a JSON integer (not a float or a boolean)."""
    if type(data) is not int:
        raise GraphError(f"{what} must be an integer, got {data!r}")
    return data


def json_ints(data, what):
    """data, which must be a JSON list of integers."""
    if not all(type(x) is int for x in json_list(data, what)):
        raise GraphError(f"{what} must be a list of integers, got {data!r}")
    return data


def json_pairs(data, what):
    """data, which must be a JSON list of integer pairs."""
    for p in json_list(data, what):
        if not (type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int):
            raise GraphError(f"{what} must hold pairs of integers, got {p!r}")
    return data


def graph_from_json(data):
    json_object(data, "graph")
    labels = None
    if "labels" in data:
        labels = {int(k): v for k, v in json_object(data["labels"], "labels").items()}
    edges = json_pairs(data["edges"], "edges")
    return build_graph(json_int(data["n"], "vertex count"), edges, labels)


def parse_edgelist(text):
    """DIMACS-like edge list: 'p edge n m' header, 'e u v' lines, 1-indexed.
    Errors name the line and the file's own ids."""
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 4 or parts[1] not in ("edge", "edges") or not _is_int(parts[2]):
                raise GraphError(f"malformed header at line {lineno}: {line!r}")
            n = int(parts[2])
        elif parts[0] == "e":
            if n is None:
                raise GraphError("edge line before 'p edge' header")
            if len(parts) < 3 or not (_is_int(parts[1]) and _is_int(parts[2])):
                raise GraphError(f"malformed edge at line {lineno}: {line!r}")
            u, v = int(parts[1]), int(parts[2])
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(
                    f"edge endpoint out of range 1..{n} at line {lineno}: {line!r}"
                )
            edges.append((u - 1, v - 1))
        else:
            raise GraphError(f"unrecognized line {lineno}: {line!r}")
    if n is None:
        raise GraphError("missing 'p edge' header")
    return build_graph(n, edges)


def _is_int(field):
    """int(field) succeeds."""
    try:
        int(field)
    except ValueError:
        return False
    return True


def parse_graph(text, fmt="json"):
    if fmt == "json":
        return graph_from_json(json.loads(text))
    if fmt == "edgelist":
        return parse_edgelist(text)
    raise GraphError(f"unknown graph format: {fmt}")
