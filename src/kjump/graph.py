"""Simple undirected graphs plus the structural machinery the solvers need:
BFS distances, split-graph recognition with a canonical partition, and
perfect elimination orderings for chordality certificates.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass


class GraphError(ValueError):
    pass


class NotSplitError(GraphError):
    """Raised when a graph is not split; carries a witness obstruction."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


_DIST_CACHE_LIMIT = 4096


class Graph:
    """Immutable simple undirected graph with vertex ids 0..n-1."""

    __slots__ = ("n", "edges", "adj", "adj_mask", "labels", "_dist_table", "_balls")

    def __init__(self, n, edges, labels=None):
        self.n = n
        seen = set()
        adj = [[] for _ in range(n)]
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop: ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge: ({u}, {v})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.edges = frozenset(seen)
        self.adj = tuple(tuple(sorted(ns)) for ns in adj)
        self.adj_mask = tuple(sum(1 << w for w in ns) for ns in self.adj)
        self.labels = dict(labels) if labels else {}
        self._dist_table = None
        self._balls = {}  # k -> per-vertex k-ball masks, see engine._cached_ball

    def neighbors(self, v):
        return self.adj[v]

    def degree(self, v):
        return len(self.adj[v])

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def build_graph(n, edges, labels=None):
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    return Graph(n, edges, labels)


def bfs_distances(g, source):
    """Hop distances from source; None marks unreachable vertices."""
    dist = [None] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in g.adj[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def _dist_row(g, u):
    if g.n <= _DIST_CACHE_LIMIT:
        if g._dist_table is None:
            g._dist_table = [None] * g.n
        row = g._dist_table[u]
        if row is None:
            row = bfs_distances(g, u)
            g._dist_table[u] = row
        return row
    return bfs_distances(g, u)


def dist(g, u, v):
    """Shortest-path hop count, or None when u and v are disconnected."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"vertex out of range: ({u}, {v})")
    if u == v:
        return 0
    return _dist_row(g, u)[v]


def is_connected(g):
    if g.n <= 1:
        return True
    return all(d is not None for d in bfs_distances(g, 0))


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
    s = set(s)
    for v in s:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex out of range: {v}")
    for v in s:
        for w in g.adj[v]:
            if w in s:
                return False
    return True


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
    edges: frozenset
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
    both ends outside N[a] | N[b]. C5: a brute-force fallback, since a graph
    with neither of the others that is not split contains one."""
    adj = g.adj_mask
    for u in range(g.n):
        au = adj[u]
        reach = 0
        for w in g.adj[u]:
            reach |= adj[w]
        vs = reach & ~au & ~((2 << u) - 1)
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
    for a, b in sorted(g.edges):
        # vertices above a outside N[a] | N[b]
        free = ~(adj[a] | adj[b] | (2 << a) - 1)
        cs = free & ((1 << g.n) - 1)
        while cs:
            c = _low_bit(cs)
            cs &= cs - 1
            ds = adj[c] & free & ~((2 << c) - 1)
            if ds:
                return ("2K2", (a, b, c, _low_bit(ds)))
    # C5: brute force over 5-cycles.
    from itertools import combinations

    for vs in combinations(range(g.n), 5):
        sub = [(x, y) for x, y in combinations(vs, 2) if g.has_edge(x, y)]
        if len(sub) != 5:
            continue
        if all(sum(1 for e in sub if v in e) == 2 for v in vs):
            return ("C5", vs)
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
    movable = [v for v in kpart if not any(w in ipart for w in g.adj[v])]
    if movable:
        y = max(movable)
        kpart.discard(y)
        ipart.add(y)
    return _decompose(g, frozenset(kpart), frozenset(ipart))


def _is_clique(g, vs):
    vs = list(vs)
    return all(g.has_edge(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs)))


def _decompose(g, kpart, ipart):
    bip_adj = {
        v: [w for w in g.adj[v] if (w in ipart) != (v in ipart)] for v in range(g.n)
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
        ce = frozenset(
            (min(x, w), max(x, w)) for x in members for w in bip_adj[x]
        )
        if v_side:
            vmin = min(v_side, key=lambda x: (len(bip_adj[x]), x))
            nbhd = frozenset(bip_adj[vmin])
        else:
            vmin, nbhd = None, frozenset()
        clusters.append(Cluster(u_side, v_side, ce, vmin, nbhd))
    if pseudo:
        clusters.append(
            Cluster(frozenset(), frozenset(pseudo), frozenset(), min(pseudo), frozenset())
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
    out = {"n": g.n, "edges": sorted([list(e) for e in g.edges])}
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
    """DIMACS-like edge list: 'p edge n m' header, 'e u v' lines, 1-indexed."""
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 4 or parts[1] not in ("edge", "edges"):
                raise GraphError(f"malformed header at line {lineno}: {line!r}")
            n = int(parts[2])
        elif parts[0] == "e":
            if n is None:
                raise GraphError("edge line before 'p edge' header")
            u, v = int(parts[1]), int(parts[2])
            edges.append((u - 1, v - 1))
        else:
            raise GraphError(f"unrecognized line {lineno}: {line!r}")
    if n is None:
        raise GraphError("missing 'p edge' header")
    return build_graph(n, edges)


def parse_graph(text, fmt="json"):
    if fmt == "json":
        return graph_from_json(json.loads(text))
    if fmt == "edgelist":
        return parse_edgelist(text)
    raise GraphError(f"unknown graph format: {fmt}")
