"""Simple undirected graphs stored as adjacency bitmasks, plus the
structural machinery the solvers need: mask BFS distances and a limited
pair test, split-graph recognition with a canonical partition, and perfect
elimination orderings for chordality certificates.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import Counter
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
    graph. The constructor builds them in one pass that also checks the
    caller's edges, and keeps none of the pairs; the kernels read the masks.
    The sorted neighbour tuples `adj` and the edge set `edges` are read off
    the masks on first use, one vertex at a time."""

    __slots__ = ("n", "m", "adj_mask", "_adj", "_edges", "_balls")

    def __init__(self, n, edges):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        masks = zero_masks(n)
        m = 0
        for p in edges:
            try:
                u, v = p
            except (TypeError, ValueError):
                u = v = None
            if type(u) is not int or type(v) is not int:
                raise _edge_error(p, u, v, n)
            # one test per edge: an end past n - 1 fails the index, a
            # negative end the shift, and a self-loop or a duplicate sets no
            # new bit; _edge_error says which
            try:
                mu, mv = masks[u], masks[v]
                nu, nv = mu | 1 << v, mv | 1 << u
            except (IndexError, ValueError):
                raise _edge_error(p, u, v, n) from None
            if nu == mu or u == v:
                raise _edge_error(p, u, v, n)
            masks[u] = nu
            masks[v] = nv
            m += 1
        self.m = m
        self.adj_mask = tuple(masks)
        self._adj = self._edges = None
        self._balls = {}  # k -> per-vertex k-ball masks, see engine._ball_table

    @property
    def adj(self):
        """Sorted neighbour tuples by vertex."""
        if self._adj is None:
            self._adj = tuple(tuple(_bits(mask)) for mask in self.adj_mask)
        return self._adj

    @property
    def edges(self):
        """The edges as (low, high) pairs."""
        if self._edges is None:
            # bit j of adj_mask[u] >> (u + 1) stands for the edge (u, u + 1 + j)
            self._edges = frozenset(
                (u, u + 1 + j)
                for u, mask in enumerate(self.adj_mask)
                for j in _bits(mask >> u + 1)
            )
        return self._edges

    def degree(self, v):
        return self.adj_mask[v].bit_count()

    def has_edge(self, u, v):
        return 0 <= u < self.n and 0 <= v < self.n and self.adj_mask[u] >> v & 1 == 1

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _edge_error(p, u, v, n):
    """The GraphError for the first bad edge p of a Graph, unpacked to u, v
    (None when p is not a pair), naming the first fault in the order: shape,
    range, self-loop, duplicate."""
    if type(u) is not int or type(v) is not int:
        return GraphError(f"edges must hold pairs of integers, got {p!r}")
    if not (0 <= u < n and 0 <= v < n):
        return GraphError(f"edge endpoint out of range: ({u}, {v})")
    if u == v:
        return GraphError(f"self-loop: ({u}, {v})")
    return GraphError(f"duplicate edge: ({u}, {v})")


build_graph = Graph  # the older name, which callers outside the package keep


def _to_mask(vs):
    m = 0
    for v in vs:
        m |= 1 << v
    return m


_SCAN_ABOVE = 24  # set bits, see _bits


def _bits(m):
    """Set bit positions of m, ascending.

    Taking the low bit off costs a few n-bit operations per set bit, so a
    mask with more than _SCAN_ABOVE set bits is read off its binary string
    instead, in O(n) once. The two cost the same between 20 and 32 set bits
    on 500- to 14,000-bit masks (CPython 3.11). On 14,000-bit masks the scan
    takes 34 µs for 64 set bits, against 68 µs bit by bit, so a clique row
    of thousands of neighbours is no longer quadratic."""
    if m.bit_count() > _SCAN_ABOVE:
        return [x.start() for x in re.finditer("1", bin(m)[:1:-1])]
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _neighbourhood(adj, front):
    """OR of adj[v] over the set bits v of front, taken from the highest
    bit down: clearing the top bit costs one shift, where isolating the
    lowest costs a negation and an AND."""
    nb = 0
    while front:
        v = front.bit_length() - 1
        nb |= adj[v]
        front ^= 1 << v
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
    size = size_other = 1  # the frontiers' vertex counts
    d = 0
    while limit is None or d < limit:
        if size > size_other:
            seen, front, size, seen_other, front_other, size_other = (
                seen_other, front_other, size_other, seen, front, size
            )
        nb = _neighbourhood(adj, front)
        d += 1
        if nb & front_other:
            return d
        front = nb & ~seen
        if not front:
            return None
        seen |= front
        size = front.bit_count()
    return None


def _reach(adj, start, radius=-1):
    """The vertices within `radius` hops of the set bits of start, as a
    mask, by a mask BFS; a negative radius sets no limit."""
    seen = front = start
    while front and radius:
        front = _neighbourhood(adj, front) & ~seen
        seen |= front
        radius -= 1
    return seen


def is_connected(g):
    return g.n <= 1 or _reach(g.adj_mask, 1) == (1 << g.n) - 1


def _greedy_clique(adj):
    """A clique of the graph with adjacency masks adj, taken greedily: the
    vertices by descending degree, ties by ascending id, each kept when it
    is adjacent to every vertex kept before it. All kept vertices after the
    first v are neighbours of v, so only v's row is sorted: n popcounts,
    one sort of at most n - 1 ids and one AND per vertex kept."""
    if not adj:
        return []
    degs = list(map(int.bit_count, adj))
    v = degs.index(max(degs))
    clique, common = [v], adj[v]
    for w in sorted(_bits(common), key=degs.__getitem__, reverse=True):
        if common >> w & 1:
            clique.append(w)
            common &= adj[w]
    return clique


def ball_levels(g):
    """Yield ball_d for d = 0, 1, ...: the list whose entry u is the mask of
    the vertices within distance d of u, by the recurrence ball_0[u] = {u},
    ball_{d+1}[u] = ball_d[u] | OR(ball_d[w] for w in N(u)). The last level
    is the largest eccentricity of a vertex in its component; every level is
    a new list.

    A ball that does not grow holds its whole component and never grows
    again, and nor does a full one, so each level updates only the balls
    that grew at the one before and are not full. On a connected graph every
    ball that is not full grows, so no level is computed beyond the last.

    A clique Q of `_greedy_clique` shares its union: N[u] holds Q for every
    member u, so each level ORs the balls of Q once into C, and a member's
    next ball is C with the balls of its neighbours outside Q. On a
    reduction graph Q is the clique of the 3m k-vertices, most of its
    edges. A Q of one or two vertices spends on its union the ORs that its
    members' neighbour arrays no longer take, so every graph takes this path.

    Cost: O(D * (m - |Q|(|Q| - 1)/2 + |Q|)) big-int ORs of n bits for the
    D levels, and no distance table. The neighbours are int32 arrays read off the masks one
    vertex at a time and held for the run alone: on the reduction of a
    planted formula with m = n = 1000 (4.5M edges, Q of 3,000 vertices)
    they hold 40,000 ids, where all 9M would take 36 MB.
    """
    full = (1 << g.n) - 1
    rows = list(g.adj_mask)
    clique = _greedy_clique(rows)
    qmask = _to_mask(clique)
    for q in clique:
        rows[q] &= ~qmask
    balls = [1 << u for u in range(g.n)]
    nbrs = [array("i", _bits(mask)) for mask in rows]
    active = list(enumerate(nbrs))
    grew = g.n > 0
    while grew:
        yield balls
        nxt = balls.copy()
        # a member whose ball stopped growing holds the component, which
        # is then the union too, so every member may take it
        union = 0
        for q in clique:
            union |= balls[q]
        for q in clique:
            nxt[q] = union
        growing = []
        grew = False
        for item in active:
            u, ns = item
            b = nxt[u]  # balls[u], or the union of Q for a member of Q
            for w in ns:
                b |= balls[w]
            if b != balls[u]:
                nxt[u] = b
                grew = True
                if b != full:
                    growing.append(item)
        balls, active = nxt, growing


def diameter(g):
    """Largest eccentricity: the last level of `ball_levels`, where every
    ball is full unless g is disconnected."""
    if g.n == 0:
        raise GraphError("diameter of empty graph")
    for d, balls in enumerate(ball_levels(g)):
        pass
    if balls[0] != (1 << g.n) - 1:
        raise GraphError("diameter undefined: graph is disconnected")
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

    u_side lies in the independent part, v_side in the clique part. n_size
    is the size of the neighborhood (within the cluster) of vmin, a
    minimum-degree vertex of v_side. u_side is never empty; v_side is empty
    (vmin None, n_size 0) only for an isolated vertex, and those come first.
    """

    u_side: frozenset
    v_side: frozenset
    vmin: int | None
    n_size: int


@dataclass(frozen=True)
class SplitDecomposition:
    clique_part: frozenset
    indep_part: frozenset
    clusters: tuple  # Cluster, ascending by n_size then discovery order


def _degree_partition(g):
    """Hammer-Simeone degree test: (clique, indep), or None when g is not
    split. With e(.) counting edges, lhs = 2e(K) + e(K, I) and rhs = h(h - 1)
    + 2e(I) + e(K, I), so lhs = rhs forces K to be a clique and I edgeless.

    The vertices go by descending degree, ties by ascending id (a stable
    sort), and h is the number of leading vertices whose degree is at least
    their position: along that order the degree never rises and the position
    does, so the first vertex that fails ends the run."""
    degs = [m.bit_count() for m in g.adj_mask]
    order = sorted(range(g.n), key=degs.__getitem__, reverse=True)
    h = lhs = 0
    for v in order:
        if degs[v] < h:
            break
        lhs += degs[v]
        h += 1
    rhs = h * (h - 1) + 2 * g.m - lhs
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

    Every clique vertex then has an independent neighbour: by definition
    with no movable vertex, else it sees the moved one. So alpha(g) =
    |indep_part|: an independent set holds at most one clique vertex, and
    then misses its independent neighbour. Clusters, the components of
    bip[v] = adj[v] & (the other part) by a mask BFS from the lowest
    unvisited vertex, are stably sorted by n_size, which is 0 only for an
    isolated vertex (independent: in K0 it would be movable); those lead.
    """
    part = _degree_partition(g)
    if part is None:
        # every non-split graph has an induced 2K2, C4 or C5 (Foldes & Hammer
        # 1977), and _find_obstruction searches for all three
        kind, vs = obs = _find_obstruction(g)
        raise NotSplitError(f"not a split graph: induced {kind} on {vs}", obs)
    kpart, ipart = part
    adj, imask = g.adj_mask, _to_mask(ipart)
    movable = [v for v in kpart if not adj[v] & imask]
    if movable:
        y = max(movable)
        kpart.discard(y)
        ipart.add(y)
        imask |= 1 << y
    kmask = ((1 << g.n) - 1) & ~imask
    bip = [a & kmask for a in adj]
    for v in kpart:
        bip[v] = adj[v] & imask
    unseen = (1 << g.n) - 1
    clusters = []
    while unseen:
        comp = _reach(bip, unseen & -unseen)
        unseen &= ~comp
        u_side, v_side = frozenset(_bits(comp & imask)), _bits(comp & kmask)
        # v_side ascends, so min breaks a tie by the lowest id
        vmin = min(v_side, key=lambda x: bip[x].bit_count(), default=None)
        n_size = bip[vmin].bit_count() if v_side else 0
        clusters.append(Cluster(u_side, frozenset(v_side), vmin, n_size))
    clusters.sort(key=lambda c: c.n_size)
    return SplitDecomposition(frozenset(kpart), frozenset(ipart), tuple(clusters))


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

    The parent test of Rose, Tarjan & Lueker (1976): call the first later
    neighbour p of v in the order its parent; the order is a perfect
    elimination ordering iff every v's other later neighbours are
    neighbours of p. Walking the order with the mask `rest` of vertices not
    yet eliminated, the children of w are its earlier neighbours that no
    vertex before w has claimed (`waiting`), and a child v's later
    neighbours other than w are adj[v] & rest once w is out, since no
    vertex between v and w is a neighbour of v. Cost: O(n) big-int ops, one
    test per vertex.
    """
    if sorted(order) != list(range(g.n)):
        raise GraphError("ordering is not a permutation of the vertices")
    adj = g.adj_mask
    rest = (1 << g.n) - 1
    waiting = 0
    for w in order:
        rest ^= 1 << w
        children = adj[w] & waiting
        waiting ^= children | 1 << w
        outside = rest & ~adj[w]
        while children:
            low = children & -children
            if adj[low.bit_length() - 1] & outside:
                return False
            children ^= low
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
    return {"n": g.n, "edges": edges}


def parse_json(text):
    """The JSON document in text. A document nested too deeply for the
    parser's recursion is a GraphError, as any other bad input is."""
    try:
        return json.loads(text)
    except RecursionError:
        raise GraphError("JSON input is nested too deeply") from None


def zero_masks(n):
    """A list of n zero masks, one per vertex. CPython refuses a list of
    2**63 or more items with an OverflowError that names no count; this one
    names the vertex count."""
    try:
        return [0] * n
    except OverflowError:
        raise OverflowError(
            f"vertex count {n} is past the machine's index range"
        ) from None


def parse_int(field):
    """The integer that the text field spells, or None unless it is ASCII
    digits after an optional sign: int() alone would also take '1_0',
    spaces and non-ASCII digits. The rule of every DIMACS integer field."""
    if field.isascii() and (field.isdigit() or field[:1] in "+-" and field[1:].isdigit()):
        return int(field)
    return None


def json_object(data, what, keys=()):
    """data, which must be a JSON object holding every key in keys;
    GraphError, naming the document and the key, otherwise."""
    if not isinstance(data, dict):
        raise GraphError(f"{what} must be a JSON object, got {data!r}")
    for key in keys:
        if key not in data:
            raise GraphError(f"{what} is missing key {key!r}")
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


def json_vertex_set(data, what):
    """The vertices of data, a JSON list of integers that names each once."""
    out = frozenset(json_ints(data, what))
    if len(out) < len(data):  # only a list with a repeat pays a second pass
        v = next(v for v, count in Counter(data).items() if count > 1)
        raise GraphError(f"{what} names vertex {v} again")
    return out


def json_vertex_keys(data, n, what):
    """The JSON object data, the document `what`, keyed by the vertex ids
    its keys name: each an integer by the rule of parse_int, in 0..n-1."""
    out = {}
    for key, value in json_object(data, what).items():
        v = parse_int(key)
        if v is None:
            raise GraphError(f"{what} key {key!r} is not an integer vertex id")
        if not 0 <= v < n:
            raise GraphError(
                f"{what} key {key!r} is out of range: the graph has {n} vertices"
            )
        if v in out:
            raise GraphError(f"{what} key {key!r} names vertex {v} again")
        out[v] = value
    return out


def json_pairs(data, what):
    """data, which must be a JSON list of integer pairs."""
    for p in json_list(data, what):
        if not (type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int):
            raise GraphError(f"{what} must hold pairs of integers, got {p!r}")
    return data


def graph_from_json(data):
    json_object(data, "graph", ("n", "edges"))
    # Graph checks the edges before a label key is read; no label is kept
    g = Graph(json_int(data["n"], "vertex count"), json_list(data["edges"], "edges"))
    if "labels" in data:
        json_vertex_keys(data["labels"], g.n, "labels")
    return g


def dimacs_header(parts, formats, seen, lineno, line, error=GraphError):
    """The two counts of the DIMACS header `line`, split into parts, which
    must read 'p <format> a b' with format in formats and a, b nonnegative
    integers. Raises `error` naming the line for a malformed header, or for
    any header when one was `seen` before."""
    if seen:
        raise error(f"second header at line {lineno}: {line!r}")
    counts = [parse_int(f) for f in parts[2:]]
    if len(parts) != 4 or parts[1] not in formats or None in counts or min(counts) < 0:
        raise error(f"malformed header at line {lineno}: {line!r}")
    return counts


def parse_edgelist(text):
    """DIMACS-like edge list: 'p edge n m' header, then m 'e u v' lines,
    1-indexed. Errors name the line and the file's own ids."""
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            n, m = dimacs_header(parts, ("edge", "edges"), n is not None, lineno, line)
            masks = [0] + zero_masks(n)  # bit v of masks[u] for each edge uv read
        elif parts[0] == "e":
            if n is None:
                raise GraphError(
                    f"edge line before 'p edge' header at line {lineno}: {line!r}"
                )
            ends = [parse_int(f) for f in parts[1:]]
            if len(ends) != 2 or None in ends:
                raise GraphError(f"malformed edge at line {lineno}: {line!r}")
            u, v = ends
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(
                    f"edge endpoint out of range 1..{n} at line {lineno}: {line!r}"
                )
            if u == v or masks[u] >> v & 1:
                what = "self-loop" if u == v else "duplicate edge"
                raise GraphError(f"{what} at line {lineno}: {line!r}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            edges.append((u - 1, v - 1))
        else:
            raise GraphError(f"unrecognized line {lineno}: {line!r}")
    if n is None:
        raise GraphError("missing 'p edge' header")
    if len(edges) != m:
        raise GraphError(f"header promises {m} edges, found {len(edges)}")
    del masks  # Graph builds its own rows; holding both would double the peak
    return Graph(n, edges)


def parse_graph(text, fmt="json"):
    if fmt == "json":
        return graph_from_json(parse_json(text))
    if fmt == "edgelist":
        return parse_edgelist(text)
    raise GraphError(f"unknown graph format: {fmt}")
