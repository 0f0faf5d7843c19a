"""Shared fixtures and independent reference implementations.

Everything in here is deliberately naive: frozenset BFS, brute-force subset
scans, exhaustive partition enumeration. None of it shares search code with
the package, so it can arbitrate expected values in the tests. The one
exception is naive_search, the oracle's earlier search loop: it draws
successors from `engine._successor_fn`, which is itself checked against
naive_successors, and it fixes the discovery order the current loop keeps.
"""

import itertools
import random
from collections import deque
from functools import lru_cache

from kjump.engine import ResourceExhausted, _successor_fn
from kjump.graph import GraphError, build_graph


# ---------------------------------------------------------------------------
# small graph zoo

def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves):
    """Center 0, leaves 1..leaves."""
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def two_cluster_graph(per_side):
    """Clique {0, 1}; 0 adjacent to the first per_side independent vertices,
    1 to the rest. The standard two-cluster split example."""
    edges = [(0, 1)]
    for i in range(per_side):
        edges.append((0, 2 + i))
        edges.append((1, 2 + per_side + i))
    return build_graph(2 + 2 * per_side, edges)


# ---------------------------------------------------------------------------
# naive reference oracles

def naive_graph_lists(n, edges):
    """(adj, edges) as the list-first `Graph` constructor built them, with
    its checks and messages, kept verbatim as the reference for the
    mask-first one: sorted neighbour tuples and the (low, high) edge set."""
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
    return tuple(tuple(sorted(ns)) for ns in adj), frozenset(seen)


def naive_dist(g, u, v):
    if u == v:
        return 0
    seen = {u: 0}
    q = deque([u])
    while q:
        x = q.popleft()
        for w in g.adj[x]:
            if w not in seen:
                seen[w] = seen[x] + 1
                if w == v:
                    return seen[w]
                q.append(w)
    return None


def naive_shortest_path(g, u, v):
    """One shortest u-v path, or None, by a BFS that stops once v is found;
    `simulate._step` reads the same paths from one parent tree per call.

    Parents are chosen deterministically: BFS scans neighbors in ascending
    order, and each vertex keeps the parent that discovered it, which is the
    first-discovered of its neighbors at the previous level (not necessarily
    the lowest-id one).
    """
    if u == v:
        return [u]
    parent = [None] * g.n
    seen = [False] * g.n
    seen[u] = True
    q = deque([u])
    while q:
        x = q.popleft()
        for w in g.adj[x]:
            if not seen[w]:
                seen[w] = True
                parent[w] = x
                if w == v:
                    path = [v]
                    while path[-1] != u:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                q.append(w)
    return None


def naive_is_independent(g, s):
    return all(not g.has_edge(a, b) for a, b in itertools.combinations(s, 2))


def naive_successors(g, c, k):
    out = set()
    for u in c:
        for v in range(g.n):
            if v in c:
                continue
            d = naive_dist(g, u, v)
            if d is None or d > k:
                continue
            nxt = frozenset(c) - {u} | {v}
            if naive_is_independent(g, nxt):
                out.add(nxt)
    return out


def naive_decide(g, s, t, k):
    s, t = frozenset(s), frozenset(t)
    seen = {s}
    q = deque([s])
    while q:
        cur = q.popleft()
        if cur == t:
            return True
        for nxt in naive_successors(g, cur, k):
            if nxt not in seen:
                seen.add(nxt)
                q.append(nxt)
    return False


def naive_shortest_len(g, s, t, k):
    s, t = frozenset(s), frozenset(t)
    if s == t:
        return 0
    seen = {s: 0}
    q = deque([s])
    while q:
        cur = q.popleft()
        for nxt in naive_successors(g, cur, k):
            if nxt not in seen:
                seen[nxt] = seen[cur] + 1
                if nxt == t:
                    return seen[nxt]
                q.append(nxt)
    return None


def naive_reachable(g, s, k):
    s = frozenset(s)
    seen = {s}
    q = deque([s])
    while q:
        cur = q.popleft()
        for nxt in naive_successors(g, cur, k):
            if nxt not in seen:
                seen.add(nxt)
                q.append(nxt)
    return seen


def naive_diameter(g):
    """Largest pairwise naive_dist; None when some pair is disconnected."""
    best = 0
    for u, v in itertools.combinations(range(g.n), 2):
        d = naive_dist(g, u, v)
        if d is None:
            return None
        best = max(best, d)
    return best


def naive_lex_bfs(g):
    """Lexicographic BFS with explicit label lists, O(n^2): each vertex keeps
    the list of visit times (counted down from n) of its visited neighbours,
    and the next vertex has the largest list, smallest id first."""
    labels = {v: [] for v in range(g.n)}
    order = []
    remaining = set(range(g.n))
    for step in range(g.n):
        v = max(remaining, key=lambda x: (labels[x], -x))
        order.append(v)
        remaining.discard(v)
        for w in g.adj[v]:
            if w in remaining:
                labels[w].append(g.n - step)
    return order


def naive_is_peo(g, order):
    """Every vertex's neighbours later in the order are pairwise adjacent."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        if any(not g.has_edge(a, b) for a, b in itertools.combinations(later, 2)):
            return False
    return True


def naive_validate(g, start, moves, k):
    """Replay moves with naive_dist and naive_is_independent, giving
    (ok, failing step, reason) in the words of engine.validate_sequence."""
    cur = set(start)
    if not naive_is_independent(g, cur):
        return False, None, "start set is not independent"
    for i, (src, dst) in enumerate(moves):
        if src == dst:
            return False, i, f"null move at {src}"
        if src not in cur:
            return False, i, f"no token on {src}"
        if dst in cur:
            return False, i, f"vertex {dst} already occupied"
        d = naive_dist(g, src, dst)
        if d is None:
            return False, i, f"{src} cannot reach {dst}"
        if d > k:
            return False, i, f"distance {d} exceeds bound {k}"
        cur = cur - {src} | {dst}
        if not naive_is_independent(g, cur):
            return False, i, f"set not independent after moving {src} to {dst}"
    return True, None, None


def naive_search(g, k, max_states, smask, tmask=None, both=False, budget=None):
    """The oracle's search loop as it was before its hub cache and the
    bidirectional `shortest`, kept verbatim as the reference for both.

    The search loop: breadth-first from smask, one level at a time, until
    tmask is met, `budget` levels are spent or the component is exhausted.
    With both=True a second search grows from tmask as well and each level
    expands the smaller frontier; k-Jump moves are reversible, so the two
    meet on a shortest path. The cap counts the states of both sides.

    Returns (met, parents): the state where the search reached tmask (None
    if it did not) and the forward parent map, state -> previous state
    (None at smask), in discovery order."""
    fwd = {smask: None}
    if smask == tmask:
        return smask, fwd
    bwd = {} if tmask is None else {tmask: None}
    sides = [[fwd, [smask], bwd]]
    if both:
        sides.append([bwd, [tmask], fwd])
    succ = _successor_fn(g, k)
    held = len(fwd) + len(bwd)
    levels = 0
    while budget is None or levels < budget:
        side = min(sides, key=lambda sd: len(sd[1]))
        seen, frontier, other = side
        nxt_front = []
        for cur in frontier:
            for nxt in succ(cur):
                if nxt in seen:
                    continue
                if nxt in other:
                    seen[nxt] = cur
                    return nxt, fwd
                if held >= max_states:
                    raise ResourceExhausted(
                        max_states, held, levels, sum(len(sd[1]) for sd in sides)
                    )
                held += 1
                seen[nxt] = cur
                nxt_front.append(nxt)
        if not nxt_front:
            break
        side[1] = nxt_front
        levels += 1
    return None, fwd


def naive_shortest_moves(g, s, t, k):
    """The moves of `engine.shortest` as it was when one-directional: the
    path to t in naive_search's parent map, or None if unreachable."""
    smask, tmask = sum(1 << v for v in s), sum(1 << v for v in t)
    met, parents = naive_search(g, k, 10**7, smask, tmask)
    if met is None:
        return None
    moves = []
    cur = tmask
    while cur != smask:
        prev = parents[cur]
        moves.append(((prev & ~cur).bit_length() - 1, (cur & ~prev).bit_length() - 1))
        cur = prev
    return tuple(reversed(moves))


def naive_find_obstruction(g):
    """Locate an induced 2K2, C4 or C5 in a non-split graph: the pair-and-edge
    scan `graph._find_obstruction` replaced, kept verbatim as its reference."""
    edges = sorted(g.edges)
    # C4: two non-adjacent vertices with two non-adjacent common neighbors.
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            common = [w for w in g.adj[u] if v in set(g.adj[w])]
            for i in range(len(common)):
                for j in range(i + 1, len(common)):
                    a, b = common[i], common[j]
                    if not g.has_edge(a, b):
                        return ("C4", (u, a, v, b))
    # 2K2: two edges with no connecting edge.
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if len({a, b, c, d}) < 4:
                continue
            if not any(g.has_edge(x, y) for x in (a, b) for y in (c, d)):
                return ("2K2", (a, b, c, d))
    vs = naive_find_c5(g)
    return ("C5", vs) if vs else None


def naive_find_c5(g):
    """The first 5-subset in lexicographic order that induces a C5: the
    brute-force scan `graph._find_c5` replaced, kept verbatim as its
    reference."""
    from itertools import combinations

    for vs in combinations(range(g.n), 5):
        sub = [(x, y) for x, y in combinations(vs, 2) if g.has_edge(x, y)]
        if len(sub) != 5:
            continue
        if all(sum(1 for e in sub if v in e) == 2 for v in vs):
            return vs
    return None


def naive_chordal(g):
    """No induced cycle of length >= 4; brute force, fine up to n ~ 9."""
    for size in range(4, g.n + 1):
        for vs in itertools.combinations(range(g.n), size):
            induced = [
                (a, b) for a, b in itertools.combinations(vs, 2) if g.has_edge(a, b)
            ]
            if len(induced) != size:
                continue
            deg = {v: sum(1 for e in induced if v in e) for v in vs}
            if any(d != 2 for d in deg.values()):
                continue
            # connected 2-regular graph on `size` vertices = one cycle
            adj = {v: [w for e in induced for w in e if v in e and w != v] for v in vs}
            comp = {vs[0]}
            stack = [vs[0]]
            while stack:
                x = stack.pop()
                for w in adj[x]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            if len(comp) == size:
                return False
    return True


def brute_split_partitions(g):
    """All (clique, indep) bipartitions, by trying every subset as clique."""
    out = []
    for r in range(g.n + 1):
        for ks in itertools.combinations(range(g.n), r):
            kset = set(ks)
            iset = set(range(g.n)) - kset
            if all(g.has_edge(a, b) for a, b in itertools.combinations(ks, 2)) and \
                    naive_is_independent(g, iset):
                out.append((frozenset(kset), frozenset(iset)))
    return out


def independent_sets(g, max_size=None):
    """All independent sets (optionally up to a size cap), small n only."""
    cap = g.n if max_size is None else max_size
    out = []
    for r in range(cap + 1):
        for c in itertools.combinations(range(g.n), r):
            if naive_is_independent(g, c):
                out.append(frozenset(c))
    return out


# ---------------------------------------------------------------------------
# corpora

def to_nx(g):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def from_nx(G):
    nodes = sorted(G.nodes())
    remap = {v: i for i, v in enumerate(nodes)}
    return build_graph(len(nodes), [(remap[u], remap[v]) for u, v in G.edges()])


@lru_cache(maxsize=None)
def atlas_graphs(max_n=7, connected_only=False):
    """All non-isomorphic graphs with up to max_n <= 7 vertices (atlas)."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g():
        if G.number_of_nodes() == 0 or G.number_of_nodes() > max_n:
            continue
        if connected_only and not nx.is_connected(G):
            continue
        out.append(from_nx(G))
    return tuple(out)


@lru_cache(maxsize=None)
def split_graphs_upto(max_n):
    """All non-isomorphic split graphs with 1..max_n vertices.

    Generated as (clique size q, multiset of independent-vertex neighborhood
    masks), then deduplicated with a WL hash plus exact isomorphism checks
    inside hash buckets.
    """
    import networkx as nx

    buckets = {}
    out = []
    for n in range(1, max_n + 1):
        for q in range(n + 1):
            r = n - q
            for combo in itertools.combinations_with_replacement(range(2 ** q), r):
                edges = [(a, b) for a in range(q) for b in range(a + 1, q)]
                for i, mask in enumerate(combo):
                    for a in range(q):
                        if mask >> a & 1:
                            edges.append((a, q + i))
                g = build_graph(n, edges)
                G = to_nx(g)
                h = nx.weisfeiler_lehman_graph_hash(G)
                bucket = buckets.setdefault((n, h), [])
                if any(nx.is_isomorphic(G, H) for H in bucket):
                    continue
                bucket.append(G)
                out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def exhaustive_e3_formulas():
    """Exhaustive E3 formulas, n <= 4, m <= 3: three distinct variables per
    clause, distinct unordered clauses, every variable used somewhere (so the
    instance is connected). All such formulas are satisfiable: each clause
    excludes a 1/8 fraction of assignments and 3/8 < 1."""
    from kjump.reduction import CnfFormula

    formulas = []
    for n in (3, 4):
        universe = [
            tuple(zip(vars3, signs))
            for vars3 in itertools.combinations(range(n), 3)
            for signs in itertools.product((True, False), repeat=3)
        ]
        for m in (1, 2, 3):
            for combo in itertools.combinations(universe, m):
                used = {v for cl in combo for v, _ in cl}
                if len(used) == n:
                    formulas.append(CnfFormula(n, combo))
    assert len(formulas) == 92 + 384 + 4736
    return tuple(formulas)


def random_graphs(count, max_n, seed, connected=True):
    from kjump.generators import random_connected_graph

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_n)
        g = random_connected_graph(n, rng)
        out.append(g)
    return out
