"""Seeded random instance generators used by the test corpus and the hidden
`gen` CLI subcommand."""

from __future__ import annotations

import math
import random
import re

from .graph import Graph, is_connected


def random_connected_graph(n, rng):
    """Erdos-Renyi with rejection until connected. The mean degree is 2.5 up
    to 32 vertices, the sizes the seeded test and benchmark corpora draw,
    and ln n + 1 above: mean degree 2.5 is below the ln n connectivity
    threshold there, so almost every draw has an isolated vertex and the
    rejection loop runs for minutes, where at ln n + 1 about two draws in
    three are connected."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = min(1.0, (2.5 if n <= 32 else math.log(n) + 1) / max(n - 1, 1))
    while True:
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        if is_connected(g):
            return g


def random_split_graph(n, rng, edge_p=0.5):
    """Random split graph: clique of size q, independent part of size n-q,
    each bipartite edge present with probability edge_p. The graph on no
    vertices is split; a negative n is an error."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = rng.randint(0, n)
    edges = [(u, v) for u in range(q) for v in range(u + 1, q)]
    for u in range(q):
        for v in range(q, n):
            if rng.random() < edge_p:
                edges.append((u, v))
    return Graph(n, edges)


def _clique_cover_size(g):
    """The number of cliques in a greedy clique cover, an upper bound on the
    independence number: each clique grows from the lowest uncovered vertex
    by the lowest uncovered vertex adjacent to all its members."""
    adj = g.adj_mask
    left = (1 << g.n) - 1
    cliques = 0
    while left:
        cand = left
        while cand:
            low = cand & -cand
            left ^= low
            cand &= adj[low.bit_length() - 1]
        cliques += 1
    return cliques


def _skip_shuffles(rng, n, tries):
    """Advance a `random.Random` exactly as `tries` calls of its `shuffle`
    on n < 256 items would, without shuffling. A shuffle draws
    randbelow(i) for i = n, ..., 2; each draw takes one 32-bit word per
    attempt and accepts it when word >> (32 - i.bit_length()) < i, a test
    that reads only the word's top byte while i < 256. A regex over the top
    bytes of a batch of words finds how many words the shuffles take (the
    batch doubles until it holds them all); the generator is then rewound
    and advanced by exactly that many."""
    limits = [i << 8 - i.bit_length() for i in range(n, 1, -1)]
    draws = b"".join(
        b"[\\x%02x-\\xff]*[\\x00-\\x%02x]" % (top, top - 1) for top in limits
    )
    shuffles = re.compile(b"(?:%s){%d}" % (draws, tries))
    state = rng.getstate()
    # a draw takes 256 / top words on average; start a quarter above that
    words = int(1.25 * tries * sum(256 / top for top in limits)) + 64
    while True:
        tops = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        rng.setstate(state)
        m = shuffles.match(tops)
        if m:
            break
        words *= 2
    rng.getrandbits(32 * m.end())


#: Failed tries after which `random_independent_set` computes the
#: independence number exactly, on graphs of at most `ALPHA_MAX_N` vertices
#: (criterion 3 draws at most 14), where the branch and bound is cheap.
ALPHA_AFTER = 20
ALPHA_MAX_N = 16


def _independence_number(g):
    """The size of a maximum independent set, by a mask branch and bound:
    the lowest candidate vertex is taken (dropping its neighbours) or left,
    and a branch whose set plus all its candidates cannot beat the best is
    cut."""
    adj = g.adj_mask
    best = 0
    stack = [((1 << g.n) - 1, 0)]
    while stack:
        cand, size = stack.pop()
        if size + cand.bit_count() <= best:
            continue
        if not cand:
            best = size
            continue
        low = cand & -cand
        stack.append((cand ^ low, size))
        stack.append((cand & ~(adj[low.bit_length() - 1] | low), size + 1))
    return best


def random_independent_set(g, size, rng, tries=2000):
    """A uniform-ish independent set of the requested size, or None: the
    greedy set of each of `tries` shuffles, until one reaches `size`.

    When size exceeds the independence number every try fails; the random
    stream still advances as if the shuffles had been tried, fast-forwarded
    for a plain `random.Random`. The test is a clique cover, an upper bound
    on the independence number, before the first try, and the exact number
    after `ALPHA_AFTER` failed tries on a small graph."""
    adj = g.adj_mask
    verts = list(range(g.n))
    hopeless = size > _clique_cover_size(g)
    for done in range(tries):
        if done == ALPHA_AFTER and not hopeless and g.n <= ALPHA_MAX_N:
            hopeless = size > _independence_number(g)
        if hopeless and type(rng) is random.Random and g.n < 256:
            _skip_shuffles(rng, g.n, tries - done)
            return None
        rng.shuffle(verts)
        if hopeless:
            continue
        chosen = []
        blocked = 0
        for v in verts:
            if not blocked >> v & 1:
                chosen.append(v)
                blocked |= adj[v] | 1 << v
            if len(chosen) == size:
                return frozenset(chosen)
    return None


def random_pair(g, rng, max_size=None):
    """Two same-size independent sets, sized randomly up to max_size."""
    cap = max_size if max_size is not None else g.n
    for _ in range(200):
        size = rng.randint(1, max(1, cap))
        s = random_independent_set(g, size, rng)
        t = random_independent_set(g, size, rng)
        if s is not None and t is not None:
            return s, t
    return frozenset(), frozenset()
