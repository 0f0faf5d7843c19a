"""Exact search oracle over independent-set configurations under the k-Jump
rule: adjacency, successor generation, reachability and shortest sequences by
breadth-first search over bitmask-encoded states, sequence validation, and a
matching-based lower bound on sequence length.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from typing import NamedTuple

from .graph import (
    GraphError,
    _bits,
    _neighbourhood,
    _to_mask,
    dist,
    is_independent,
    json_int,
    json_ints,
    json_object,
    json_pairs,
)

DEFAULT_STATE_CAP = 4_000_000


class ResourceExhausted(RuntimeError):
    """Visited-set cap hit; the query outcome is unknown, not 'no'. Says how
    far the search got: `states` held, BFS `depth` completed (both sides
    summed in a bidirectional search) and `frontier`, the states waiting to
    be expanded."""

    def __init__(self, cap, states, depth, frontier):
        super().__init__(
            f"visited-state cap of {cap} reached: {states} states,"
            f" depth {depth}, frontier {frontier}"
        )
        self.states = states
        self.depth = depth
        self.frontier = frontier


class Move(NamedTuple):
    src: int
    dst: int


@dataclass(frozen=True)
class MoveSequence:
    start: frozenset
    moves: tuple
    k: int

    def __len__(self):
        return len(self.moves)

    def final(self):
        cur = set(self.start)
        for m in self.moves:
            cur.discard(m.src)
            cur.add(m.dst)
        return frozenset(cur)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    step: int | None = None
    reason: str | None = None

    def __bool__(self):
        return self.ok


def _from_mask(m):
    return frozenset(_bits(m))


def _move(prev, nxt):
    """The move between two adjacent states: the bit that left, the bit that
    arrived."""
    return Move((prev & ~nxt).bit_length() - 1, (nxt & ~prev).bit_length() - 1)


def _check_config(g, c, name):
    if not is_independent(g, c):
        raise GraphError(f"{name} is not an independent set: {sorted(c)}")


def _check_k(k):
    if k < 1:
        raise GraphError(f"jump distance k must be at least 1, got {k}")


def k_adjacent(g, a, b, k):
    """Single-token relation: |a \\ b| = |b \\ a| = 1 and the pair is within
    distance k."""
    _check_config(g, a, "first configuration")
    _check_config(g, b, "second configuration")
    a, b = frozenset(a), frozenset(b)
    da, db = a - b, b - a
    if len(da) != 1 or len(db) != 1:
        return False
    (u,) = da
    (v,) = db
    return dist(g, u, v, k) is not None


def _ball(g, u, k):
    """Mask of the vertices v != u with dist(u, v) <= k, by a bitmask BFS cut
    off at depth k."""
    adj = g.adj_mask
    seen = front = 1 << u
    depth = 0
    while front and depth < k:
        front = _neighbourhood(adj, front) & ~seen
        seen |= front
        depth += 1
    return seen ^ (1 << u)


def _ball_table(g, k):
    """The graph's k-ball masks by vertex, None where not yet computed."""
    table = g._balls.get(k)
    if table is None:
        table = g._balls[k] = [None] * g.n
    return table


def _free_masks(adj, cur, toks):
    """(free, alone) for state cur with tokens toks: the vertices neither
    holding nor adjacent to a token, and the neighbours of exactly one
    token. A token on u may land on ball[u] & (free | adj[u] & alone), the
    vertices outside the closed neighbourhood of the other tokens."""
    once = twice = 0
    for u in toks:
        nb = adj[u]
        twice |= once & nb
        once |= nb
    return ~(cur | once), once & ~twice


def _successor_fn(g, k):
    """succ(cur) -> the next-state masks of state cur, in ascending (src, dst)
    order. Balls are computed on first use and kept on the graph, one table
    per k, so a search only pays for the vertices its tokens visit."""
    ball = _ball_table(g, k)
    adj = g.adj_mask

    def succ(cur):
        toks = _bits(cur)
        free, alone = _free_masks(adj, cur, toks)
        out = []
        for u in toks:
            b = ball[u]
            if b is None:
                b = ball[u] = _ball(g, u, k)
            dests = b & (free | adj[u] & alone)
            base = cur ^ (1 << u)
            while dests:
                low = dests & -dests
                out.append(base | low)
                dests ^= low
        return out

    return succ


def _succ_moves(g, cmask, k):
    """Deterministic (src, dst, next-mask) moves, ascending src then dst."""
    return [(*_move(cmask, nxt), nxt) for nxt in _successor_fn(g, k)(cmask)]


def successors(g, c, k):
    """All configurations one k-Jump move away from c."""
    _check_k(k)
    _check_config(g, c, "configuration")
    return {_from_mask(m) for m in _successor_fn(g, k)(_to_mask(c))}


class _Side:
    """One direction of a search: the parent map in discovery order, the
    BFS levels found so far (`levels[-1]` is the frontier), and the hub
    cache, hub -> mask of the completions already handled from it."""

    __slots__ = ("seen", "levels", "known")

    def __init__(self, root):
        self.seen = {root: None}
        self.levels = [[root]]
        self.known = {}


def _search(g, k, max_states, smask, tmask=None, budget=None, whole_level=False):
    """The search loop: breadth-first, one level at a time. Without tmask it
    explores the component of smask. With tmask a second side grows from
    tmask, each level expands the smaller frontier, and the search ends when
    the sides meet (k-Jump moves are reversible, so they meet on a shortest
    path), `budget` levels are spent or a side runs out. The cap counts the
    states of both sides.

    A move takes a token off u and puts it on a vertex of ball[u]; the
    tokens left behind form the move's hub y = cur - u, shared by every
    state y + v. Each side keeps, per hub, the completions v it has already
    handled, so expanding another state of the same hub skips them; the
    other states are still checked against `seen`. Skipped states are all
    seen states, so discovery order, parents and meeting points are those of
    a search without the cache.

    Returns (meets, fwd, bwd): the states where the sides met (the first one
    found, or with whole_level=True every meeting state of the level that
    found one), and the two sides (bwd None without tmask)."""
    fwd = _Side(smask)
    if tmask is None:
        bwd, sides = None, [(fwd, {})]
    else:
        bwd = _Side(tmask)
        if smask == tmask:
            return [smask], fwd, bwd
        sides = [(fwd, bwd.seen), (bwd, fwd.seen)]
    ball = _ball_table(g, k)
    adj = g.adj_mask
    held = len(sides)
    depth = 0
    meets = {}
    while budget is None or depth < budget:
        side, other = min(sides, key=lambda sd: len(sd[0].levels[-1]))
        seen, known = side.seen, side.known
        nxt_front = []
        for cur in side.levels[-1]:
            # _bits and _free_masks in one pass: this is the hot loop
            toks = []
            once = twice = 0
            m = cur
            while m:
                low = m & -m
                u = low.bit_length() - 1
                toks.append(u)
                nb = adj[u]
                twice |= once & nb
                once |= nb
                m ^= low
            free, alone = ~(cur | once), once & ~twice
            for u in toks:
                b = ball[u]
                if b is None:
                    b = ball[u] = _ball(g, u, k)
                dests = b & (free | adj[u] & alone)
                if not dests:
                    continue
                y = cur ^ (1 << u)
                done = known.get(y, 0)
                dests &= ~done
                if not dests:
                    continue
                known[y] = done | dests
                while dests:
                    low = dests & -dests
                    dests ^= low
                    nxt = y | low
                    if nxt in seen:
                        continue
                    if nxt in other:
                        if not whole_level:
                            return [nxt], fwd, bwd
                        meets[nxt] = None
                        continue
                    if held >= max_states:
                        raise ResourceExhausted(
                            max_states,
                            held,
                            depth,
                            sum(len(sd.levels[-1]) for sd, _ in sides),
                        )
                    held += 1
                    seen[nxt] = cur
                    nxt_front.append(nxt)
        if meets:
            return list(meets), fwd, bwd
        if not nxt_front:
            break
        side.levels.append(nxt_front)
        depth += 1
    return [], fwd, bwd


def _explore(g, s, k, max_states):
    """Full component exploration from s: parent map keyed by state bitmask,
    state -> previous state (None at s), in BFS discovery order."""
    return _search(g, k, max_states, _to_mask(s))[1].seen


class _Configs(Set):
    """Read-only set of the configurations of an n-vertex graph keyed by
    mask in `masks`. Length and membership read the masks; the frozensets
    are built only as the view is iterated, in the dict's order. `&`, `|`
    and `-` give frozensets."""

    __slots__ = ("_masks", "_n")

    def __init__(self, masks, n):
        self._masks = masks
        self._n = n

    def __len__(self):
        return len(self._masks)

    def __contains__(self, c):
        if not isinstance(c, (set, frozenset)):
            return False
        m = 0
        for v in c:
            if not isinstance(v, int) or not 0 <= v < self._n:
                return False
            m |= 1 << v
        return m in self._masks

    def __iter__(self):
        return map(_from_mask, self._masks)

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)


def reachable_configs(g, c, k, max_states=DEFAULT_STATE_CAP):
    """Every configuration reachable from c, c included, as a read-only set
    of frozensets in BFS discovery order."""
    _check_k(k)
    _check_config(g, c, "configuration")
    return _Configs(_explore(g, c, k, max_states), g.n)


def _check_pair(g, s, t, k):
    _check_k(k)
    _check_config(g, s, "start")
    _check_config(g, t, "target")
    if len(set(s)) != len(set(t)):
        raise GraphError(
            f"size mismatch: |start| = {len(set(s))}, |target| = {len(set(t))}"
        )


def decide(g, s, t, k, max_states=DEFAULT_STATE_CAP):
    """Reachability of t from s in the k-Jump transition graph."""
    _check_pair(g, s, t, k)
    meets, _, _ = _search(g, k, max_states, _to_mask(s), _to_mask(t))
    return bool(meets)


def shortest(g, s, t, k, max_states=DEFAULT_STATE_CAP):
    """A minimum-length valid sequence from s to t, or None if unreachable.

    The sequence is the one a one-directional BFS from s returns: moves are
    tried in ascending (src, dst) order and each state keeps the parent that
    discovered it first. It is found from both ends: see _cone_path."""
    _check_pair(g, s, t, k)
    s = frozenset(s)
    smask, tmask = _to_mask(s), _to_mask(t)
    if smask == tmask:
        return MoveSequence(s, (), k)
    meets, fwd, bwd = _search(g, k, max_states, smask, tmask, whole_level=True)
    if not meets:
        return None
    path = _cone_path(g, k, meets, fwd, bwd)
    return MoveSequence(s, tuple(map(_move, path, path[1:])), k)


def _cone_path(g, k, meets, fwd, bwd):
    """The states of the one-directional BFS path from s to t, given a
    bidirectional search that stopped at the end of the first level where
    the sides met, with `meets` all the meeting states of that level.

    With forward levels F_0..F_a and backward levels B_0..B_b complete and
    disjoint, the distance is d = a + b + 1, and the meeting states are the
    layer P_m of the cone P_i = {ds = i, dt = d - i}: m = a if the backward
    side found them in F_a, m = a + 1 if the forward side found them in B_b.
    P_{i-1} is the set of neighbours of P_i in F_{i-1}; for i > m, P_i is
    the set of neighbours of P_{i-1} in B_{d-i}. A neighbour at level i - 1
    of a cone state at level i is in the cone, so replaying the BFS from s
    on the cone alone gives each cone state the first discoverer it has in
    the full BFS, and the same path to t."""
    a, b = len(fwd.levels) - 1, len(bwd.levels) - 1
    d = a + b + 1
    m = a if meets[0] in fwd.seen else a + 1
    succ = _successor_fn(g, k)
    # allowed[i] holds P_i; for i > m, B_{d-i}, of which the replay only
    # reaches the neighbours of P_{i-1}
    allowed = [None] * (d + 1)
    allowed[m] = set(meets)
    for i in range(m - 1, 0, -1):
        level = set(fwd.levels[i])
        allowed[i] = {p for x in allowed[i + 1] for p in succ(x) if p in level}
    for i in range(m + 1, d + 1):
        allowed[i] = set(bwd.levels[d - i])
    smask = fwd.levels[0][0]
    parent = {smask: None}
    layer = [smask]
    for i in range(1, d + 1):
        nxt_layer = []
        for cur in layer:
            for nxt in succ(cur):
                if nxt in allowed[i] and nxt not in parent:
                    parent[nxt] = cur
                    nxt_layer.append(nxt)
        layer = nxt_layer
    path = [bwd.levels[0][0]]
    while path[-1] != smask:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def exists_within(g, s, t, k, budget, max_states=DEFAULT_STATE_CAP):
    """True iff a valid sequence of at most `budget` moves exists."""
    _check_pair(g, s, t, k)
    if budget < 0:
        raise GraphError("move budget must be nonnegative")
    meets, _, _ = _search(g, k, max_states, _to_mask(s), _to_mask(t), budget=budget)
    return bool(meets)


def _move_error(g, cur, src, dst, k):
    """Why the k-Jump move src -> dst from the independent state mask cur is
    illegal, or None: src must hold a token, dst be free, the pair test
    dist(src, dst) <= k pass (which caches nothing; only a failing move runs
    the full `dist`, to name the distance), and N(dst) miss the tokens other
    than src. GraphError names a dst out of range."""
    if src == dst:
        return f"null move at {src}"
    if src < 0 or not cur >> src & 1:
        return f"no token on {src}"
    if dst >= 0 and cur >> dst & 1:
        return f"vertex {dst} already occupied"
    # raises GraphError for dst out of range
    if dist(g, src, dst, k) is None:
        d = dist(g, src, dst)
        if d is None:
            return f"{src} cannot reach {dst}"
        return f"distance {d} exceeds bound {k}"
    if g.adj_mask[dst] & cur & ~(1 << src):
        return f"set not independent after moving {src} to {dst}"
    return None


def validate_sequence(g, seq, k=None):
    """Replay a move sequence, checking each move with `_move_error`.
    Rejection is a value, not an exception."""
    if k is None:
        k = seq.k
    if not is_independent(g, seq.start):
        return ValidationReport(False, None, "start set is not independent")
    cur = _to_mask(seq.start)
    for i, (src, dst) in enumerate(seq.moves):
        reason = _move_error(g, cur, src, dst, k)
        if reason:
            return ValidationReport(False, i, reason)
        cur ^= 1 << src | 1 << dst
    return ValidationReport(True)


_UNREACHABLE = 10**9


def lower_bound_moves(g, s, t, k):
    """Minimum-cost perfect matching between start and target vertices with
    per-pair cost ceil(dist / k); a valid lower bound on sequence length since
    every token must end on some target vertex. Returns None when some token
    cannot reach any target in every matching (unbounded marker)."""
    _check_pair(g, s, t, k)
    svs, tvs = sorted(set(s)), sorted(set(t))
    r = len(svs)
    if r == 0:
        return 0
    # cost rows by bitmask BFS from each start vertex: a level is the OR of
    # the adjacency masks of the one before, and a row stops growing once
    # every target is hit or the component is exhausted
    adj = g.adj_mask
    col = {v: j for j, v in enumerate(tvs)}
    tmask = _to_mask(tvs)
    table = []
    for u in svs:
        row = [_UNREACHABLE] * r
        seen = front = 1 << u
        left = tmask
        d = 0
        while front:
            hit = front & left
            if hit:
                c = -(-d // k)
                for v in _bits(hit):
                    row[col[v]] = c
                left ^= hit
                if not left:
                    break
            front = _neighbourhood(adj, front) & ~seen
            seen |= front
            d += 1
        table.append(row)
    total = _min_cost_matching(table)
    if total >= _UNREACHABLE:
        return None
    return total


def _min_cost_matching(cost):
    """Total cost of a minimum-cost perfect matching of the square integer
    matrix cost (a list of rows), by shortest augmenting paths with dual
    potentials u (rows) and v (columns), kept feasible (cost[i][j] >= u[i] +
    v[j]) with equality on every matched pair.

    Warm start: u holds the row minima and v the column minima of the
    reduced costs, and a greedy pass matches tight entries (reduced cost 0)
    first. Only the rows it leaves free are augmented, each by one Dijkstra
    search over reduced costs, O(r^2): none on the reduction's instances,
    about a quarter of them on random costs, where the warm start halves
    the time of a cold one (0.12 against 0.21 s at r = 300).
    """
    r = len(cost)
    u = [min(row) for row in cost]
    v = [min(cost[i][j] - u[i] for i in range(r)) for j in range(r)]
    col4row = [-1] * r
    row4col = [-1] * r
    for i, row in enumerate(cost):
        ui = u[i]
        for j in range(r):
            if row4col[j] < 0 and row[j] - ui == v[j]:
                row4col[j], col4row[i] = i, j
                break
    for free in range(r):
        if col4row[free] >= 0:
            continue
        # Dijkstra from row `free`: cost_to[j] is the shortest reduced-cost
        # alternating path to column j, path[j] the row it arrives from
        cost_to = [float("inf")] * r
        path = [-1] * r
        todo = list(range(r))
        tree_cols = []
        tree_rows = []
        i, low = free, 0
        while True:
            row = cost[i]
            base = low - u[i]
            low = best_at = -1
            for at, j in enumerate(todo):
                d = base + row[j] - v[j]
                if d < cost_to[j]:
                    cost_to[j], path[j] = d, i
                else:
                    d = cost_to[j]
                # on ties prefer a free column: the search ends there
                if best_at < 0 or d < low or d == low and row4col[j] < 0:
                    low, best_at = d, at
            j = todo[best_at]
            todo[best_at] = todo[-1]
            todo.pop()
            tree_cols.append(j)
            i = row4col[j]
            if i < 0:
                break
            tree_rows.append(i)
        u[free] += low
        for i in tree_rows:
            u[i] += low - cost_to[col4row[i]]
        for j in tree_cols:
            v[j] -= low - cost_to[j]
        while True:  # flip the matching along the path back to `free`
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == free:
                break
    return sum(row[j] for row, j in zip(cost, col4row))


def sequence_to_json(seq):
    return {
        "start": sorted(seq.start),
        "moves": [[m.src, m.dst] for m in seq.moves],
        "k": seq.k,
    }


def sequence_from_json(data):
    json_object(data, "sequence")
    return MoveSequence(
        frozenset(json_ints(data["start"], "start")),
        tuple(Move(a, b) for a, b in json_pairs(data["moves"], "moves")),
        json_int(data["k"], "k"),
    )
