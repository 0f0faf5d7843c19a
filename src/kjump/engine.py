"""Exact search oracle over independent-set configurations under the k-Jump
rule: adjacency, successor generation, reachability and shortest sequences by
breadth-first search over bitmask-encoded states, sequence validation, and a
matching-based lower bound on sequence length.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Set
from dataclasses import dataclass
from typing import NamedTuple

from .graph import (
    GraphError,
    _bits,
    _reach,
    _to_mask,
    ball_levels,
    dist,
    graph_from_json,
    graph_to_json,
    is_independent,
    json_int,
    json_object,
    json_pairs,
    json_vertex_set,
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
    _check_k(k)
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
    return _reach(g.adj_mask, 1 << u, k) ^ (1 << u)


def _ball_table(g, k):
    """The graph's k-ball masks by vertex, None where not yet computed."""
    table = g._balls.get(k)
    if table is None:
        table = g._balls[k] = [None] * g.n
    return table


def successors(g, c, k):
    """All configurations one k-Jump move away from c: the states one level
    of the search from c discovers."""
    _check_k(k)
    _check_config(g, c, "configuration")
    cmask = _to_mask(c)
    seen = _search(g, k, sys.maxsize, cmask, budget=1)[1].seen
    return {_from_mask(m) for m in seen if m != cmask}


class _Side:
    """One direction of a search: the parent map in discovery order, the
    BFS levels found so far (`levels[-1]` is the frontier), and the hub
    cache, hub -> mask of the completions still open from it."""

    __slots__ = ("seen", "levels", "known")

    def __init__(self, roots):
        self.seen = dict.fromkeys(roots)
        self.levels = [list(roots)]
        self.known = {}


def _search(g, k, max_states, smask, tmask=None, budget=None):
    """The search from smask, and with tmask from both ends: see _run.
    Returns (meet, fwd, bwd), the two sides (bwd None without tmask)."""
    fwd = _Side([smask])
    if tmask is None:
        return _run(g, k, max_states, [(fwd, {})], budget), fwd, None
    bwd = _Side([tmask])
    if smask == tmask:
        return (smask, None), fwd, bwd
    sides = [(fwd, bwd.seen), (bwd, fwd.seen)]
    return _run(g, k, max_states, sides, budget), fwd, bwd


def _run(g, k, max_states, sides, budget=None):
    """The search loop: breadth-first, one level at a time. `sides` holds
    (side, other) pairs, other the states whose discovery is a meeting. One
    side with other empty explores the component of its roots. With two
    sides, grown from s and from t, each level expands the smaller frontier,
    and the search ends when the sides meet (k-Jump moves are reversible, so
    they meet on a shortest path), `budget` levels are spent or a side runs
    out. The cap counts the states of all sides.

    A move takes a token off u and puts it on a vertex v of ball[u] outside
    the closed neighbourhood of the other tokens, tried in ascending (u, v)
    order. The tokens left behind form the move's hub y = cur - u, shared
    by every state y + v, v in A(y), the vertices outside y and N(y). Each
    side keeps, per hub, the completions still open: A(y) less the vertex u
    of the state that stored it and the completions already handled. A
    hub is stored once some move leaves from it. So a state reads each of
    its hubs from the cache, and only a state with a new hub runs the
    neighbourhood pass that gives A(y) - {u} = free | adj[u] & alone. The
    open completions are still checked against `seen`. Every state the
    cache skips is a seen state, so discovery order, parents and the
    meeting point are those of a search without the cache.

    Returns the first meet, (state, its discoverer on the side that found
    it), or None."""
    ball = _ball_table(g, k)
    adj = g.adj_mask
    held = sum(len(sd.seen) for sd, _ in sides)
    depth = 0
    while budget is None or depth < budget:
        side, other = min(sides, key=lambda sd: len(sd[0].levels[-1]))
        seen, known = side.seen, side.known
        nxt_front = []
        for cur in side.levels[-1]:
            free = None
            m = cur
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                y = cur ^ low
                rest = known.get(y)
                if rest is None:
                    if free is None:
                        # the vertices neither holding nor next to a token
                        # (free) and the neighbours of exactly one (alone),
                        # in one pass, only for a state with a new hub
                        once = twice = 0
                        t = cur
                        while t:
                            nb = adj[(t & -t).bit_length() - 1]
                            twice |= once & nb
                            once |= nb
                            t &= t - 1
                        free, alone = ~(cur | once), once & ~twice
                    rest = free | adj[u] & alone
                b = ball[u]
                if b is None:
                    b = ball[u] = _ball(g, u, k)
                dests = b & rest
                if not dests:
                    continue
                known[y] = rest ^ dests
                while dests:
                    low = dests & -dests
                    dests ^= low
                    nxt = y | low
                    if nxt in seen:
                        continue
                    if nxt in other:
                        return nxt, cur
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
        if not nxt_front:
            break
        side.levels.append(nxt_front)
        depth += 1
    return None


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
    return _Configs(_search(g, k, max_states, _to_mask(c))[1].seen, g.n)


def _check_pair(g, s, t, k):
    """s and t as frozensets, checked as the start and target of a query at
    k: independent sets of one size. frozenset() of a frozenset is the same
    object, so a caller's frozensets are not copied."""
    _check_k(k)
    s, t = frozenset(s), frozenset(t)
    _check_config(g, s, "start")
    _check_config(g, t, "target")
    if len(s) != len(t):
        raise GraphError(f"size mismatch: |start| = {len(s)}, |target| = {len(t)}")
    return s, t


def decide(g, s, t, k, max_states=DEFAULT_STATE_CAP):
    """Reachability of t from s in the k-Jump transition graph."""
    s, t = _check_pair(g, s, t, k)
    meet, _, _ = _search(g, k, max_states, _to_mask(s), _to_mask(t))
    return meet is not None


def shortest(g, s, t, k, max_states=DEFAULT_STATE_CAP):
    """A minimum-length valid sequence from s to t, or None if unreachable.

    The sequence is the one a one-directional BFS from s returns: moves are
    tried in ascending (src, dst) order and each state keeps the parent that
    discovered it first. `decide`'s search gives its forward half, and one
    level of the loop per backward level the rest: see _cone_path."""
    s, t = _check_pair(g, s, t, k)
    meet, fwd, bwd = _search(g, k, max_states, _to_mask(s), _to_mask(t))
    if meet is None:
        return None
    path = _cone_path(g, k, meet, fwd, bwd)
    return MoveSequence(s, tuple(map(_move, path, path[1:])), k)


def _cone_path(g, k, meet, fwd, bwd):
    """The states of the one-directional BFS path from s to t, given the
    first meet (state, discoverer) of a bidirectional search.

    With forward levels F_0..F_a and backward levels B_0..B_b complete and
    disjoint, the distance is d = a + b + 1, and a shortest path runs
    through the cone P_i = {ds = i, dt = d - i}, with P_a the states of F_a
    that have a successor in B_b. F_0..F_a are the one-directional BFS's
    levels, found in the same order, so `fwd.seen` holds the path up to
    F_a. A neighbour at level i - 1 of a cone state at level i is in the
    cone, and each cone state but t has a neighbour in the next layer, so
    the first state of P_{i-1} in discovery order discovers the first of
    P_i: the path is the chain of the layers' first states, and P_{i+1}'s
    first is the first successor, in move order, of P_i's first that lies
    in B_{d-i-1}.

    The forward side meets in B_b while it expands F_a in order, so the
    meet and its discoverer are already P_{a+1}'s first and P_a's first.
    The backward side meets in F_a at some state of P_a, not always the
    first: one level of `_run` from the roots F_a, with B_b as the other
    side, gives the same pair as the forward side would have. Each later
    step is one level of `_run` from the last state found, with the next
    backward level as the other side, up to its first meet. The steps run
    uncapped, since the search that found the cone kept to max_states; the
    cap is an int, which the loop compares faster than float("inf")."""
    if meet[0] not in bwd.seen:  # found by the backward side, in F_a
        roots = _Side(fwd.levels[-1])
        meet = _run(g, k, sys.maxsize, [(roots, set(bwd.levels[-1]))], 1)
    x, prev = meet
    parent = {x: prev}
    for level in bwd.levels[-2::-1]:  # B_{b-1}..B_0
        x, prev = _run(g, k, sys.maxsize, [(_Side([x]), set(level))], 1)
        parent[x] = prev
    path = []
    while x is not None:
        path.append(x)
        x = parent[x] if x in parent else fwd.seen[x]
    path.reverse()
    return path


def exists_within(g, s, t, k, budget, max_states=DEFAULT_STATE_CAP):
    """True iff a valid sequence of at most `budget` moves exists."""
    s, t = _check_pair(g, s, t, k)
    if budget < 0:
        raise GraphError("move budget must be nonnegative")
    meet, _, _ = _search(g, k, max_states, _to_mask(s), _to_mask(t), budget=budget)
    return meet is not None


def _move_error(g, cur, src, dst, k):
    """Why the k-Jump move src -> dst from the independent state mask cur is
    illegal, or None: src must hold a token, dst be free, the pair test
    dist(src, dst) <= k pass, and N(dst) miss the tokens other than src.
    One `dist` call, which caches nothing, tests the pair and names the
    distance of a failing move: its search stops where its two sides meet,
    so a move within k costs what a test limited to k does. GraphError
    names a dst out of range."""
    if src == dst:
        return f"null move at {src}"
    if src < 0 or not cur >> src & 1:
        return f"no token on {src}"
    if dst >= 0 and cur >> dst & 1:
        return f"vertex {dst} already occupied"
    d = dist(g, src, dst)  # raises GraphError for dst out of range
    if d is None:
        return f"{src} cannot reach {dst}"
    if d > k:
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
    cannot reach any target in every matching (unbounded marker). The bound
    of `diameter_and_bound`."""
    return diameter_and_bound(g, s, t, k)[1]


def diameter_and_bound(g, s, t, k):
    """The diameter of g (None when g is empty or disconnected) and
    `lower_bound_moves(g, s, t, k)`, from one run of `ball_levels`.

    Entry (i, j) of the cost table is ceil(d / k) for the first level d
    whose ball of the i-th start vertex holds the j-th target vertex (both
    ascending), and _UNREACHABLE when no level's does."""
    s, t = _check_pair(g, s, t, k)
    starts, tvs = sorted(s), sorted(t)
    col = {v: j for j, v in enumerate(tvs)}
    left = [_to_mask(tvs)] * len(starts)  # the targets row i has not met
    # int32 rows, half the size of lists of ints: every cost is at most n or
    # _UNREACHABLE = 10**9 < 2**31
    rows = [array("i", [_UNREACHABLE]) * len(tvs) for _ in starts]
    d = balls = None
    for d, balls in enumerate(ball_levels(g)):
        cost = -(-d // k)
        for i, u in enumerate(starts):
            hit = balls[u] & left[i]
            if hit:
                left[i] ^= hit
                row = rows[i]
                for v in _bits(hit):
                    row[col[v]] = cost
    if balls is None or balls[0] != (1 << g.n) - 1:
        d = None
    total = _min_cost_matching(rows)
    return d, None if total >= _UNREACHABLE else total


def _min_cost_matching(cost):
    """Total cost of a minimum-cost perfect matching of the square integer
    matrix cost (a sequence of rows), by shortest augmenting paths with dual
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


def instance_to_json(g, s, t, k):
    """The instance document that instance_from_json reads."""
    return {"graph": graph_to_json(g), "start": sorted(s), "target": sorted(t), "k": k}


def instance_from_json(data, what="instance", extra=()):
    """(graph, start, target, k) of the JSON object data, the document
    `what`, which must hold those keys and the keys in extra."""
    json_object(data, what, ("graph", "start", "target", "k", *extra))
    return (
        graph_from_json(data["graph"]),
        json_vertex_set(data["start"], "start"),
        json_vertex_set(data["target"], "target"),
        json_int(data["k"], "k"),
    )


def sequence_from_json(data):
    json_object(data, "sequence", ("start", "moves", "k"))
    return MoveSequence(
        json_vertex_set(data["start"], "start"),
        tuple(Move(a, b) for a, b in json_pairs(data["moves"], "moves")),
        json_int(data["k"], "k"),
    )
