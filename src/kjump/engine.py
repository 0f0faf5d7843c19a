"""Exact search oracle over independent-set configurations under the k-Jump
rule: adjacency, successor generation, reachability and shortest sequences by
breadth-first search over bitmask-encoded states, sequence validation, and a
matching-based lower bound on sequence length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graph import (
    GraphError,
    _dist_row,
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
    d = dist(g, u, v)
    return d is not None and d <= k


def _ball(g, u, k):
    """Mask of the vertices v != u with dist(u, v) <= k, by a bitmask BFS cut
    off at depth k."""
    adj = g.adj_mask
    seen = front = 1 << u
    depth = 0
    while front and depth < k:
        nb = 0
        while front:
            low = front & -front
            nb |= adj[low.bit_length() - 1]
            front ^= low
        front = nb & ~seen
        seen |= front
        depth += 1
    return seen ^ (1 << u)


def _ball_table(g, k):
    """The graph's k-ball masks by vertex, None where not yet computed."""
    table = g._balls.get(k)
    if table is None:
        table = g._balls[k] = [None] * g.n
    return table


def _cached_ball(g, u, k):
    """_ball(g, u, k), computed on first use and kept on the graph."""
    table = _ball_table(g, k)
    b = table[u]
    if b is None:
        b = table[u] = _ball(g, u, k)
    return b


def _successor_fn(g, k):
    """succ(cur) -> the next-state masks of state cur, in ascending (src, dst)
    order. A token on u may land on any vertex of ball[u] outside the closed
    neighbourhood of the other tokens. Balls are computed on first use and
    kept on the graph, one table per k, so a search only pays for the
    vertices its tokens visit."""
    ball = _ball_table(g, k)
    adj = g.adj_mask

    def succ(cur):
        toks = _bits(cur)
        after = []  # after.pop() gives the neighbours of the tokens above u
        nb = 0
        for u in reversed(toks):
            after.append(nb)
            nb |= adj[u]
        before = 0  # neighbours of the tokens below u
        out = []
        for u in toks:
            b = ball[u]
            if b is None:
                b = _cached_ball(g, u, k)
            dests = b & ~(cur | before | after.pop())
            before |= adj[u]
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


def _search(g, k, max_states, smask, tmask=None, both=False, budget=None):
    """The search loop: breadth-first from smask, one level at a time, until
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


def _explore(g, s, k, max_states):
    """Full component exploration from s: parent map keyed by state bitmask,
    state -> previous state (None at s), in BFS discovery order."""
    return _search(g, k, max_states, _to_mask(s))[1]


def reachable_configs(g, c, k, max_states=DEFAULT_STATE_CAP):
    """Every configuration reachable from c, c included."""
    _check_k(k)
    _check_config(g, c, "configuration")
    return {_from_mask(m) for m in _explore(g, c, k, max_states)}


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
    met, _ = _search(g, k, max_states, _to_mask(s), _to_mask(t), both=True)
    return met is not None


def shortest(g, s, t, k, max_states=DEFAULT_STATE_CAP):
    """A minimum-length valid sequence from s to t, or None if unreachable.
    One-directional, so ties break towards the lowest (src, dst) move first."""
    _check_pair(g, s, t, k)
    s = frozenset(s)
    smask, tmask = _to_mask(s), _to_mask(t)
    met, parents = _search(g, k, max_states, smask, tmask)
    if met is None:
        return None
    moves = []
    cur = tmask
    while cur != smask:
        prev = parents[cur]
        moves.append(_move(prev, cur))
        cur = prev
    moves.reverse()
    return MoveSequence(s, tuple(moves), k)


def exists_within(g, s, t, k, budget, max_states=DEFAULT_STATE_CAP):
    """True iff a valid sequence of at most `budget` moves exists."""
    _check_pair(g, s, t, k)
    if budget < 0:
        raise GraphError("move budget must be nonnegative")
    met, _ = _search(
        g, k, max_states, _to_mask(s), _to_mask(t), both=True, budget=budget
    )
    return met is not None


def validate_sequence(g, seq, k=None):
    """Replay a move sequence, checking occupancy, distance and independence
    at every step. Rejection is a value, not an exception.

    A move passes the distance check when dst lies in src's k-ball; only a
    failing move pays for `dist`, to name the distance. The set before a
    move is independent, so the set after it is independent exactly when
    N(dst) misses the tokens other than src."""
    if k is None:
        k = seq.k
    if not is_independent(g, seq.start):
        return ValidationReport(False, None, "start set is not independent")
    adj = g.adj_mask
    cur = _to_mask(seq.start)
    for i, (src, dst) in enumerate(seq.moves):
        if src == dst:
            return ValidationReport(False, i, f"null move at {src}")
        if src < 0 or not cur >> src & 1:
            return ValidationReport(False, i, f"no token on {src}")
        if dst >= 0 and cur >> dst & 1:
            return ValidationReport(False, i, f"vertex {dst} already occupied")
        if dst < 0 or not _cached_ball(g, src, k) >> dst & 1:
            d = dist(g, src, dst)  # raises GraphError for dst out of range
            if d is None:
                return ValidationReport(False, i, f"{src} cannot reach {dst}")
            return ValidationReport(False, i, f"distance {d} exceeds bound {k}")
        cur ^= 1 << src
        if adj[dst] & cur:
            return ValidationReport(
                False, i, f"set not independent after moving {src} to {dst}"
            )
        cur |= 1 << dst
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
    cost = np.empty((r, r), dtype=np.int64)
    for i, u in enumerate(svs):
        row = _dist_row(g, u)
        for j, v in enumerate(tvs):
            d = row[v]
            cost[i, j] = _UNREACHABLE if d is None else -(-d // k)
    rows, cols = linear_sum_assignment(cost)
    total = int(cost[rows, cols].sum())
    if total >= _UNREACHABLE:
        return None
    return total


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
