"""Compile token-jump moves (distance up to the diameter) into k-Jump
sequences for k >= 3.

A single long jump u -> v is expanded along a shortest path u_0..u_l. With
w = u_{l-k+1}: if w is unoccupied and unblocked, move the token to w first
and finish with one jump; otherwise some token sits on w or a neighbor u' of
w, and that token jumps to v (within distance k) before the original token
continues into u'.

Each generated move is checked once, as `_emit` appends it, against one
running state mask, by the validator's own move check `_move_error`; the
input sequence is validated on entry, so the output is a valid k-Jump
sequence by induction. Whether a jump is long is the validator's pair test
dist(u, v) <= k too, so the compiler keeps nothing on the graph.
"""

from __future__ import annotations

from collections import deque

from .graph import GraphError, dist
from .engine import Move, MoveSequence, _move_error, _to_mask, validate_sequence


class SimulationError(RuntimeError):
    """A generated step failed online validation; indicates a bug, never a
    legitimate 'no' answer."""


def _step(g, cur, u, v, k, out):
    """Emit k-Jump moves transforming the state mask cur so the token on u
    ends up on v. Returns the resulting state mask. Token identities may swap
    when the blocked cases fire; only set equality of the outcome is
    promised.

    Iterative: the free case first brings the token to w and then jumps
    w -> v, so that final jump waits on a stack while the token travels; the
    blocked case hands the rest of the trip (u -> u') over to the loop.

    u stays fixed, so every iteration reads its shortest u-v path from one
    BFS parent tree rooted at u, grown only until the current v is
    discovered. A vertex x discovers the bits of adj[x] & unseen in
    ascending order and each vertex keeps its first discoverer, so a parent
    never depends on where the BFS stops, and the path is the one a fresh
    BFS from u to v would give; w is the (k-1)-th ancestor of v on it. A
    vertex the tree holds has its depth there as its distance from u, so
    only a v outside it takes the pair test dist(u, v) <= k."""
    adj = g.adj_mask
    parent = {u: u}
    depth = {u: 0}
    queue = deque([u])
    unseen = ((1 << g.n) - 1) ^ (1 << u)
    pending = []  # final jumps (w, v), the innermost last
    while depth[v] > k if v in depth else dist(g, u, v, k) is None:
        while v not in parent:
            x = queue.popleft()
            new = adj[x] & unseen
            if new:
                unseen ^= new
            dy = depth[x] + 1
            while new:
                low = new & -new
                y = low.bit_length() - 1
                parent[y] = x
                depth[y] = dy
                queue.append(y)
                new ^= low
        w = v
        for _ in range(k - 1):
            w = parent[w]
        occupied = cur >> w & 1
        near = adj[w] & cur
        if not occupied and not near:
            pending.append((w, v))
            v = w
            continue
        # Prefer the token on w itself, else the lowest-id occupied neighbor.
        uprime = w if occupied else (near & -near).bit_length() - 1
        cur = _emit(g, cur, uprime, v, k, out)
        v = uprime
    cur = _emit(g, cur, u, v, k, out)
    while pending:
        cur = _emit(g, cur, *pending.pop(), k, out)
    return cur


def _emit(g, cur, src, dst, k, out):
    """Append the move src -> dst after checking it against the state mask
    cur, which is independent; returns the state after the move."""
    reason = _move_error(g, cur, src, dst, k)
    if reason:
        raise SimulationError(f"illegal generated move: {reason}")
    out.append(Move(src, dst))
    return cur ^ (1 << src | 1 << dst)


def simulate_move(g, c, u, v, k):
    """Expand the single jump u -> v on configuration c into a valid k-Jump
    sequence with the same final set, for k >= 3: `simulate_sequence` on
    the one-move TJ sequence, at a bound n that no distance reaches."""
    return simulate_sequence(g, MoveSequence(frozenset(c), (Move(u, v),), g.n), k)


def simulate_sequence(g, seq, k):
    """Expand the moves of a TJ-valid sequence one after another, yielding a
    k-Jump sequence with identical start and end configurations. A single
    state mask steps through every expansion, which must end on the set the
    TJ move itself reaches."""
    if k < 3:
        raise GraphError("simulation requires k >= 3")
    report = validate_sequence(g, seq, seq.k)
    if not report:
        at = "" if report.step is None else f" at step {report.step}"
        raise GraphError(f"input sequence invalid{at}: {report.reason}")
    cur = _to_mask(seq.start)
    out = []
    for u, v in seq.moves:
        want = cur ^ 1 << u | 1 << v
        cur = _step(g, cur, u, v, k, out)
        if cur != want:
            raise SimulationError(f"expansion of {u} -> {v} ends on the wrong set")
    return MoveSequence(frozenset(seq.start), tuple(out), k)
