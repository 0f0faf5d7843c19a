"""Compile token-jump moves (distance up to the diameter) into k-Jump
sequences for k >= 3.

A single long jump u -> v is expanded along a shortest path u_0..u_l. With
w = u_{l-k+1}: if w is unoccupied and unblocked, move the token to w first
and finish with one jump; otherwise some token sits on w or a neighbor u' of
w, and that token jumps to v (within distance k) before the original token
continues into u'.

The shortest path is the one a queue BFS from u gives when each vertex
discovers its unseen neighbours in ascending order and keeps its first
discoverer, so a vertex's parent is the first queued of its neighbours one
level down. It is read off the BFS levels from u, held as masks (L_0 = {u},
L_{j+1} = N(L_j) & unseen), with no queue and no parent per vertex. For x at
depth d let X_d = {x} and X_j = N(X_{j+1}) & L_j. Each vertex of X_j has
its parent in X_{j-1}, and a vertex of X_j queues before another when its
parent does, or when they share a parent and its id is lower. So the first
queued vertex of X_j is the lowest one adjacent to the first queued vertex
of X_{j-1}, and its parent is that vertex: from X_0 = {u} up, the first
queued vertices of the X_j are x's ancestors. A one-vertex X_j holds the
ancestor at depth j, so it is read off as the descent meets it, and the
climb may start from any one-vertex set. Two vertices that share an
ancestor share every one below it, so a descent may stop at a one-vertex
set whose vertex is the ancestor already read at its depth.

Each generated move is checked once, as `_emit` appends it, against one
running state mask, by the validator's own move check `_move_error`; the
input sequence is validated on entry, so the output is a valid k-Jump
sequence by induction. Whether a jump is long is the validator's pair test
dist(u, v) <= k too, so the compiler keeps nothing on the graph.
"""

from __future__ import annotations

from .graph import GraphError, _neighbourhood, dist
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

    u stays fixed, so every iteration reads its path off one list of
    levels from u, grown until v is discovered; only a v outside them takes
    the pair test dist(u, v) <= k. v's ancestors are kept by depth, read
    once for the first v and again only from where a blocked case's u'
    leaves them (see `_ancestors`); w is the one k - 1 levels below v."""
    pending = []  # final jumps (w, v), the innermost last
    if dist(g, u, v, k) is None:
        adj = g.adj_mask
        levels = [1 << u]
        unseen = ((1 << g.n) - 1) ^ (1 << u)
        while unseen >> v & 1:
            new = _neighbourhood(adj, levels[-1]) & unseen
            unseen ^= new
            levels.append(new)
        d = len(levels) - 1  # the depth of v
        anc = [u] * (d + 1)  # v's ancestors by depth; u (level 0 only) where unread
        while d > k:
            _ancestors(adj, levels, anc, v, d)
            dw = d - k + 1
            w = anc[dw]
            occupied = cur >> w & 1
            near = adj[w] & cur
            if not occupied and not near:
                pending.append((w, v))
                v, d = w, dw
                continue
            # Prefer the token on w itself, else the lowest-id occupied neighbor.
            if occupied:
                uprime = w
            else:
                uprime = (near & -near).bit_length() - 1
                if levels[dw - 1] >> uprime & 1:
                    dw -= 1
                elif not levels[dw] >> uprime & 1:
                    dw += 1
            cur = _emit(g, cur, uprime, v, k, out)
            v, d = uprime, dw
    cur = _emit(g, cur, u, v, k, out)
    while pending:
        cur = _emit(g, cur, *pending.pop(), k, out)
    return cur


def _ancestors(adj, levels, anc, x, d):
    """Make anc[:d + 1] the BFS ancestors of x at depth d, by depth, where
    anc[:d + 1] holds those of another vertex at depth d, or u where unread.
    The candidate sets X_i (module docstring) are built down to a one-vertex
    set whose vertex anc holds at its depth, at the latest X_0 = {u}; the
    ancestors below it are shared. Each one-vertex set is recorded as it is
    met; each wider one is climbed back, its ancestor the lowest vertex
    adjacent to the one below."""
    wide = []  # (i, X_i) for the sets of more than one vertex
    cand = 1 << x
    while True:
        if cand & (cand - 1):
            wide.append((d, cand))
        else:
            y = cand.bit_length() - 1
            if anc[d] == y:
                break
            anc[d] = y
        d -= 1
        cand = _neighbourhood(adj, cand) & levels[d]
    for d, cand in reversed(wide):
        cand &= adj[anc[d - 1]]
        anc[d] = (cand & -cand).bit_length() - 1


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
