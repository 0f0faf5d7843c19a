import random
import time

import pytest

from kjump import engine, simulate
from kjump.engine import Move, MoveSequence, _ball, _to_mask, validate_sequence
from kjump.generators import random_independent_set
from kjump.graph import GraphError, build_graph, diameter, dist, is_independent
from kjump.reduction import build_instance
from kjump.simulate import SimulationError, _emit, simulate_move, simulate_sequence

from conftest import (
    exhaustive_e3_formulas,
    independent_sets,
    naive_shortest_path,
    path_graph,
    random_graphs,
    star_graph,
)


# ---------------------------------------------------------------------------
# simulate_move

def test_short_jump_is_single_move():
    g = path_graph(5)
    out = simulate_move(g, {0}, 0, 3, 3)
    assert out.moves == (Move(0, 3),)


def test_long_jump_on_path():
    g = path_graph(7)
    out = simulate_move(g, {0}, 0, 6, 3)
    # deterministic recursion: hop to the interior waypoints first
    assert out.moves == (Move(0, 2), Move(2, 4), Move(4, 6))
    assert validate_sequence(g, out, 3)
    assert out.final() == frozenset({6})
    assert len(out) <= 2 * dist(g, 0, 6)


def test_long_jump_blocked_case_swaps_tokens():
    # The waypoint carries a token; that token takes the long jump's target
    # and the original token chases into its slot.
    g = path_graph(7)
    out = simulate_move(g, {0, 4}, 0, 6, 3)
    assert out.moves == (Move(4, 6), Move(0, 2), Move(2, 4))
    assert validate_sequence(g, out, 3)
    assert out.final() == frozenset({4, 6})


def test_blocked_neighbor_case():
    # Waypoint 5 is free but its neighbor 4 is occupied: the neighbor's token
    # takes the target and the original token chases into its slot.
    g = path_graph(8)
    out = simulate_move(g, {0, 4}, 0, 7, 3)
    assert out.moves == (Move(4, 7), Move(0, 2), Move(2, 4))
    assert validate_sequence(g, out, 3)
    assert out.final() == frozenset({4, 7})


def test_preconditions():
    g = path_graph(5)
    with pytest.raises(GraphError, match="k >= 3"):
        simulate_move(g, {0}, 0, 4, 2)
    with pytest.raises(GraphError, match="no token"):
        simulate_move(g, {1}, 0, 4, 3)
    with pytest.raises(GraphError, match="occupied"):
        simulate_move(g, {0, 4}, 0, 4, 3)
    with pytest.raises(GraphError, match="not independent"):
        simulate_move(g, {0, 4}, 0, 3, 3)
    with pytest.raises(GraphError, match="independent"):
        simulate_move(g, {0, 1}, 0, 3, 3)
    with pytest.raises(GraphError, match="reach"):
        simulate_move(build_graph(3, [(0, 1)]), {0}, 0, 2, 3)


def test_emit_rejects_each_illegal_move():
    # _emit is the one check of a generated move: src holds a token, dst is
    # free and within distance k of src, and the set stays independent.
    g = path_graph(8)
    cur = _to_mask({0, 4})
    for src, dst, error, why in [
        (1, 3, SimulationError, "illegal"),  # no token on 1
        (0, 4, SimulationError, "illegal"),  # 4 already occupied
        (0, 0, SimulationError, "illegal"),  # null move
        (0, 7, SimulationError, "illegal"),  # distance 7 > 3
        (0, 9, GraphError, "out of range"),  # not a vertex
        (0, 3, SimulationError, "not independent"),  # 3 is adjacent to 4
    ]:
        out = []
        with pytest.raises(error, match=why):
            _emit(g, cur, src, dst, 3, out)
        assert out == []
    out = []
    assert _emit(g, cur, 0, 2, 3, out) == _to_mask({2, 4})
    assert out == [Move(0, 2)]


def test_compiler_leaves_no_balls_on_the_graph():
    # the compiler tests distances by pair test, so it keeps no k-balls on
    # the graph; only the search does
    g = path_graph(12)
    assert len(simulate_move(g, {0, 5}, 0, 11, 3)) > 1
    seq = MoveSequence(frozenset({0, 11}), (Move(0, 9), Move(11, 2)), 11)
    assert len(simulate_sequence(g, seq, 3)) > 2
    assert g._balls == {}
    engine.decide(g, {0}, {11}, 3)
    assert g._balls


def test_wrong_step_state_is_caught(monkeypatch):
    # simulate_sequence compares the state mask after each expansion with
    # the set the TJ move reaches, so a _step that ends on another set
    # cannot go unseen.
    g = path_graph(8)
    step = simulate._step

    def shifted(g, cur, u, v, k, out):
        return step(g, cur, u, v, k, out) ^ 0b11

    monkeypatch.setattr(simulate, "_step", shifted)
    with pytest.raises(SimulationError, match="wrong set"):
        simulate_move(g, {0}, 0, 6, 3)
    seq = MoveSequence(frozenset({0, 7}), (Move(0, 4),), 4)
    with pytest.raises(SimulationError, match="wrong set"):
        simulate_sequence(g, seq, 3)


def _reference_moves(g, c, u, v, k):
    """simulate_move's moves as the loop of `_step` made them when it ran a
    fresh shortest-path BFS from u on every iteration."""
    out = []
    cur = _to_mask(c)
    adj = g.adj_mask
    pending = []
    ball = _ball(g, u, k)
    while not ball >> v & 1:
        path = naive_shortest_path(g, u, v)
        w = path[len(path) - k]
        occupied = cur >> w & 1
        near = adj[w] & cur
        if not occupied and not near:
            pending.append((w, v))
            v = w
            continue
        uprime = w if occupied else (near & -near).bit_length() - 1
        cur = _emit(g, cur, uprime, v, k, out)
        v = uprime
    cur = _emit(g, cur, u, v, k, out)
    while pending:
        cur = _emit(g, cur, *pending.pop(), k, out)
    return tuple(out)


def _long_jumps(g, rng, count, k):
    """Up to `count` seeded (c, u, v): c independent with 1-6 tokens, u in c,
    v free at distance above k with c - {u} | {v} independent."""
    jumps = []
    for _ in range(count * 4):
        c = random_independent_set(g, rng.randint(1, 6), rng, tries=5)
        if c is None:
            continue
        u = rng.choice(sorted(c))
        row = {u: 0}  # BFS distances from u
        order = [u]
        for w in order:
            for x in g.adj[w]:
                if x not in row:
                    row[x] = row[w] + 1
                    order.append(x)
        far = [
            v for v in range(g.n)
            if v not in c and row.get(v, 0) > k
            and is_independent(g, c - {u} | {v})
        ]
        if far:
            jumps.append((c, u, rng.choice(far)))
        if len(jumps) == count:
            break
    return jumps


def test_step_parent_tree_matches_per_iteration_paths():
    # long paths, where each jump takes many iterations and tokens in the
    # way fire the blocked cases, and reduction instances at k = 4..7 (the
    # golden CLI digests pin `simulate` on the reduction's witnesses)
    rng = random.Random(61)
    cases = [(path_graph(n), 3 + n % 3) for n in (23, 60, 151, 400)]
    formulas = exhaustive_e3_formulas()
    for k in (4, 5, 6, 7):
        cases.append((build_instance(rng.choice(formulas), k).graph, 3))
    checked = blocked = 0
    for g, k in cases:
        for c, u, v in _long_jumps(g, rng, 40, k):
            want = _reference_moves(g, c, u, v, k)
            assert simulate_move(g, c, u, v, k).moves == want
            checked += 1
            blocked += want[0].src != u
    assert checked >= 250 and blocked >= 40


def test_long_path_jump_scales_linearly():
    # 0 -> n-1 at k = 3 runs about n/2 iterations; one shortest-path BFS per
    # iteration made this quadratic (9 s at n = 10,000)
    n = 10_000
    g = path_graph(n)
    t0 = time.process_time()
    out = simulate_move(g, {0}, 0, n - 1, 3)
    elapsed = time.process_time() - t0
    assert len(out) == (n - 1) // 2 and out.final() == {n - 1}
    assert elapsed < 3.0


# ---------------------------------------------------------------------------
# simulate_sequence

def test_empty_sequence_stays_empty():
    g = path_graph(4)
    out = simulate_sequence(g, MoveSequence(frozenset({0}), (), 3), 3)
    assert out.moves == ()


def test_short_move_sequence_unchanged():
    g = path_graph(5)
    src = MoveSequence(frozenset({0}), (Move(0, 3),), 4)
    out = simulate_sequence(g, src, 3)
    assert out.moves == (Move(0, 3),)


def test_invalid_input_sequence_rejected():
    g = path_graph(5)
    bad = MoveSequence(frozenset({0}), (Move(1, 2),), 4)
    with pytest.raises(GraphError, match="invalid at step 0"):
        simulate_sequence(g, bad, 3)


def test_compiles_oracle_tj_witnesses():
    # TJ witnesses from the exact oracle expand into valid k=3 sequences with
    # the same endpoints.
    checked = 0
    for g in random_graphs(20, 8, seed=13):
        d = diameter(g)
        sets = independent_sets(g, 3)
        rng = random.Random(g.n * 31 + len(g.edges))
        for _ in range(6):
            s, t = rng.choice(sets), rng.choice(sets)
            if len(s) != len(t):
                continue
            witness = engine.shortest(g, s, t, d)
            if witness is None:
                continue
            out = simulate_sequence(g, witness, 3)
            assert validate_sequence(g, out, 3)
            assert frozenset(out.start) == frozenset(s)
            assert out.final() == frozenset(t)
            # empirical expansion bound: <= 2 * dist per simulated move
            budget = sum(2 * max(1, dist(g, m.src, m.dst)) for m in witness.moves)
            assert len(out) <= budget
            checked += 1
    assert checked > 40


def test_star_compilation_is_identity_when_diameter_small():
    g = star_graph(4)
    witness = engine.shortest(g, {1, 2}, {3, 4}, diameter(g))
    out = simulate_sequence(g, witness, 3)
    assert out.moves == witness.moves
