import collections
import functools
import itertools
import random
import re
import time
from collections import deque

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from kjump import engine
from kjump.engine import (
    Move,
    MoveSequence,
    ResourceExhausted,
    _to_mask,
    decide,
    exists_within,
    k_adjacent,
    lower_bound_moves,
    reachable_configs,
    sequence_from_json,
    sequence_to_json,
    shortest,
    successors,
    validate_sequence,
)
from kjump.graph import GraphError, build_graph, diameter, dist
from kjump.reduction import CnfFormula, build_instance
from kjump.simulate import SimulationError, _emit

from conftest import (
    atlas_graphs,
    cycle_graph,
    independent_sets,
    naive_decide,
    naive_dist,
    naive_is_independent,
    naive_reachable,
    naive_search,
    naive_shortest_len,
    naive_shortest_moves,
    naive_successors,
    naive_validate,
    path_graph,
    random_graphs,
    star_graph,
)


def seq(start, moves, k):
    return MoveSequence(frozenset(start), tuple(Move(a, b) for a, b in moves), k)


def _disjoint_union(a, b):
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return build_graph(a.n + b.n, edges)


def _with_isolated(g, count):
    """g with `count` isolated vertices at seeded places among its ids."""
    n = g.n + count
    iso = set(random.Random(n * 101 + len(g.edges)).sample(range(n), count))
    ids = [v for v in range(n) if v not in iso]
    return build_graph(n, [(ids[u], ids[v]) for u, v in g.edges])


# ---------------------------------------------------------------------------
# k_adjacent

def test_k_adjacent_p3():
    g = path_graph(3)
    assert k_adjacent(g, {0}, {2}, 2)
    assert not k_adjacent(g, {0}, {2}, 1)
    assert not k_adjacent(g, {0}, {0}, 5)


def test_k_adjacent_rejects_dependent_sets():
    g = path_graph(3)
    with pytest.raises(GraphError, match="independent"):
        k_adjacent(g, {0, 1}, {0, 2}, 2)


# ---------------------------------------------------------------------------
# successors

def test_successors_c4_diagonal_is_stuck():
    # Both landing vertices neighbor the remaining token, at every k; the
    # diagonal pairs of C4 admit no move at all.
    g = cycle_graph(4)
    for k in (1, 2, 3, 4):
        assert successors(g, {0, 2}, k) == set()
        assert successors(g, {1, 3}, k) == set()


def test_successors_star():
    g = star_graph(3)  # center 0, leaves 1..3
    assert successors(g, {1, 2}, 2) == {frozenset({1, 3}), frozenset({2, 3})}


def test_successors_empty_config():
    assert successors(path_graph(3), set(), 2) == set()


def test_successors_match_naive_oracle():
    for g in random_graphs(25, 7, seed=31):
        sets = independent_sets(g, 3)
        rng = random.Random(g.n * 7 + len(g.edges))
        for c in rng.sample(sets, min(8, len(sets))):
            for k in (1, 2, 3):
                assert successors(g, c, k) == naive_successors(g, c, k)


# ---------------------------------------------------------------------------
# decide / shortest / exists_within

def test_decide_c4_diagonals_unreachable():
    g = cycle_graph(4)
    for k in (1, 2, 3):
        assert not decide(g, {0, 2}, {1, 3}, k)


def test_decide_reflexive():
    assert decide(path_graph(4), {0, 2}, {0, 2}, 1)


def test_decide_size_mismatch():
    with pytest.raises(GraphError, match="size mismatch"):
        decide(path_graph(4), {0}, {1, 3}, 2)


def test_shortest_trivial_and_simple():
    g = path_graph(4)
    assert len(shortest(g, {0}, {0}, 1)) == 0
    s = shortest(g, {0}, {3}, 2)
    assert len(s) == 2
    assert validate_sequence(g, s, 2)
    assert s.final() == frozenset({3})


def test_shortest_unreachable_returns_none():
    assert shortest(cycle_graph(4), {0, 2}, {1, 3}, 2) is None


def test_shortest_is_deterministic_lowest_move_first():
    g = path_graph(5)
    a = shortest(g, {0, 2}, {2, 4}, 2)
    b = shortest(g, {0, 2}, {2, 4}, 2)
    assert a == b


def test_exists_within_examples():
    g = cycle_graph(4)
    assert exists_within(g, {0}, {0}, 1, 0)
    assert not exists_within(g, {0, 2}, {1, 3}, 2, 1)
    assert not exists_within(g, {0, 2}, {1, 3}, 2, 10)  # genuinely stuck
    g2 = path_graph(4)
    assert not exists_within(g2, {0}, {3}, 2, 1)
    assert exists_within(g2, {0}, {3}, 2, 2)


def test_exists_within_threshold_matches_shortest():
    for g in random_graphs(15, 6, seed=43):
        sets = independent_sets(g, 2)
        rng = random.Random(17)
        for _ in range(6):
            s, t = rng.choice(sets), rng.choice(sets)
            if len(s) != len(t):
                continue
            opt = naive_shortest_len(g, s, t, 2)
            if opt is None:
                assert not exists_within(g, s, t, 2, g.n * 4)
            else:
                assert exists_within(g, s, t, 2, opt)
                if opt > 0:
                    assert not exists_within(g, s, t, 2, opt - 1)


def test_exists_within_rejects_negative_budget():
    with pytest.raises(GraphError, match="nonnegative"):
        exists_within(path_graph(3), {0}, {2}, 2, -1)


def test_decide_matches_naive_oracle():
    for g in random_graphs(20, 7, seed=59):
        sets = independent_sets(g, 3)
        rng = random.Random(g.n + len(g.edges))
        for _ in range(10):
            s, t = rng.choice(sets), rng.choice(sets)
            if len(s) != len(t):
                continue
            for k in (1, 2, 3):
                assert decide(g, s, t, k) == naive_decide(g, s, t, k)


def test_decide_symmetry_and_k_monotonicity():
    for g in random_graphs(15, 7, seed=61):
        d = diameter(g)
        sets = independent_sets(g, 3)
        rng = random.Random(5)
        for _ in range(8):
            s, t = rng.choice(sets), rng.choice(sets)
            if len(s) != len(t):
                continue
            prev = False
            for k in range(1, d + 1):
                ans = decide(g, s, t, k)
                assert ans == decide(g, t, s, k)
                assert ans or not prev  # once true, stays true
                prev = prev or ans


# ---------------------------------------------------------------------------
# validation

def test_validate_empty_sequence():
    assert validate_sequence(path_graph(3), seq({0}, [], 1), 1)


def test_validate_distance_violation():
    report = validate_sequence(path_graph(3), seq({0}, [(0, 2)], 1), 1)
    assert not report
    assert report.step == 0
    assert "distance 2" in report.reason


def test_validate_occupancy_and_independence():
    g = path_graph(4)
    r = validate_sequence(g, seq({0}, [(1, 2)], 2), 2)
    assert not r and "no token on 1" in r.reason
    r = validate_sequence(g, seq({0, 2}, [(0, 2)], 2), 2)
    assert not r and "already occupied" in r.reason
    r = validate_sequence(g, seq({0, 2}, [(0, 1)], 2), 2)
    assert not r and "not independent" in r.reason
    r = validate_sequence(g, seq({0, 1}, [], 2), 2)
    assert not r and "start" in r.reason
    r = validate_sequence(g, seq({0}, [(0, 0)], 2), 2)
    assert not r and "null move" in r.reason


def _random_replays():
    """3,000 seeded (g, start, moves, k): random graphs with isolated
    vertices and several components, random starts (some not independent)
    and random moves, so that every failure kind shows up, at the first step
    and later ones."""
    rng = random.Random(31)
    for _ in range(3000):
        n = rng.randint(1, 10)
        g = build_graph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        )
        start = set(rng.sample(range(n), rng.randint(0, min(n, 4))))
        cur, moves = set(start), []
        for _ in range(rng.randint(0, 5)):
            if cur and rng.random() < 0.85:
                src = rng.choice(sorted(cur))
            else:
                src = rng.randrange(n)
            dst = rng.randrange(n)
            moves.append((src, dst))
            cur = cur - {src} | {dst}
        yield g, start, moves, rng.randint(1, 4)


def test_validate_matches_naive_replay():
    kinds = collections.Counter()
    for g, start, moves, k in _random_replays():
        want = naive_validate(g, start, moves, k)
        report = validate_sequence(g, seq(start, moves, k), k)  # pair tests
        assert (report.ok, report.step, report.reason) == want
        for v in range(g.n):  # a search fills the graph's k-balls
            successors(g, {v}, k)
        report = validate_sequence(g, seq(start, moves, k), k)  # balls cached
        assert (report.ok, report.step, report.reason) == want
        kinds[re.sub(r"[\d-]+", "#", want[2] or "valid")] += 1
    assert set(kinds) == {
        "valid",
        "start set is not independent",
        "null move at #",
        "no token on #",
        "vertex # already occupied",
        "# cannot reach #",
        "distance # exceeds bound #",
        "set not independent after moving # to #",
    }
    assert min(kinds.values()) >= 20, kinds


def test_emit_matches_validate_sequence():
    # the compiler's _emit and validate_sequence share one move check: over
    # the same seeded moves from an independent start, _emit raises with
    # exactly the reason the validator reports, at the same step, and
    # passes exactly the moves before it
    rejected = 0
    for g, start, moves, k in _random_replays():
        report = validate_sequence(g, seq(start, moves, k), k)
        if not report and report.step is None:
            continue  # start not independent: _emit assumes an independent state
        cur, out = _to_mask(start), []
        for i, (src, dst) in enumerate(moves):
            try:
                cur = _emit(g, cur, src, dst, k, out)
            except SimulationError as exc:
                assert (i, str(exc)) == (
                    report.step,
                    f"illegal generated move: {report.reason}",
                )
                rejected += 1
                break
        else:
            assert report.ok
        assert out == [Move(*m) for m in moves[: len(out)]]
    assert rejected >= 1000


def test_validate_vertex_out_of_range():
    g = path_graph(4)
    for _ in range(2):  # by pair test, then with the 2-ball of 0 cached
        for dst in (4, 9, -1, -7):
            with pytest.raises(GraphError, match="out of range"):
                validate_sequence(g, seq({0}, [(0, dst)], 2), 2)
        successors(g, {0}, 2)
    for src in (-1, 9):
        report = validate_sequence(g, seq({0}, [(src, 2)], 2), 2)
        assert (report.step, report.reason) == (0, f"no token on {src}")


def test_validate_runs_one_pair_test_per_move(monkeypatch):
    # Every passing move costs one limited pair test dist(src, dst, k),
    # whether or not the graph has k-balls cached; only a failing move runs
    # the full dist, to name the distance.
    g = path_graph(30)
    s = seq({0, 10}, [(0, 3), (10, 13), (3, 6)], 3)
    calls = []

    def counting_dist(*args):
        calls.append(args)
        return dist(*args)

    monkeypatch.setattr(engine, "dist", counting_dist)
    pair_tests = [(g, 0, 3, 3), (g, 10, 13, 3), (g, 3, 6, 3)]
    assert validate_sequence(g, s)
    assert calls == pair_tests
    successors(g, {0, 10, 3}, 3)  # a search fills the k-balls of the movers
    calls.clear()
    assert validate_sequence(g, s)
    assert calls == pair_tests
    calls.clear()
    report = validate_sequence(g, seq({0}, [(0, 4)], 3))
    assert report.reason == "distance 4 exceeds bound 3"
    assert calls == [(g, 0, 4, 3), (g, 0, 4)]


def test_validate_uses_sequence_k_by_default():
    s = seq({0}, [(0, 2)], 2)
    assert validate_sequence(path_graph(3), s)
    assert not validate_sequence(path_graph(3), s, 1)


def test_shortest_output_always_validates():
    for g in random_graphs(15, 7, seed=71):
        sets = independent_sets(g, 2)
        rng = random.Random(9)
        for _ in range(5):
            s, t = rng.choice(sets), rng.choice(sets)
            if len(s) != len(t):
                continue
            out = shortest(g, s, t, 2)
            assert (out is None) == (not decide(g, s, t, 2))
            if out is not None:
                assert validate_sequence(g, out, 2)
                assert out.final() == frozenset(t)
                assert len(out) == naive_shortest_len(g, s, t, 2)


# ---------------------------------------------------------------------------
# lower bound

def test_lower_bound_trivial():
    assert lower_bound_moves(path_graph(4), {0, 2}, {0, 2}, 2) == 0


def test_lower_bound_c4():
    assert lower_bound_moves(cycle_graph(4), {0, 2}, {1, 3}, 2) == 2


def test_lower_bound_unreachable_marker():
    g = build_graph(3, [(0, 1)])
    assert lower_bound_moves(g, {2}, {0}, 2) is None


def test_lower_bound_below_optimum():
    for g in random_graphs(15, 7, seed=83):
        sets = independent_sets(g, 3)
        rng = random.Random(2)
        for _ in range(6):
            s, t = rng.choice(sets), rng.choice(sets)
            if len(s) != len(t):
                continue
            opt = naive_shortest_len(g, s, t, 2)
            if opt is not None:
                bound = lower_bound_moves(g, s, t, 2)
                assert bound is not None and bound <= opt


def _naive_lower_bound(g, s, t, k):
    """Brute force over every matching, with ceil(naive_dist / k) costs;
    None when every matching pairs some token with an unreachable target."""
    svs, tvs = sorted(s), sorted(t)
    best = None
    for perm in itertools.permutations(tvs):
        ds = [naive_dist(g, u, v) for u, v in zip(svs, perm)]
        if None not in ds:
            total = sum(-(-d // k) for d in ds)
            best = total if best is None else min(best, total)
    return best


def test_lower_bound_matches_naive_costs():
    # connected graphs (long paths and cycles among them, so that distances
    # reach several levels), disjoint unions of two and graphs with isolated
    # vertices, so that some pairs can only be matched across components
    graphs = random_graphs(20, 9, seed=89) + random_graphs(10, 14, seed=92)
    graphs += [path_graph(12), cycle_graph(13)]
    halves = random_graphs(20, 5, seed=90)
    graphs += [_disjoint_union(a, b) for a, b in zip(halves[::2], halves[1::2])]
    graphs += [_with_isolated(g, 2) for g in random_graphs(10, 6, seed=91)]
    unbounded = bounded = 0
    for g in graphs:
        sets = independent_sets(g, 4)
        rng = random.Random(g.n * 13 + len(g.edges))
        for _ in range(10):
            s, t = rng.choice(sets), rng.choice(sets)
            if len(s) != len(t):
                continue
            for k in (1, 2, 3):
                want = _naive_lower_bound(g, s, t, k)
                assert lower_bound_moves(g, s, t, k) == want
                unbounded += want is None
                bounded += want is not None
    assert unbounded >= 40 and bounded >= 400


def _scipy_matching_total(cost):
    a = np.array(cost, dtype=np.int64)
    rows, cols = linear_sum_assignment(a)
    return int(a[rows, cols].sum())


def test_min_cost_matching_matches_scipy():
    # small and large cost ranges (many ties, or almost none), with whole
    # rows, whole columns and single entries set to the unreachable marker
    rng = random.Random(606)
    unbounded = 0
    for trial in range(480):
        r = 1 + trial % 12
        hi = rng.choice((1, 3, 12, 10**6))
        cost = [[rng.randint(0, hi) for _ in range(r)] for _ in range(r)]
        for _ in range(rng.randint(0, r)):
            i, j, kind = rng.randrange(r), rng.randrange(r), rng.randrange(3)
            if kind == 0:
                cost[i] = [engine._UNREACHABLE] * r
            elif kind == 1:
                for row in cost:
                    row[j] = engine._UNREACHABLE
            else:
                cost[i][j] = engine._UNREACHABLE
        want = _scipy_matching_total(cost)
        assert engine._min_cost_matching(cost) == want
        unbounded += want >= engine._UNREACHABLE
    assert unbounded >= 100


def test_min_cost_matching_random_costs_at_scale():
    # the worst case for the warm start: random costs leave about a quarter
    # of the rows free after the greedy pass, each augmented in O(r^2)
    # (0.12 s, and 0.24 s for a textbook cold Hungarian); the bound catches
    # a cliff, not the factor of two
    rng = random.Random(300)
    cost = [[rng.randint(0, 10**6) for _ in range(300)] for _ in range(300)]
    t0 = time.process_time()
    total = engine._min_cost_matching(cost)
    elapsed = time.process_time() - t0
    assert total == _scipy_matching_total(cost)
    assert elapsed < 1.0


def test_lower_bound_on_planted_reduction_instance():
    # m = n = 100 at k = 3 (1,400 vertices, 300 tokens): the bound certifies
    # that the reduction's witnesses of length 2(m + n) are optimal
    rng = random.Random(100)
    n = m = 100
    planted = [rng.random() < 0.5 for _ in range(n)]
    clauses = []
    for _ in range(m):
        lits = [(v, rng.random() < 0.5) for v in rng.sample(range(n), 3)]
        if not any(planted[v] == pos for v, pos in lits):
            lits[0] = (lits[0][0], planted[lits[0][0]])
        clauses.append(tuple(lits))
    inst = build_instance(CnfFormula(n, tuple(clauses)), 3)
    assert len(inst.start) == 300
    assert lower_bound_moves(inst.graph, inst.start, inst.target, 3) == 2 * (m + n)


# ---------------------------------------------------------------------------
# the hub-cached search and the cone `shortest` against the earlier loop

def _max_finite_dist(g):
    return max(
        [naive_dist(g, u, v) or 0 for u in range(g.n) for v in range(u + 1, g.n)]
        or [0]
    )


@functools.lru_cache(maxsize=None)
def _search_corpus():
    """(graph, independent sets up to 3 tokens, k values) for every atlas
    graph with 2 to 7 vertices, random graphs with isolated vertices and
    disjoint unions of two random graphs; k runs over 1, 2, 3, D and D + 1,
    D the largest finite distance."""
    graphs = [g for g in atlas_graphs(7) if g.n >= 2]
    graphs += [_with_isolated(g, 1 + g.n % 3) for g in random_graphs(40, 8, seed=141)]
    halves = random_graphs(40, 5, seed=143)
    graphs += [_disjoint_union(a, b) for a, b in zip(halves[::2], halves[1::2])]
    out = []
    for g in graphs:
        diam = max(1, _max_finite_dist(g))
        ks = sorted({1, 2, 3, diam, diam + 1})
        out.append((g, [c for c in independent_sets(g, 3) if c], ks))
    return out


def _mask(c):
    return sum(1 << v for v in c)


def test_explore_parent_map_matches_naive_search():
    compared = 0
    for g, sets, ks in _search_corpus():
        rng = random.Random(g.n * 7 + len(g.edges))
        for c in rng.sample(sets, min(3, len(sets))):
            for k in ks:
                got = list(engine._explore(g, c, k, 10**7).items())
                _, want = naive_search(g, k, 10**7, _mask(c))
                assert got == list(want.items())
                compared += 1
    assert compared >= 12000


def test_shortest_moves_match_naive_one_directional():
    compared = unreachable = 0
    meet_in_fwd = meet_in_bwd = wide_meets = 0
    for g, sets, ks in _search_corpus():
        rng = random.Random(g.n * 11 + len(g.edges))
        for _ in range(4):
            s, t = rng.choice(sets), rng.choice(sets)
            if len(s) != len(t):
                continue
            for k in ks:
                got = shortest(g, s, t, k)
                want = naive_shortest_moves(g, s, t, k)
                if want is None:
                    assert got is None
                    unreachable += 1
                    continue
                assert tuple((m.src, m.dst) for m in got.moves) == want
                compared += 1
                if s != t:
                    meets, fwd, _ = engine._search(
                        g, k, 10**7, _mask(s), _mask(t), whole_level=True
                    )
                    meet_in_fwd += meets[0] in fwd.seen
                    meet_in_bwd += meets[0] not in fwd.seen
                    wide_meets += len(meets) > 1
    # both sides must have found meeting layers, some of several states
    assert compared >= 4000 and unreachable >= 700
    assert meet_in_fwd >= 1000 and meet_in_bwd >= 2500 and wide_meets >= 600


def test_reachable_configs_cap_matches_naive_search():
    raised = finished = 0
    for g, sets, ks in _search_corpus()[::5]:
        rng = random.Random(g.n * 3 + len(g.edges))
        c = rng.choice(sets)
        for k in ks:
            for cap in range(1, 21):
                try:
                    naive_search(g, k, cap, _mask(c))
                except ResourceExhausted as exc:
                    want = (exc.states, exc.depth, exc.frontier)
                else:
                    want = None
                try:
                    reachable_configs(g, c, k, max_states=cap)
                except ResourceExhausted as exc:
                    assert (exc.states, exc.depth, exc.frontier) == want
                    raised += 1
                else:
                    assert want is None
                    finished += 1
    assert raised >= 5000 and finished >= 12000


# ---------------------------------------------------------------------------
# exploration, resource guard, serialization

def test_reachable_configs_matches_naive():
    for g in random_graphs(10, 6, seed=97):
        sets = independent_sets(g, 2)
        rng = random.Random(1)
        for c in rng.sample(sets, min(4, len(sets))):
            assert reachable_configs(g, c, 2) == naive_reachable(g, c, 2)


def test_reachable_configs_is_a_read_only_set_view(monkeypatch):
    views = 0
    for g in random_graphs(12, 7, seed=41):
        sets = independent_sets(g, 3)
        rng = random.Random(g.n)
        for c in rng.sample(sets, min(3, len(sets))):
            for k in (1, 2):
                comp = reachable_configs(g, c, k)
                want = naive_reachable(g, c, k)
                assert comp == want and want == comp
                assert not comp != want and not want != comp
                members = list(comp)
                assert len(comp) == len(members) == len(set(members)) == len(want)
                assert set(members) == want and frozenset(c) in comp
                other = set(sets[: len(sets) // 2])
                assert comp & other == want & other
                assert comp | other == want | other
                assert comp - other == want - other
                for result in (comp & other, comp | other, comp - other):
                    assert type(result) is frozenset
                views += 1
    assert views >= 40
    g = path_graph(6)
    comp = reachable_configs(g, {0, 2}, 2)
    assert not hasattr(comp, "add") and not hasattr(comp, "discard")
    members = list(comp)
    assert members[0] == frozenset({0, 2})
    for probe in ([0, 2], (0, 2), "02", 2, None, {0: 1, 2: 1},
                  {-1, 2}, {0.0, 2}, {"0", 2}, {0, 6}, {0, 2**80}):
        assert probe not in comp
    # len and membership never build a frozenset per state
    monkeypatch.setattr(engine, "_from_mask", lambda m: 1 / 0)
    assert len(comp) == len(members)
    assert all(set(c) in comp and c in comp for c in members)
    assert frozenset({0, 1}) not in comp
    with pytest.raises(ZeroDivisionError):
        next(iter(comp))


def test_resource_cap_raises():
    g = path_graph(9)
    with pytest.raises(ResourceExhausted):
        decide(g, {0, 2, 4}, {4, 6, 8}, 3, max_states=3)


@pytest.mark.parametrize(
    "search",
    [
        lambda g, s, t, cap: reachable_configs(g, s, 2, max_states=cap),
        lambda g, s, t, cap: decide(g, s, t, 2, max_states=cap),
        lambda g, s, t, cap: shortest(g, s, t, 2, max_states=cap),
        lambda g, s, t, cap: exists_within(g, s, t, 2, 20, max_states=cap),
    ],
    ids=["reachable_configs", "decide", "shortest", "exists_within"],
)
def test_resource_cap_reports_progress(search):
    # s and t are 9 moves apart, so a cap of 5 states stops every search
    g = path_graph(10)
    s, t = {0, 2, 4}, {5, 7, 9}
    assert naive_shortest_len(g, s, t, 2) == 9
    with pytest.raises(ResourceExhausted) as info:
        search(g, s, t, 5)
    exc = info.value
    assert exc.states == 5
    assert exc.depth >= 1 and exc.frontier >= 1
    assert f"{exc.states} states" in str(exc)
    assert f"depth {exc.depth}" in str(exc)
    assert f"frontier {exc.frontier}" in str(exc)


@pytest.mark.parametrize("k", [0, -1])
def test_every_search_rejects_k_below_one(k):
    g = path_graph(4)
    calls = [
        lambda: successors(g, {0}, k),
        lambda: reachable_configs(g, {0}, k),
        lambda: decide(g, {0}, {3}, k),
        lambda: shortest(g, {0}, {3}, k),
        lambda: exists_within(g, {0}, {3}, k, 3),
    ]
    for call in calls:
        with pytest.raises(GraphError, match="at least 1"):
            call()


# ---------------------------------------------------------------------------
# the bitmask search core against plain references

def _mixed_graphs(seed):
    """Connected random graphs, plus disjoint unions of two, so that some
    pairs are unreachable for want of a path as well as for blocking."""
    conn = random_graphs(24, 7, seed=seed)
    halves = random_graphs(16, 4, seed=seed + 1)
    return conn + [_disjoint_union(a, b) for a, b in zip(halves[::2], halves[1::2])]


def test_bidirectional_decide_and_budgets_match_naive():
    unreachable = reachable = 0
    for g in _mixed_graphs(seed=113):
        sets = independent_sets(g, 3)
        rng = random.Random(g.n * 31 + len(g.edges))
        for _ in range(8):
            s, t = rng.choice(sets), rng.choice(sets)
            if len(s) != len(t):
                continue
            for k in (1, 2, 3):
                expect = naive_decide(g, s, t, k)
                assert decide(g, s, t, k) == expect
                opt = naive_shortest_len(g, s, t, k)
                assert (opt is not None) == expect
                if opt is None:
                    unreachable += 1
                    assert not exists_within(g, s, t, k, 2 * g.n)
                    continue
                reachable += 1
                assert exists_within(g, s, t, k, opt)
                assert exists_within(g, s, t, k, opt + 1)
                if opt > 0:
                    assert not exists_within(g, s, t, k, opt - 1)
    assert unreachable >= 20 and reachable >= 100


def _reference_shortest_moves(g, s, t, k):
    """Plain one-directional BFS over frozensets: moves tried in ascending
    (src, dst) order, each state's parent is its first discoverer, and the
    search stops when t is first discovered."""
    s, t = frozenset(s), frozenset(t)
    if s == t:
        return ()
    parent = {s: None}
    q = deque([s])
    while q:
        cur = q.popleft()
        for u in sorted(cur):
            for v in range(g.n):
                if v in cur:
                    continue
                d = naive_dist(g, u, v)
                if d is None or d > k:
                    continue
                nxt = cur - {u} | {v}
                if nxt in parent or not naive_is_independent(g, nxt):
                    continue
                parent[nxt] = (cur, (u, v))
                if nxt == t:
                    moves = []
                    while parent[nxt] is not None:
                        nxt, mv = parent[nxt]
                        moves.append(mv)
                    return tuple(reversed(moves))
                q.append(nxt)
    return None


def test_shortest_moves_match_reference_bfs():
    compared = 0
    for g in _mixed_graphs(seed=127):
        sets = independent_sets(g, 3)
        rng = random.Random(g.n * 17 + len(g.edges))
        for _ in range(6):
            s, t = rng.choice(sets), rng.choice(sets)
            if len(s) != len(t):
                continue
            for k in (1, 2, 3):
                got = shortest(g, s, t, k)
                ref = _reference_shortest_moves(g, s, t, k)
                if ref is None:
                    assert got is None
                else:
                    assert tuple((m.src, m.dst) for m in got.moves) == ref
                    compared += 1
    assert compared >= 100


def test_succ_moves_ascending_src_then_dst():
    for g in random_graphs(20, 8, seed=131):
        for c in independent_sets(g, 3):
            cmask = sum(1 << v for v in c)
            for k in (1, 2, 4):
                moves = engine._succ_moves(g, cmask, k)
                pairs = [(u, v) for u, v, _ in moves]
                assert pairs == sorted(set(pairs))
                for u, v, nxt in moves:
                    assert engine._from_mask(nxt) == c - {u} | {v}
                assert {engine._from_mask(m) for _, _, m in moves} == (
                    naive_successors(g, c, k)
                )


def test_from_mask_round_trip():
    for vs in ([], [0], [3, 5, 64], list(range(0, 200, 7))):
        m = engine._to_mask(vs)
        assert engine._from_mask(m) == frozenset(vs)
        assert engine._bits(m) == sorted(vs)


def test_sequence_json_round_trip():
    s = seq({0, 2}, [(0, 1), (2, 3)], 2)
    assert sequence_from_json(sequence_to_json(s)) == s
