import collections
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from kjump import engine, split2
from kjump.graph import (
    Graph,
    GraphError,
    NotSplitError,
    _degree_partition,
    _find_c5,
    _find_obstruction,
    build_graph,
    diameter,
    dist,
    find_peo,
    graph_from_json,
    graph_to_json,
    is_connected,
    is_independent,
    lex_bfs,
    parse_edgelist,
    parse_graph,
    recognize_split,
    verify_peo,
)
from kjump.generators import random_pair, random_split_graph
from kjump.reduction import (
    assignment_to_sequence,
    build_instance,
    instance_to_json,
    peo_order,
    sequence_to_assignment,
)

from conftest import (
    atlas_graphs,
    brute_split_partitions,
    complete_graph,
    cycle_graph,
    exhaustive_e3_formulas,
    naive_chordal,
    naive_diameter,
    naive_dist,
    naive_find_c5,
    naive_find_obstruction,
    naive_graph_lists,
    naive_is_peo,
    naive_lex_bfs,
    naive_shortest_path,
    path_graph,
    random_graphs,
    split_graphs_upto,
    star_graph,
    two_cluster_graph,
)


# ---------------------------------------------------------------------------
# construction

def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3
    assert len(g.edges) == 3
    assert g.adj[0] == (1, 2)


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match=r"self-loop.*\(0, 0\)"):
        build_graph(2, [(0, 0)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(GraphError, match=r"duplicate.*\(0, 1\)"):
        build_graph(3, [(0, 1), (0, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"out of range.*\(0, 5\)"):
        build_graph(3, [(0, 5)])


def test_adjacency_symmetric():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    for u in range(4):
        for v in g.adj[u]:
            assert u in g.adj[v]


def check_against_list_graph(g, pairs):
    """Every view of g against the list-first constructor's on the same
    edge list; the lazy adj and edges last, so the others are checked
    before they exist."""
    adj, edges = naive_graph_lists(g.n, pairs)
    assert g.adj_mask == tuple(sum(1 << w for w in ns) for ns in adj)
    assert [g.degree(v) for v in range(g.n)] == [len(ns) for ns in adj]
    for u in range(-1, g.n + 1):
        for v in range(-1, g.n + 1):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
    assert graph_to_json(g)["edges"] == sorted([list(e) for e in edges])
    assert repr(g) == f"Graph(n={g.n}, m={len(edges)})"
    assert g._adj is None and g._edges is None
    assert g.adj == adj and g.edges == edges


def test_mask_graph_matches_list_graph():
    # every atlas graph with <= 7 vertices, 2,000 random graphs given as
    # shuffled edge lists with random orientations, and reduction instances
    rng = random.Random(41)
    checked = collections.Counter()
    for g in atlas_graphs(7):
        pairs = [tuple(e) for e in graph_to_json(g)["edges"]]
        check_against_list_graph(build_graph(g.n, pairs), pairs)
        checked["atlas"] += 1
    for _ in range(2000):
        n = rng.randint(0, 16)
        p = rng.choice((0.0, 0.2, 0.5, 0.9))
        pairs = [
            (u, v) if rng.random() < 0.5 else (v, u)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < p
        ]
        rng.shuffle(pairs)
        check_against_list_graph(build_graph(n, pairs), pairs)
        checked["random"] += 1
    for phi in exhaustive_e3_formulas()[::600]:
        for k in (3, 5):
            g = build_instance(phi, k).graph
            check_against_list_graph(g, g._pairs)  # the list build_instance gave
            checked["reduction"] += 1
    assert checked == {"atlas": len(atlas_graphs(7)), "random": 2000, "reduction": 18}


def _outcome(build, n, pairs):
    try:
        build(n, pairs)
    except GraphError as exc:
        return str(exc)
    return None


def test_construction_errors_match_list_graph():
    # edge lists with several bad edges of every kind: the same first
    # failing edge and the same message as the list-first constructor
    rng = random.Random(43)
    kinds = collections.Counter()
    for _ in range(3000):
        n = rng.randint(1, 8)
        pairs = [
            (rng.randint(-2, n + 1), rng.randint(-2, n + 1))
            if rng.random() < 0.15
            else tuple(rng.sample(range(n), 2)) if n > 1 else (0, 0)
            for _ in range(rng.randint(0, 12))
        ]
        for _ in range(rng.randint(0, 2)):
            if pairs:
                u, v = rng.choice(pairs)
                pairs.insert(rng.randrange(len(pairs) + 1), (v, u))
        want = _outcome(naive_graph_lists, n, pairs)
        assert _outcome(Graph, n, pairs) == want, (n, pairs)
        kinds[want.split(":")[0] if want else "valid"] += 1
    assert set(kinds) == {"valid", "edge endpoint out of range", "self-loop", "duplicate edge"}
    assert min(kinds.values()) >= 100, kinds


# ---------------------------------------------------------------------------
# distances

def test_dist_path():
    g = path_graph(4)
    assert dist(g, 0, 3) == 3
    assert dist(g, 3, 0) == 3


def test_dist_identity():
    g = cycle_graph(5)
    for v in range(5):
        assert dist(g, v, v) == 0


def test_dist_unreachable():
    g = build_graph(2, [])
    assert dist(g, 0, 1) is None


def test_dist_out_of_range():
    with pytest.raises(GraphError):
        dist(path_graph(3), 0, 7)


def test_shortest_path_lowest_id_tie_break():
    # C4: both 0-1-2 and 0-3-2 are shortest; parent scan is ascending.
    g = cycle_graph(4)
    assert naive_shortest_path(g, 0, 2) == [0, 1, 2]
    assert naive_shortest_path(g, 0, 0) == [0]


def test_shortest_path_first_discovered_parent_wins():
    # 6-cycle 0-1-4-5-3-2-0: 5 is discovered from 4 (reached through 1,
    # dequeued before 3), not from its lowest-id neighbour 3 on level 2.
    g = build_graph(6, [(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)])
    assert naive_shortest_path(g, 0, 5) == [0, 1, 4, 5]


def test_shortest_path_none_across_components():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert naive_shortest_path(g, 0, 3) is None


def test_diameter_examples():
    assert diameter(cycle_graph(5)) == 2
    assert diameter(complete_graph(4)) == 1
    assert diameter(star_graph(3)) == 2


def test_diameter_disconnected_raises():
    with pytest.raises(GraphError, match="disconnected"):
        diameter(build_graph(3, [(0, 1)]))


def test_is_connected():
    assert is_connected(path_graph(5))
    assert not is_connected(build_graph(3, [(0, 1)]))
    assert is_connected(build_graph(1, []))


def test_dist_and_limited_test_match_naive():
    # every pair, with every limit from 0 to one past the largest finite
    # distance, on connected and disconnected graphs
    graphs = list(atlas_graphs(6)) + [path_graph(30), build_graph(9, [(0, 1), (2, 3)])]
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(2, 14)
        p = rng.choice((0.1, 0.2, 0.4))
        graphs.append(
            build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        )
    disconnected = 0
    for g in graphs:
        want = {(u, v): naive_dist(g, u, v) for u in range(g.n) for v in range(g.n)}
        top = max(d for d in want.values() if d is not None)
        disconnected += None in want.values()
        for (u, v), d in want.items():
            assert dist(g, u, v) == d
            for limit in range(top + 2):
                assert dist(g, u, v, limit) == (d if d is not None and d <= limit else None)
    assert disconnected > 100


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dist_is_a_metric(data):
    n = data.draw(st.integers(2, 8))
    all_pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(all_pairs)))
    g = build_graph(n, sorted(edges))
    for u in range(n):
        for v in range(n):
            d = dist(g, u, v)
            assert d == naive_dist(g, u, v)
            assert d == dist(g, v, u)
            for w in range(n):
                a, b = dist(g, u, w), dist(g, w, v)
                if a is not None and b is not None:
                    assert d is not None and d <= a + b


# ---------------------------------------------------------------------------
# independence

def test_is_independent_examples():
    g = star_graph(3)
    assert is_independent(g, {1, 2, 3})
    assert not is_independent(g, {0, 1})
    assert is_independent(g, set())


def test_is_independent_range_check():
    with pytest.raises(GraphError):
        is_independent(path_graph(2), {9})


# ---------------------------------------------------------------------------
# split recognition

def test_recognize_c4_rejected_with_witness():
    with pytest.raises(NotSplitError) as ei:
        recognize_split(cycle_graph(4))
    kind, verts = ei.value.witness
    assert kind == "C4"
    assert len(set(verts)) == 4


def test_recognize_2k2_rejected():
    with pytest.raises(NotSplitError) as ei:
        recognize_split(build_graph(4, [(0, 1), (2, 3)]))
    assert ei.value.witness[0] == "2K2"


def test_recognize_c5_rejected():
    with pytest.raises(NotSplitError) as ei:
        recognize_split(cycle_graph(5))
    assert ei.value.witness[0] in ("C4", "2K2", "C5")


def test_canonical_partition_k3_plus_pendant():
    # Triangle 0,1,2 with pendant 3 on 0. Maximum independent part has two
    # vertices; among the ties the lexicographically smallest clique wins.
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    dec = recognize_split(g)
    assert sorted(dec.clique_part) == [0, 1]
    assert sorted(dec.indep_part) == [2, 3]


def test_two_cluster_decomposition():
    g = two_cluster_graph(2)  # clique {0,1}; 0-2,3; 1-4,5
    dec = recognize_split(g)
    assert sorted(dec.clique_part) == [0, 1]
    assert len(dec.clusters) == 2
    for c in dec.clusters:
        assert c.n_size == 2
        assert len(c.u_side) == 2
        assert len(c.v_side) == 1
    sides = {frozenset(c.u_side) for c in dec.clusters}
    assert sides == {frozenset({2, 3}), frozenset({4, 5})}


def test_pseudo_cluster_collects_bare_clique_vertices():
    # Pseudo-clusters only arise for non-canonical partitions: a clique
    # vertex with no independent neighbor is movable, so the canonical
    # max-|U^B| rule always empties them. Exercise the rule directly.
    from kjump.graph import _decompose

    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    dec = _decompose(g, frozenset({0, 1, 2}), frozenset({3, 4}))
    pseudo = [c for c in dec.clusters if not c.u_side]
    assert len(pseudo) == 1
    assert pseudo[0].v_side == frozenset({1, 2})
    assert pseudo[0].n_size == 0
    # and the canonical recognizer indeed leaves no pseudo-cluster
    assert all(c.u_side for c in recognize_split(g).clusters)


def test_clusters_sorted_by_neighborhood_size():
    g = random_split_graph(9, random.Random(3))
    dec = recognize_split(g)
    sizes = [c.n_size for c in dec.clusters]
    assert sizes == sorted(sizes)


def test_canonical_partition_matches_brute_force():
    rng = random.Random(11)
    graphs = [random_split_graph(rng.randint(1, 7), rng) for _ in range(120)]
    for g in split_graphs_upto(8):
        ids = rng.sample(range(g.n), g.n)
        graphs += [g, build_graph(g.n, [(ids[u], ids[v]) for u, v in g.edges])]
    for g in graphs:
        dec = recognize_split(g)
        parts = brute_split_partitions(g)
        assert parts, "generated graph should be split"
        best = min(parts, key=lambda p: (-len(p[1]), tuple(sorted(p[0]))))
        assert (dec.clique_part, dec.indep_part) == best, sorted(g.edges)


def test_recognition_agrees_with_forbidden_subgraph_check():
    # A graph is split iff it has no induced 2K2, C4 or C5.
    for g in atlas_graphs(6):
        try:
            dec = recognize_split(g)
            is_split = True
        except NotSplitError as exc:
            is_split = False
            kind, verts = exc.witness
            induced = [
                (a, b)
                for a, b in itertools.combinations(sorted(set(verts)), 2)
                if g.has_edge(a, b)
            ]
            assert len(induced) == {"2K2": 2, "C4": 4, "C5": 5}[kind]
        assert is_split == bool(brute_split_partitions(g))
        if is_split:
            # reassembly: U^B edgeless, V^A complete, clusters partition U^B
            assert is_independent(g, dec.indep_part)
            for a, b in itertools.combinations(sorted(dec.clique_part), 2):
                assert g.has_edge(a, b)
            covered = [v for c in dec.clusters for v in c.u_side]
            assert sorted(covered) == sorted(dec.indep_part)


def test_find_obstruction_matches_naive_scan():
    # the same first witness as the pair-and-edge scan it replaced, on every
    # non-split atlas graph, on 500 random non-split graphs and on reduction
    # instances
    kinds = collections.Counter()
    for g in atlas_graphs(7):
        if _degree_partition(g) is None:
            assert _find_obstruction(g) == naive_find_obstruction(g)
            kinds["atlas"] += 1
    rng = random.Random(151)
    while kinds["random"] < 500:
        n = rng.randint(4, 16)
        p = rng.random()
        g = build_graph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        )
        if _degree_partition(g) is not None:
            continue
        witness = _find_obstruction(g)
        assert witness == naive_find_obstruction(g)
        kinds["random"] += 1
        kinds[witness[0]] += 1
    for phi in exhaustive_e3_formulas()[::400]:
        g = build_instance(phi, 3).graph  # chordal: no C4, so the 2K2 scan runs
        assert _find_obstruction(g) == naive_find_obstruction(g)
        kinds["reduction"] += 1
    assert kinds["atlas"] == 995 and kinds["reduction"] == 14
    assert kinds["C4"] >= 300 and kinds["2K2"] >= 50


def test_find_c5_matches_naive_scan():
    # the same smallest induced C5 as the 5-subset scan it replaced, on every
    # atlas graph in its own labelling and one seeded relabelling; the
    # non-split graphs with no C4 or 2K2 reach it from _find_obstruction
    rng = random.Random(163)
    kinds = collections.Counter()
    for g in atlas_graphs(7):
        ids = list(range(g.n))
        rng.shuffle(ids)
        h = build_graph(g.n, [(ids[u], ids[v]) for u, v in g.edges])
        for x in (g, h):
            c5 = _find_c5(x)
            assert c5 == naive_find_c5(x), sorted(x.edges)
            kinds["C5" if c5 else "none"] += 1
            if _degree_partition(x) is None and _find_obstruction(x)[0] == "C5":
                assert _find_obstruction(x) == ("C5", c5)
                kinds["fallback"] += 1
    assert kinds == {"none": 2214, "C5": 290, "fallback": 14}


def test_c5_fallback_on_large_clique_join():
    # K_r joined to a C5 (numbered last) has no induced C4 or 2K2, so
    # recognition reaches the C5 fallback; the 5-subset scan took 5.4 s at
    # r = 40
    r = 95
    cycle = [r + i for i in range(5)]
    edges = [(u, v) for u in range(r) for v in range(u + 1, r + 5)]
    edges += [(cycle[i], cycle[i + 1]) for i in range(4)] + [(cycle[0], cycle[4])]
    g = build_graph(r + 5, edges)
    t0 = time.process_time()
    with pytest.raises(NotSplitError) as exc:
        recognize_split(g)
    assert time.process_time() - t0 < 1.0
    assert exc.value.witness == ("C5", tuple(cycle))


# ---------------------------------------------------------------------------
# chordality

def test_find_peo_on_path():
    g = path_graph(4)
    order = find_peo(g)
    assert order is not None
    assert verify_peo(g, order)


def test_find_peo_rejects_c4():
    assert find_peo(cycle_graph(4)) is None


def test_verify_peo_examples():
    p3 = path_graph(3)
    assert verify_peo(p3, [0, 2, 1])
    c4 = cycle_graph(4)
    for order in itertools.permutations(range(4)):
        assert not verify_peo(c4, list(order))


def test_verify_peo_requires_permutation():
    with pytest.raises(GraphError, match="permutation"):
        verify_peo(path_graph(3), [0, 0, 1])


def test_lex_bfs_is_permutation():
    for g in random_graphs(20, 8, seed=5):
        assert sorted(lex_bfs(g)) == list(range(g.n))


def test_peo_matches_exhaustive_chordality():
    # find_peo returns an ordering exactly when no induced cycle >= 4 exists.
    for g in atlas_graphs(7):
        order = find_peo(g)
        assert (order is not None) == naive_chordal(g), g.edges
        if order is not None:
            assert verify_peo(g, order)
    rng = random.Random(23)
    for _ in range(60):
        edges = [e for e in itertools.combinations(range(8), 2) if rng.random() < 0.35]
        g = build_graph(8, edges)
        assert (find_peo(g) is not None) == naive_chordal(g), g.edges


def _kernel_corpus():
    """Every atlas graph with <= 7 vertices, then 2,000 seeded random graphs
    with 0-13 vertices at densities from empty to near-complete (many of
    them disconnected), and 300 random split graphs, which are chordal."""
    yield from atlas_graphs(7)
    rng = random.Random(77)
    for _ in range(2000):
        n = rng.randint(0, 13)
        p = rng.choice((0.0, 0.15, 0.3, 0.5, 0.8, 1.0))
        yield build_graph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        )
    for _ in range(300):
        yield random_split_graph(rng.randint(1, 13), rng)


def check_chordality_kernels(g, rng):
    """lex_bfs, find_peo and verify_peo (on the LexBFS order and on random
    orders) against the naive references; returns whether g is chordal."""
    order = naive_lex_bfs(g)
    assert lex_bfs(g) == order
    peo = order[::-1]
    chordal = naive_is_peo(g, peo)
    assert find_peo(g) == (peo if chordal else None)
    assert verify_peo(g, peo) == chordal
    for _ in range(3):
        perm = rng.sample(range(g.n), g.n)
        assert verify_peo(g, perm) == naive_is_peo(g, perm)
    return chordal


def check_diameter(g):
    """diameter against naive_diameter; returns whether g is connected."""
    if g.n == 0:
        with pytest.raises(GraphError, match="empty"):
            diameter(g)
        return False
    want = naive_diameter(g)
    if want is None:
        with pytest.raises(GraphError, match="disconnected"):
            diameter(g)
    else:
        assert diameter(g) == want
    return want is not None


def test_kernels_match_naive_references():
    rng = random.Random(5)
    seen = collections.Counter()
    for g in _kernel_corpus():
        seen["graphs"] += 1
        seen["chordal"] += check_chordality_kernels(g, rng)
        seen["disconnected"] += g.n > 0 and not check_diameter(g)
        seen["tiny"] += g.n <= 1
    assert seen["graphs"] == len(atlas_graphs(7)) + 2300
    assert min(seen["chordal"], seen["graphs"] - seen["chordal"]) > 500
    assert seen["disconnected"] > 500 and seen["tiny"] > 100


def test_kernels_on_e3_instances():
    # A sample of the exhaustive E3 corpus of criterion 4 (5,212 formulas):
    # the naive references take about 1 ms (LexBFS) and 40 ms (diameter) per
    # instance, too slow for all 15,636 instances.
    rng = random.Random(9)
    formulas = exhaustive_e3_formulas()
    for i, phi in enumerate(formulas[::20]):
        for k in (3, 4, 5):
            g = build_instance(phi, k).graph
            assert check_chordality_kernels(g, rng)
            if i % 10 == 0:
                assert check_diameter(g)


def test_kernels_on_long_path():
    # The recursive and quadratic versions of these kernels choked here.
    g = path_graph(1000)
    assert diameter(g) == 999
    assert lex_bfs(g) == list(range(1000))
    assert find_peo(g) == list(range(999, -1, -1))


# ---------------------------------------------------------------------------
# serialization

def test_graph_json_round_trip():
    g = build_graph(4, [(0, 1), (2, 3)], labels={0: "a"})
    data = graph_to_json(g)
    h = graph_from_json(json.loads(json.dumps(data)))
    assert h.n == g.n and h.edges == g.edges and h.labels == g.labels


def test_parse_edgelist():
    g = parse_edgelist("c comment\np edge 4 2\ne 1 2\ne 3 4\n")
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (2, 3)})


def test_parse_edgelist_errors():
    with pytest.raises(GraphError, match="header"):
        parse_edgelist("e 1 2\n")
    with pytest.raises(GraphError, match="unrecognized"):
        parse_edgelist("p edge 2 1\nx 1 2\n")
    for text, error in [
        ("p edge 3 1\ne 0 1\n", "edge endpoint out of range 1..3 at line 2: 'e 0 1'"),
        ("p edge 3 2\ne 1 2\ne 3 -1\n", "edge endpoint out of range 1..3 at line 3: 'e 3 -1'"),
        ("p edge 3 1\ne 1 x\n", "malformed edge at line 2: 'e 1 x'"),
        ("p edge 3 1\ne 2.0 1\n", "malformed edge at line 2: 'e 2.0 1'"),
        ("c\np edge x 1\n", "malformed header at line 2: 'p edge x 1'"),
    ]:
        with pytest.raises(GraphError) as exc:
            parse_edgelist(text)
        assert str(exc.value) == error


def test_parse_graph_dispatch():
    g = parse_graph('{"n": 2, "edges": [[0, 1]]}', "json")
    assert g.edges == frozenset({(0, 1)})
    with pytest.raises(GraphError, match="format"):
        parse_graph("", "yaml")


# ---------------------------------------------------------------------------
# timed paths read masks only


def test_timed_paths_never_build_lazy_forms(monkeypatch):
    # The oracle, decide2 with a passed decomposition, recognition, the
    # lower bound, validation, the reduction pipeline and serialization all
    # run on adjacency masks. Building `adj` or `edges` on one of these paths
    # would move construction cost back into every query. simulate's
    # parent-tree BFS and diameter's ball recurrence walk neighbour lists,
    # so they read adj and are left out.
    def lazy(self):
        raise AssertionError("a timed path built Graph.adj or Graph.edges")

    monkeypatch.setattr(Graph, "adj", property(lazy))
    monkeypatch.setattr(Graph, "edges", property(lazy))
    rng = random.Random(53)
    for gi in range(60):
        core = random_split_graph(rng.randint(3, 10), rng)
        g = build_graph(core.n + gi % 3, graph_to_json(core)["edges"])  # isolated
        dec = recognize_split(g)
        for _ in range(5):
            s, t = random_pair(g, rng, max_size=3)
            split2.decide2(g, s, t, dec)
    nonsplit = 0
    for g in random_graphs(40, 9, seed=57):
        try:
            recognize_split(g)
        except NotSplitError:
            nonsplit += 1
    assert nonsplit > 5
    searched = 0
    for g in random_graphs(60, 10, seed=59):
        s, t = random_pair(g, rng, max_size=3)
        for k in (1, 2, 3):
            comp = engine.reachable_configs(g, s, k)
            assert engine.decide(g, s, t, k) == (t in comp)
            seq = engine.shortest(g, s, t, k)
            if seq is None:
                continue
            if seq.moves:
                assert not engine.exists_within(g, s, t, k, len(seq) - 1)
            assert engine.lower_bound_moves(g, s, t, k) <= len(seq)
            assert engine.validate_sequence(g, seq, k)
            fresh = graph_from_json(graph_to_json(g))  # no cached balls
            assert engine.validate_sequence(fresh, seq, k)
            searched += 1
    assert searched > 100
    for phi in exhaustive_e3_formulas()[::900]:
        inst = build_instance(phi, 3)
        instance_to_json(inst)
        assert verify_peo(inst.graph, peo_order(inst))
        bound = engine.lower_bound_moves(inst.graph, inst.start, inst.target, inst.k)
        assert bound is not None
        bits = next(
            b for b in itertools.product((False, True), repeat=phi.num_vars)
            if phi.satisfies(b)
        )
        sequence_to_assignment(inst, assignment_to_sequence(inst, bits))
        assert find_peo(inst.graph) is not None
