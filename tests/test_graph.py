import collections
import gc
import itertools
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from kjump import engine, reduction, split2
from kjump.graph import (
    Graph,
    GraphError,
    NotSplitError,
    _degree_partition,
    _find_c5,
    _find_obstruction,
    _greedy_clique,
    ball_levels,
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
from kjump.simulate import simulate_move, simulate_sequence
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


def test_graph_rejects_negative_vertex_count():
    # one constructor: Graph itself checks n, and build_graph is Graph
    assert build_graph is Graph
    for n in (-1, -3):
        with pytest.raises(GraphError, match="vertex count must be nonnegative"):
            Graph(n, [])


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


def test_mask_graph_matches_list_graph(monkeypatch):
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
    # graphs on both sides of 64 vertices, where a mask stops being one
    # machine word; the dense one has rows on both sides of the _bits cut
    for n, p in [(n, 0.1) for n in range(60, 70)] + [(66, 0.9)]:
        pairs = [(v, u) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
        rng.shuffle(pairs)
        check_against_list_graph(build_graph(n, pairs), pairs)
        checked["large"] += 1
    given = []  # the edges build_instance passes to Graph, as a list

    def recording(n, edges):
        edges = list(edges)  # a stream, which Graph alone would use up
        given.append(edges)
        return Graph(n, edges)

    monkeypatch.setattr(reduction, "Graph", recording)
    for phi in exhaustive_e3_formulas()[::600]:
        for k in (3, 5):
            g = build_instance(phi, k).graph
            check_against_list_graph(g, given.pop())
            checked["reduction"] += 1
    assert checked == {
        "atlas": len(atlas_graphs(7)), "random": 2000, "large": 11, "reduction": 18
    }


def test_small_graph_holds_no_pair_objects():
    # a graph is its masks: at every n it holds on to none of the caller's
    # pair objects, and its edges are read back off the masks
    for n in (2, 64, 65, 500):
        pairs = [[v, v + 1] for v in range(n - 1)]  # lists, as JSON gives them
        g = build_graph(n, pairs)
        referrers = [r for p in pairs for r in gc.get_referrers(p) if r is not pairs]
        assert referrers == [], n
        assert [list(e) for e in sorted(g.edges)] == pairs


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


# (bad edge, the message naming it), n = 4; each case's edge list holds
# good edges before the bad one and a different bad edge after it
_BAD_EDGES = [
    ((0, 1, 2), "edges must hold pairs of integers, got {p!r}"),
    ((3,), "edges must hold pairs of integers, got {p!r}"),
    ((True, 1), "edges must hold pairs of integers, got {p!r}"),
    ((1, 2.0), "edges must hold pairs of integers, got {p!r}"),
    ((-1, 2), "edge endpoint out of range: (-1, 2)"),
    ((2, -1), "edge endpoint out of range: (2, -1)"),
    ((0, -9), "edge endpoint out of range: (0, -9)"),
    ((4, 0), "edge endpoint out of range: (4, 0)"),
    ((0, 4), "edge endpoint out of range: (0, 4)"),
    ((2**63, 1), f"edge endpoint out of range: ({2**63}, 1)"),
    ((1, 2**63), f"edge endpoint out of range: (1, {2**63})"),
    ((-2**63 - 1, 1), f"edge endpoint out of range: ({-2**63 - 1}, 1)"),
    ((3, 3), "self-loop: (3, 3)"),
    ((0, 1), "duplicate edge: (0, 1)"),
    ((1, 0), "duplicate edge: (1, 0)"),
]


@pytest.mark.parametrize("bad, message", _BAD_EDGES)
@pytest.mark.parametrize("form", ["list", "generator", "iterators"])
def test_each_bad_edge_kind_names_the_first_bad_edge(bad, message, form):
    # a list of pairs, a stream, and pairs that can be read only once: the
    # error names the first bad edge as the list-first constructor did
    pairs = [(0, 1), (1, 2), bad, (2, 2), (0, 5)]
    if form == "list":
        edges = pairs
    elif form == "generator":
        edges = (p for p in pairs)
    else:
        edges = [iter(p) for p in pairs]
    with pytest.raises(GraphError) as exc:
        Graph(4, edges)
    shown = edges[2] if form == "iterators" else bad
    assert str(exc.value) == message.format(p=shown)
    if type(bad[0]) is type(bad[-1]) is int and len(bad) == 2:
        assert _outcome(naive_graph_lists, 4, pairs) == str(exc.value)


def test_graph_m_counts_the_edges():
    pairs = [(0, 1), (2, 1), (3, 0), (1, 3)]
    for edges in (pairs, (p for p in pairs), [iter(p) for p in pairs], []):
        g = Graph(4, edges)
        assert g.m == len(g.edges) == (4 if edges else 0)
    assert Graph(0, []).m == 0


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


def test_diameter_empty_graph_raises():
    with pytest.raises(GraphError) as exc:
        diameter(build_graph(0, []))
    assert str(exc.value) == "diameter of empty graph"


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


def test_canonical_partition_leaves_no_bare_clique_vertex():
    # every clique vertex of the canonical partition sees the independent
    # part, so every cluster has an independent side and alpha(g) equals
    # |indep_part|, by brute force on the atlas and on random split graphs
    def alpha(adj, mask):
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        return max(alpha(adj, rest), 1 + alpha(adj, rest & ~adj[v]))

    rng = random.Random(17)
    graphs = list(split_graphs_upto(8))
    graphs += [random_split_graph(rng.randint(1, 14), rng) for _ in range(300)]
    for g in graphs:
        dec = recognize_split(g)
        imask = sum(1 << v for v in dec.indep_part)
        assert all(g.adj_mask[v] & imask for v in dec.clique_part), g.edges
        assert all(c.u_side for c in dec.clusters), g.edges
        assert alpha(g.adj_mask, (1 << g.n) - 1) == len(dec.indep_part), g.edges


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


def test_degree_partition_parts_are_clique_and_independent():
    # recognize_split relies on this without checking it: the degree test's
    # equality forces both parts, whatever the order of equal degrees
    def check(g):
        part = _degree_partition(g)
        if part is None:
            return 0
        kpart, ipart = part
        assert kpart | ipart == set(range(g.n)) and not kpart & ipart
        assert is_independent(g, ipart)
        for a, b in itertools.combinations(sorted(kpart), 2):
            assert g.has_edge(a, b)
        return 1

    atlas = sum(check(g) for g in atlas_graphs(7))
    rng = random.Random(157)
    drawn = 0
    for _ in range(3000):
        n = rng.randint(0, 12)
        p = rng.random()
        drawn += check(
            build_graph(
                n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            )
        )
        g = random_split_graph(n, rng, rng.random())
        ids = list(range(n))
        rng.shuffle(ids)
        drawn += check(build_graph(n, [(ids[u], ids[v]) for u, v in g.edges]))
    assert atlas == 257 and drawn >= 4500


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


def naive_ball_levels(g):
    """ball_levels' levels from one BFS per vertex: level d holds the mask
    of the vertices within distance d of each vertex, for d up to the
    largest eccentricity of a vertex in its component."""
    dists = []
    for u in range(g.n):
        seen = {u: 0}
        queue = collections.deque([u])
        while queue:
            x = queue.popleft()
            for w in g.adj[x]:
                if w not in seen:
                    seen[w] = seen[x] + 1
                    queue.append(w)
        dists.append(seen)
    top = max((max(d.values()) for d in dists), default=-1)
    return [
        [sum(1 << w for w, dw in d.items() if dw <= level) for d in dists]
        for level in range(top + 1)
    ]


def _ball_corpus():
    rng = random.Random(26)
    yield build_graph(0, [])
    yield build_graph(1, [])
    yield build_graph(3, [])
    # a clique beside a path and an isolated vertex
    yield build_graph(9, [*itertools.combinations(range(5), 2), (5, 6), (6, 7)])
    for _ in range(400):
        # random graphs with a planted clique, some disconnected, some with
        # isolated vertices
        n = rng.randint(2, 24)
        p = rng.choice((0.0, 0.05, 0.15, 0.4))
        edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < p}
        clique = sorted(rng.sample(range(n), rng.randint(2, n)))
        edges.update(itertools.combinations(clique, 2))
        yield build_graph(n, sorted(edges))
    for _ in range(150):
        yield random_split_graph(rng.randint(0, 20), rng)
    for phi in exhaustive_e3_formulas()[::400]:
        for k in (3, 4, 5):
            yield build_instance(phi, k).graph


def test_ball_levels_match_per_vertex_bfs():
    seen = collections.Counter()
    for g in _ball_corpus():
        levels = [list(balls) for balls in ball_levels(g)]
        assert levels == naive_ball_levels(g), g
        shared = len(_greedy_clique(g.adj_mask)) >= 3  # a union that saves ORs
        seen["shared" if shared else "alone"] += 1
        # diameter and diameter_and_bound read the same levels
        want = naive_diameter(g) if g.n else None
        assert engine.diameter_and_bound(g, set(), set(), 1) == (want, 0)
        if want is not None:
            assert diameter(g) == want == len(levels) - 1
        seen["disconnected"] += g.n > 1 and want is None
    assert min(seen.values()) >= 100, seen


def test_greedy_clique_on_reduction_graphs_is_the_k_vertices():
    # the clique that ball_levels shares is the one of the 3m k-vertices;
    # at m = 1, v_{k-1} sees all three of them, and the clique takes it too
    checked = 0
    for phi in exhaustive_e3_formulas()[::250]:
        m = len(phi.clauses)
        if m == 1:
            inst = build_instance(phi, 3)
            assert sorted(_greedy_clique(inst.graph.adj_mask)) == sorted(
                [inst.v(0, 2), *(inst.kv(0, x) for x in range(3))]
            )
            continue
        checked += 1
        for k in (3, 4, 5):
            inst = build_instance(phi, k)
            clique = _greedy_clique(inst.graph.adj_mask)
            kvs = {inst.kv(i, x) for i in range(m) for x in range(3)}
            assert len(clique) == 3 * m and set(clique) == kvs
    assert checked >= 15
    assert _greedy_clique(()) == []
    # degrees 1, 2, 2, 1: the first of the two highest, then its best neighbour
    assert _greedy_clique(path_graph(4).adj_mask) == [1, 2]


# ---------------------------------------------------------------------------
# serialization

def test_graph_json_round_trip():
    # a graph document is its n and edges; its labels are checked, not kept
    g = build_graph(4, [(0, 1), (2, 3)])
    data = graph_to_json(g)
    assert data == {"n": 4, "edges": [[0, 1], [2, 3]]}
    h = graph_from_json({**json.loads(json.dumps(data)), "labels": {"0": "a"}})
    assert h.n == g.n and h.edges == g.edges and graph_to_json(h) == data
    assert not hasattr(h, "labels")


def test_parse_edgelist():
    g = parse_edgelist("c comment\np edge 4 2\ne 1 2\ne 3 4\n")
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (2, 3)})
    # a sign before the digits is part of the integer rule, as in MiniSat
    assert parse_edgelist("p edge +4 +2\ne +1 2\ne 3 +4\n").edges == g.edges


def test_parse_edgelist_peak_is_its_edge_list():
    # the reduction of a random 60-variable, 60-clause formula as an edge
    # list (840 vertices, 17,310 edges): duplicates are found by mask bits,
    # so the parse peaks at about 1.7 times a list of its pairs, where a set
    # of the pairs beside the list peaked at 2.9 times
    rng = random.Random(100)
    clauses = tuple(
        tuple((v, rng.random() < 0.5) for v in rng.sample(range(60), 3))
        for _ in range(60)
    )
    g = build_instance(reduction.CnfFormula(60, clauses), 3).graph
    edges = sorted(g.edges)
    text = f"p edge {g.n} {g.m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)
    tracemalloc.start()
    try:
        # new int objects, as the parse makes them
        pairs = [(int(str(u)), int(str(v))) for u, v in edges]
        listed = tracemalloc.get_traced_memory()[0]
        del pairs
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = parse_edgelist(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert back.adj_mask == g.adj_mask
    assert peak <= 2.5 * listed, (peak, listed)


def test_parse_edgelist_holds_one_set_of_masks():
    # a 20,000-vertex path, whose masks take most of its memory: the parse
    # frees its own duplicate-test masks before Graph builds the graph's, so
    # it peaks at about 1.1 times what it holds, where two copies made 2.1
    n = 20_000
    text = f"p edge {n} {n - 1}\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, n))
    tracemalloc.start()
    try:
        g = parse_edgelist(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == n - 1
    assert peak <= 1.5 * held, (peak, held)


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
        ("p edge 3 1\ne 1 2 junk\n", "malformed edge at line 2: 'e 1 2 junk'"),
        ("c\np edge x 1\n", "malformed header at line 2: 'p edge x 1'"),
        ("p edge -1 0\n", "malformed header at line 1: 'p edge -1 0'"),
        ("p edge 3 1\ne 3 1\np edge 2 0\n", "second header at line 3: 'p edge 2 0'"),
        # the header's edge count is read and checked
        ("p edge 3 x\ne 1 2\n", "malformed header at line 1: 'p edge 3 x'"),
        ("p edge 3 -1\n", "malformed header at line 1: 'p edge 3 -1'"),
        ("p edge 3 1 1\ne 1 2\n", "malformed header at line 1: 'p edge 3 1 1'"),
        ("p edge 3 5\ne 1 2\n", "header promises 5 edges, found 1"),
        ("p edge 3 0\ne 1 2\n", "header promises 0 edges, found 1"),
        ("c x\ne 1 2\np edge 2 1\n", "edge line before 'p edge' header at line 2: 'e 1 2'"),
        ("c only a comment\n", "missing 'p edge' header"),
        ("p cnf 3 0\n", "malformed header at line 1: 'p cnf 3 0'"),
        # an integer is ASCII digits after an optional sign, which int()
        # alone does not check
        ("p edge 1_0 1\n", "malformed header at line 1: 'p edge 1_0 1'"),
        ("p edge \uff13 1\n", "malformed header at line 1: 'p edge \uff13 1'"),
        ("p edge 3 1\ne 1 1_0\n", "malformed edge at line 2: 'e 1 1_0'"),
        ("p edge 3 1\ne \uff11 2\n", "malformed edge at line 2: 'e \uff11 2'"),
        ("p edge 3 1\ne +-1 2\n", "malformed edge at line 2: 'e +-1 2'"),
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
    # lower bound, validation, the compiler, the reduction pipeline with its
    # stats and serialization all run on adjacency masks (the ball levels of
    # diameter and stats keep their own neighbour arrays). Building `adj` or
    # `edges` on one of these paths would move construction cost back into
    # every query.
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
    searched = compiled = 0
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
            if k == 3:  # TJ moves, so the compiler's BFS runs on the long ones
                tj = engine.shortest(g, s, t, g.n)
                out = simulate_sequence(g, tj, 3)
                assert out.final() == tj.final()
                compiled += len(out) > len(tj)
            assert engine.validate_sequence(g, seq, k)
            fresh = graph_from_json(graph_to_json(g))  # no cached balls
            assert engine.validate_sequence(fresh, seq, k)
            searched += 1
    assert searched > 100 and compiled > 0
    assert len(simulate_move(path_graph(40), {0, 20}, 0, 39, 3)) > 5
    for phi in exhaustive_e3_formulas()[::900]:
        inst = build_instance(phi, 3)
        instance_to_json(inst)
        assert verify_peo(inst.graph, peo_order(inst))
        bound = engine.lower_bound_moves(inst.graph, inst.start, inst.target, inst.k)
        assert bound is not None
        stats = reduction.instance_stats(inst)
        assert stats.lower_bound == bound and stats.diameter == diameter(inst.graph)
        bits = next(
            b for b in itertools.product((False, True), repeat=phi.num_vars)
            if phi.satisfies(b)
        )
        sequence_to_assignment(inst, assignment_to_sequence(inst, bits))
        assert find_peo(inst.graph) is not None
