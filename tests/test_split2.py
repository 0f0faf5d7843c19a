import itertools
import random

import pytest

from kjump import engine, split2
from kjump.graph import (
    Cluster,
    GraphError,
    NotSplitError,
    SplitDecomposition,
    build_graph,
    recognize_split,
)
from kjump.generators import random_independent_set, random_split_graph
from kjump.split2 import (
    ClusterKind,
    classify,
    condition,
    decide2,
    distribution,
    freeable_set,
    is_frozen,
    normalize_typical,
)

from conftest import independent_sets, naive_decide, path_graph, two_cluster_graph


@pytest.fixture(scope="module")
def two_per_side():
    g = two_cluster_graph(2)  # clique {0,1}; 0-2,3; 1-4,5
    return g, recognize_split(g)


@pytest.fixture(scope="module")
def three_per_side():
    g = two_cluster_graph(3)  # clique {0,1}; 0-2,3,4; 1-5,6,7
    return g, recognize_split(g)


# ---------------------------------------------------------------------------
# normalization

def test_normalize_identity_on_typical(two_per_side):
    g, dec = two_per_side
    assert normalize_typical(g, dec, {2, 4}) == frozenset({2, 4})


def test_normalize_moves_clique_token(two_per_side):
    g, dec = two_per_side
    out = normalize_typical(g, dec, {1, 2})
    assert out == frozenset({2, 3})  # lowest-id empty independent vertex
    assert engine.k_adjacent(g, {1, 2}, out, 2)


def test_normalize_signals_trivial_regime(two_per_side):
    g, dec = two_per_side
    with pytest.raises(GraphError, match="trivial-yes"):
        normalize_typical(g, dec, frozenset({0, 2, 3, 4, 5}))


# ---------------------------------------------------------------------------
# distribution / classification

def test_distribution_examples(two_per_side):
    g, dec = two_per_side
    assert distribution(dec, set()) == (0, 0)
    assert distribution(dec, {2, 4}) == (1, 1)
    assert distribution(dec, {2, 3}) in ((2, 0), (0, 2))
    with pytest.raises(GraphError, match="typical"):
        distribution(dec, {0})


def test_classify_examples(two_per_side):
    g, dec = two_per_side
    kinds = [c.kind for c in classify(dec, (1, 1))]
    assert kinds == [ClusterKind.PSEUDO_FREE, ClusterKind.PSEUDO_FREE]
    classes = classify(dec, (2, 0))
    assert classes[0].kind is ClusterKind.BOUND and classes[0].full
    assert classes[1].kind is ClusterKind.FREE and not classes[1].full


def test_pseudo_cluster_classified_free():
    # A pseudo-cluster (empty U side, |N|=0) always classifies as Free+full.
    from kjump.graph import _decompose

    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    dec = _decompose(g, frozenset({0, 1, 2}), frozenset({3, 4}))
    pseudo_idx = next(i for i, c in enumerate(dec.clusters) if not c.u_side)
    classes = classify(dec, distribution(dec, {3, 4}))
    assert classes[pseudo_idx].kind is ClusterKind.FREE
    assert classes[pseudo_idx].full


# ---------------------------------------------------------------------------
# frozen detection

def test_frozen_all_bound(two_per_side):
    g, dec = two_per_side
    assert is_frozen(dec, (2, 2))  # every vertex taken: both Bound and full


def test_frozen_c2(three_per_side):
    g, dec = three_per_side
    # one Pseudo-free cluster, the other full, no Free cluster
    assert is_frozen(dec, (1, 3))


def test_not_frozen_with_receiving_slot(two_per_side):
    g, dec = two_per_side
    assert not is_frozen(dec, (1, 1))


def test_frozen_confirmed_by_oracle(three_per_side):
    g, dec = three_per_side
    start = frozenset({2, 5, 6, 7})  # distribution (1, 3)
    assert distribution(dec, start) in ((1, 3), (3, 1))
    for conf in engine.reachable_configs(g, start, 2):
        if not (conf & dec.clique_part):
            assert distribution(dec, conf) == distribution(dec, start)


# ---------------------------------------------------------------------------
# freeing and the counting condition

def test_freeable_contains_free_clusters(two_per_side):
    g, dec = two_per_side
    assert 1 in freeable_set(dec, (2, 0)) or 0 in freeable_set(dec, (2, 0))
    free = freeable_set(dec, (2, 0))
    classes = classify(dec, (2, 0))
    for i, cls in enumerate(classes):
        if cls.kind is ClusterKind.FREE:
            assert i in free


def test_freeable_pseudo_free_with_slot(two_per_side):
    g, dec = two_per_side
    # both clusters Pseudo-free, both have an empty slot on the other side
    assert freeable_set(dec, (1, 1)) == {0, 1}


def test_freeable_rejects_frozen(two_per_side):
    g, dec = two_per_side
    with pytest.raises(GraphError, match="frozen"):
        freeable_set(dec, (2, 2))


def test_freeable_matches_distribution_level_reclassification():
    rng = random.Random(19)
    for _ in range(200):
        g = random_split_graph(rng.randint(2, 8), rng)
        dec = recognize_split(g)
        caps = [len(c.u_side) for c in dec.clusters]
        d = tuple(rng.randint(0, cap) for cap in caps)
        if is_frozen(dec, d):
            continue
        got = freeable_set(dec, d)
        expect = set()
        for i, cls in enumerate(classify(dec, d)):
            if cls.kind is ClusterKind.FREE:
                expect.add(i)
            elif cls.kind is ClusterKind.PSEUDO_FREE:
                for j in range(len(d)):
                    if j != i and d[j] < caps[j]:
                        moved = list(d)
                        moved[i] -= 1
                        moved[j] += 1
                        if classify(dec, tuple(moved))[i].kind is ClusterKind.FREE:
                            expect.add(i)
                            break
        assert got == expect, (g.edges, d)


def test_condition_arithmetic(two_per_side, three_per_side):
    _, dec2 = two_per_side
    _, dec3 = three_per_side
    # |U^B|=4, |N_i|=|N_0|=2, size 2: kappa=2 gives 4 >= 4
    assert condition(dec2, 2, 0) and condition(dec2, 2, 1)
    # |U^B|=6, |N_i|=|N_0|=3, size 3: best kappa=2 needs 6 >= 7
    assert not condition(dec3, 3, 0) and not condition(dec3, 3, 1)


def test_condition_two_case_form():
    # For |N_i| >= 1 the kappa form of the counting condition equals the
    # two-case statement: kappa = 1 when |N_i| = 1, kappa = 2 when larger.
    def dec_with(ub, n0, ni):
        def cluster(k):
            return Cluster(frozenset(), frozenset(), None, frozenset(range(k)))

        return SplitDecomposition(
            frozenset(), frozenset(range(ub)), (cluster(n0), cluster(ni))
        )

    checked = 0
    for ni, n0, ub, size in itertools.product(range(1, 9), range(9), range(9), range(9)):
        two_case = (ni == 1 and ub >= size + ni + n0 - 1) or (
            ni > 1 and ub >= size + ni + n0 - 2
        )
        assert condition(dec_with(ub, n0, ni), size, 1) == two_case, (ni, n0, ub, size)
        checked += two_case
    assert checked > 100


def test_condition_zero_neighborhood():
    # |N_i| = 0 reduces the condition to |U^B| >= size, true for typical sets
    from kjump.graph import _decompose

    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    dec = _decompose(g, frozenset({0, 1, 2}), frozenset({3, 4}))
    i = next(i for i, c in enumerate(dec.clusters) if c.n_size == 0)
    for size in range(len(dec.indep_part) + 1):
        assert condition(dec, size, i)


# ---------------------------------------------------------------------------
# decide2

def test_two_per_side_yes(two_per_side):
    g, _ = two_per_side
    res = decide2(g, {2, 3}, {4, 5})
    assert res.reconfigurable
    assert res.trace
    assert engine.decide(g, {2, 3}, {4, 5}, 2)


def test_three_per_side_no(three_per_side):
    g, _ = three_per_side
    res = decide2(g, {2, 3, 5}, {2, 5, 6})
    assert not res.reconfigurable
    assert not engine.decide(g, {2, 3, 5}, {2, 5, 6}, 2)


def test_decide2_reflexive(two_per_side):
    g, _ = two_per_side
    assert decide2(g, {2, 4}, {2, 4}).reconfigurable


def test_decide2_clique_token_normalized():
    # a token sitting on the clique is relocated before classification
    g = build_graph(2, [(0, 1)])
    assert decide2(g, {0}, {1}).reconfigurable
    assert engine.decide(g, {0}, {1}, 2)


def test_decide2_errors(two_per_side):
    g, _ = two_per_side
    with pytest.raises(GraphError, match="size mismatch"):
        decide2(g, {2}, {4, 5})
    with pytest.raises(GraphError, match="independent"):
        decide2(g, {0, 2}, {4, 5})
    with pytest.raises(NotSplitError):
        decide2(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), {0, 2}, {1, 3})


def test_decide2_isolated_vertices(monkeypatch):
    # isolated vertex 3: tokens there can never move
    g = build_graph(4, [(0, 1), (0, 2)])
    assert not decide2(g, {3}, {1}).reconfigurable
    assert decide2(g, {3}, {3}).reconfigurable
    assert decide2(g, {1, 3}, {2, 3}).reconfigurable
    assert "isolated" in " ".join(decide2(g, {3}, {1}).trace)

    # Isolated vertices placed among the ids: a passed decomposition is used
    # as is, and gives the answer and trace of a fresh recognition.
    rng = random.Random(53)
    cases = []
    cores = [random_split_graph(rng.randint(2, 7), rng) for _ in range(80)]
    cores += [two_cluster_graph(per_side) for per_side in (2, 2, 3, 3) * 5]
    for core in cores:
        n = core.n + rng.randint(1, 2)
        ids = rng.sample(range(n), core.n)  # the ids left over are isolated
        g = build_graph(n, [(ids[u], ids[v]) for u, v in core.edges])
        dec = recognize_split(g)
        iso = {v for v in range(g.n) if not g.adj[v]}
        sets = independent_sets(g)
        for s in rng.sample(sets, min(4, len(sets))):
            pool = [t for t in sets if len(t) == len(s)]
            if rng.random() < 0.8:
                pool = [t for t in pool if t & iso == s & iso]
            cases.append((g, dec, s, rng.choice(pool)))

    calls = []
    real = split2.recognize_split
    monkeypatch.setattr(
        split2, "recognize_split", lambda g: calls.append(g) or real(g)
    )
    with_dec = [decide2(g, s, t, dec) for g, dec, s, t in cases]
    assert calls == []
    monkeypatch.undo()

    reasons = set()
    for (g, _, s, t), res in zip(cases, with_dec):
        plain = decide2(g, s, t)
        assert (res.reconfigurable, res.trace) == (plain.reconfigurable, plain.trace)
        assert res.reconfigurable == naive_decide(g, s, t, 2), (g.edges, s, t)
        reasons.add(res.trace[-1].split()[0])
    assert {"isolated-vertex", "empty", "frozen", "common", "counting"} <= reasons


def test_decide2_obstruction_names_vertices_of_g():
    # C4 on 1-2-3-4 with vertex 0 isolated: the witness is in g's numbering
    g = build_graph(5, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(NotSplitError) as ei:
        decide2(g, {1}, {2})
    kind, verts = ei.value.witness
    induced = [
        (a, b) for a, b in itertools.combinations(sorted(verts), 2) if g.has_edge(a, b)
    ]
    assert (kind, len(set(verts)), len(induced)) == ("C4", 4, 4)
    assert f"induced C4 on {tuple(verts)}" in str(ei.value)


def test_decide2_symmetry():
    rng = random.Random(29)
    for _ in range(150):
        g = random_split_graph(rng.randint(1, 9), rng)
        size = rng.randint(0, max(1, g.n // 2))
        s = random_independent_set(g, size, rng)
        t = random_independent_set(g, size, rng)
        if s is None or t is None:
            continue
        assert decide2(g, s, t).reconfigurable == decide2(g, t, s).reconfigurable


def test_decide2_accepts_precomputed_decomposition(two_per_side):
    g, dec = two_per_side
    assert decide2(g, {2, 3}, {4, 5}, dec=dec).reconfigurable
    assert not decide2(
        two_cluster_graph(3), {2, 3, 5}, {2, 5, 6},
        dec=recognize_split(two_cluster_graph(3)),
    ).reconfigurable


def test_blocking_lemma():
    # For a typical set, every clique vertex of a Pseudo-free or Bound
    # cluster is blocked (has a token in its neighborhood).
    rng = random.Random(37)
    checked = 0
    for _ in range(300):
        g = random_split_graph(rng.randint(2, 9), rng)
        dec = recognize_split(g)
        size = rng.randint(0, len(dec.indep_part))
        toks = rng.sample(sorted(dec.indep_part), size)
        d = distribution(dec, toks)
        for cls, cluster in zip(classify(dec, d), dec.clusters):
            if cls.kind is ClusterKind.FREE:
                continue
            for v in cluster.v_side:
                assert any(w in set(toks) for w in g.adj[v]), (g.edges, toks)
                checked += 1
    assert checked > 100


def test_same_distribution_reachability():
    # typical sets with equal distributions are mutually reachable at k=2
    rng = random.Random(41)
    for _ in range(120):
        g = random_split_graph(rng.randint(2, 8), rng)
        dec = recognize_split(g)
        ub = sorted(dec.indep_part)
        if len(ub) < 2:
            continue
        size = rng.randint(1, len(ub))
        a = frozenset(rng.sample(ub, size))
        b = frozenset(rng.sample(ub, size))
        if distribution(dec, a) == distribution(dec, b):
            assert engine.decide(g, a, b, 2), (g.edges, a, b)


def test_differential_against_oracle_quick():
    rng = random.Random(47)
    for _ in range(250):
        g = random_split_graph(rng.randint(1, 8), rng)
        sets = independent_sets(g)
        s, t = rng.choice(sets), rng.choice(sets)
        if len(s) != len(t):
            continue
        assert decide2(g, s, t).reconfigurable == naive_decide(g, s, t, 2), (
            g.edges, s, t,
        )
