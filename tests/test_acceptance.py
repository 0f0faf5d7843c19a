"""Acceptance suite: one test per criterion, each emitting a single
"CRITERION n: PASS" line (written outside capture so it lands in the run
log). Expected values come from independent machinery: naive BFS oracles,
scipy's C-level unweighted shortest paths, and brute-force enumeration.
"""

import itertools
import random
import time
from collections import defaultdict

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as _sp

from kjump import engine
from kjump.engine import (
    Move,
    MoveSequence,
    diameter_and_bound,
    exists_within,
    lower_bound_moves,
    reachable_configs,
    validate_sequence,
)
from kjump.generators import random_pair, random_split_graph
from kjump.graph import diameter, is_independent, recognize_split, verify_peo
from kjump.reduction import (
    CnfFormula,
    assignment_to_sequence,
    build_instance,
    peo_order,
    sequence_to_assignment,
)
from kjump.simulate import simulate_move, simulate_sequence
from kjump.split2 import decide2, distribution, is_frozen

from conftest import (
    atlas_graphs,
    exhaustive_e3_formulas,
    mask_successors,
    random_graphs,
    split_graphs_upto,
)


def _say(capsys, line):
    with capsys.disabled():
        print("\n" + line)


def _ind_masks_by_size(g, max_tokens):
    out = defaultdict(list)
    for r in range(1, max_tokens + 1):
        for c in itertools.combinations(range(g.n), r):
            if all(not g.adj_mask[a] >> b & 1 for a, b in itertools.combinations(c, 2)):
                out[r].append(sum(1 << v for v in c))
    return out


def _partition(g, masks, k):
    """Connected components of the k-Jump transition graph over `masks`."""
    idx = {m: i for i, m in enumerate(masks)}
    parent = list(range(len(masks)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in masks:
        for nxt in mask_successors(g, m, k):
            a, b = find(idx[m]), find(idx[nxt])
            if a != b:
                parent[b] = a
    groups = defaultdict(list)
    for m in masks:
        groups[find(idx[m])].append(m)
    return frozenset(frozenset(v) for v in groups.values())


def _scipy_all_pairs(g, indices=None):
    rows, cols = [], []
    for u, v in g.edges:
        rows += [u, v]
        cols += [v, u]
    mat = csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n)
    )
    return _sp(mat, method="D", unweighted=True, indices=indices)


@pytest.fixture(scope="module")
def c1_graphs():
    return list(atlas_graphs(7, connected_only=True)) + random_graphs(
        200, 9, seed=101
    )


@pytest.fixture(scope="module")
def split8():
    return split_graphs_upto(8)


@pytest.fixture(scope="module")
def e3_corpus():
    return list(exhaustive_e3_formulas())


def _satisfying(phi):
    return [
        bits
        for bits in itertools.product((False, True), repeat=phi.num_vars)
        if phi.satisfies(bits)
    ]


# ---------------------------------------------------------------------------

def test_criterion_1_theorem1_equivalence(capsys, c1_graphs):
    t0 = time.time()
    substantive = comparisons = 0
    for g in c1_graphs:
        d = diameter(g)
        if d <= 3:
            continue  # k ranges over 3..D; only k < D is informative
        by_size = _ind_masks_by_size(g, 3)
        for r, masks in by_size.items():
            ref = _partition(g, masks, d)
            for k in range(3, d):
                assert _partition(g, masks, k) == ref, (g.edges, r, k)
                comparisons += 1
        substantive += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 1 exceeded 5 minutes: {elapsed:.0f}s"
    _say(
        capsys,
        f"CRITERION 1 (Theorem 1: decide(k) = decide(D) for 3 <= k < D): PASS"
        f" - {len(c1_graphs)} connected graphs ({substantive} with D > 3),"
        f" {comparisons} partition comparisons, 100% agreement, {elapsed:.1f}s",
    )


def test_criterion_2_lemma8_compiler(capsys, c1_graphs):
    # Witnesses are read off TJ BFS trees. Expanding both directions of every
    # tree edge covers every reachable ordered pair: any pair's witness is the
    # splice (s -> root reversed) + (root -> t), simulate_move is
    # deterministic, and its final set equals the TJ move's final set, so the
    # spliced expansion is exactly the concatenation of per-edge expansions.
    # A random sample of full splices is compiled end to end as well.
    t0 = time.time()
    edges_expanded = pairs_covered = splices = 0
    rng = random.Random(4242)
    for g in c1_graphs:
        d = diameter(g)
        for masks in _ind_masks_by_size(g, 3).values():
            visited = set()
            for m0 in masks:
                if m0 in visited:
                    continue
                # parent map in BFS discovery order: parents precede children
                parents = engine._search(g, d, 10**7, m0)[1].seen
                visited |= parents.keys()
                pairs_covered += len(parents) * (len(parents) - 1)
                tree = {m0: ()}  # mask -> moves from root
                for child, par in parents.items():
                    if par is None:
                        continue
                    mv = engine._move(par, child)
                    tree[child] = tree[par] + (mv,)
                    pc = engine._from_mask(par)
                    cc = engine._from_mask(child)
                    out = simulate_move(g, pc, mv.src, mv.dst, 3)
                    assert validate_sequence(g, out, 3)
                    assert out.final() == cc
                    back = simulate_move(g, cc, mv.dst, mv.src, 3)
                    assert validate_sequence(g, back, 3)
                    assert back.final() == pc
                    edges_expanded += 2
                if len(parents) > 1 and splices < 300:
                    s_m, t_m = rng.sample(list(parents), 2)
                    back_moves = tuple(
                        Move(mv.dst, mv.src) for mv in reversed(tree[s_m])
                    )
                    seq = MoveSequence(
                        engine._from_mask(s_m), back_moves + tree[t_m], d
                    )
                    out = simulate_sequence(g, seq, 3)
                    assert out.final() == engine._from_mask(t_m)
                    assert validate_sequence(g, out, 3)
                    splices += 1
    elapsed = time.time() - t0
    _say(
        capsys,
        f"CRITERION 2 (Lemma 8 compiler at k=3): PASS - {pairs_covered} reachable"
        f" ordered pairs covered via {edges_expanded} expanded tree-edge moves"
        f" + {splices} full spliced witnesses, zero validation failures,"
        f" {elapsed:.1f}s",
    )


def test_criterion_3_split2_oracle_equivalence(capsys, split8):
    t0 = time.time()
    # (a) exhaustive: every non-isomorphic split graph with <= 8 vertices,
    # every same-size pair of independent sets
    exhaustive_pairs = 0
    for g in split8:
        dec = recognize_split(g)
        masks_all = defaultdict(list)
        masks_all[0] = [0]
        for r, ms in _ind_masks_by_size(g, g.n).items():
            masks_all[r] = ms
        for masks in masks_all.values():
            part = _partition(g, masks, 2)
            comp = {}
            for group in part:
                for m in group:
                    comp[m] = group
            for i in range(len(masks)):
                for j in range(i, len(masks)):
                    s = engine._from_mask(masks[i])
                    t = engine._from_mask(masks[j])
                    expect = comp[masks[i]] is comp[masks[j]]
                    got = decide2(g, s, t, dec=dec).reconfigurable
                    assert got == expect, (g.edges, s, t)
                    exhaustive_pairs += 1
    # (b) randomized: 10,000 split graphs with up to 14 vertices
    rng = random.Random(777)
    random_checked = 0
    for _ in range(10000):
        g = random_split_graph(rng.randint(2, 14), rng)
        s, t = random_pair(g, rng, max_size=4)
        if len(s) != len(t):
            continue
        expect = engine.decide(g, s, t, 2)
        got = decide2(g, s, t).reconfigurable
        assert got == expect, (g.edges, s, t)
        random_checked += 1
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 3 exceeded 10 minutes: {elapsed:.0f}s"
    _say(
        capsys,
        f"CRITERION 3 (Theorem 2: decide2 = oracle at k=2): PASS -"
        f" {len(split8)} non-isomorphic split graphs <= 8 vertices with"
        f" {exhaustive_pairs} pairs, plus {random_checked} random instances"
        f" <= 14 vertices, 100% agreement, {elapsed:.1f}s",
    )


def test_criterion_4_reduction_quantities(capsys, e3_corpus):
    t0 = time.time()
    instances = 0
    for phi in e3_corpus:
        m, n = len(phi.clauses), phi.num_vars
        bits = next(iter(_satisfying(phi)))
        for k in (3, 4, 5):
            inst = build_instance(phi, k)
            assert inst.graph.n == m * (2 * k + 3) + n * (k + 2)
            assert verify_peo(inst.graph, peo_order(inst))
            dists = _scipy_all_pairs(inst.graph)
            assert np.isfinite(dists).all(), "instance must be connected"
            assert dists.max() <= 2 * k + 1
            assert lower_bound_moves(inst.graph, inst.start, inst.target, k) \
                == 2 * (m + n)
            # `kjump stats` reads both from one run of ball levels
            assert diameter_and_bound(inst.graph, inst.start, inst.target, k) \
                == (int(dists.max()), 2 * (m + n))
            seq = assignment_to_sequence(inst, bits)
            assert len(seq) == 2 * (m + n)
            assert validate_sequence(inst.graph, seq, k)
            assert seq.final() == inst.target
            instances += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 4 exceeded 2 minutes: {elapsed:.0f}s"
    _say(
        capsys,
        f"CRITERION 4 (reduction quantities, k in 3..5): PASS -"
        f" {len(e3_corpus)} formulas / {instances} instances: vertex count,"
        f" PEO, diameter <= 2k+1, lower bound = witness length = 2(m+n),"
        f" {elapsed:.1f}s",
    )


def test_criterion_5_lemma17_round_trip(capsys, e3_corpus):
    t0 = time.time()
    round_trips = 0
    for phi in e3_corpus:
        m, n = len(phi.clauses), phi.num_vars
        sats = _satisfying(phi)
        ks = (3, 4, 5) if n == 3 else (3,)
        for k in ks:
            inst = build_instance(phi, k)
            for bits in sats:
                seq = assignment_to_sequence(inst, bits)
                assert len(seq) == 2 * (m + n)
                extracted = sequence_to_assignment(inst, seq)
                assert phi.satisfies(extracted), (phi, bits, extracted)
                round_trips += 1
    elapsed = time.time() - t0
    _say(
        capsys,
        f"CRITERION 5 (Lemma 17 round trip): PASS - {round_trips}"
        f" assignment -> witness -> assignment round trips, all satisfying,"
        f" {elapsed:.1f}s",
    )


def test_criterion_6_unsat_direction(capsys, e3_corpus):
    t0 = time.time()
    # (i) Lemma 15 distance facts on every generated instance. The sharp
    # s-to-v range {k+1, k+2} holds whenever the variable occurs in the
    # clause; for non-occurring variable/clause pairs only the proof-relevant
    # inequality >= k+1 holds (distance k+3 occurs, counted below).
    loose = 0
    for phi in e3_corpus:
        m, n = len(phi.clauses), phi.num_vars
        occurs = [
            {v for v, _ in clause} for clause in phi.clauses
        ]
        for k in (3, 4, 5):
            inst = build_instance(phi, k)
            sources = [inst.v(i, 0) for i in range(m)] + [
                inst.s(j, x) for j in range(n) for x in (0, 1)
            ]
            dists = _scipy_all_pairs(inst.graph, indices=sources)
            target = sorted(inst.target)
            ends = [inst.v(i, 2 * k) for i in range(m)]
            for i in range(m):
                row = dists[i]
                assert all(row[w] >= k + 1 for w in target)  # S1
                for j in range(m):
                    assert row[ends[j]] == (2 * k if i == j else 2 * k + 1)
            for jx in range(2 * n):
                j, x = divmod(jx, 2)
                row = dists[m + jx]
                for i in range(m):
                    d = row[ends[i]]
                    assert d >= k + 1  # S2, as the proof requires
                    if j in occurs[i]:
                        assert d in (k + 1, k + 2), (phi, k, j, x, i, d)
                    elif d not in (k + 1, k + 2):
                        loose += 1
    # (ii) bounded search refuses a structurally blocked frozen non-example:
    # x0 forced both true and false, so no sequence of length 2(m+n) exists
    # (the true optimum is one move longer).
    phi_u = CnfFormula(1, (
        ((0, True), (0, True), (0, True)),
        ((0, False), (0, False), (0, False)),
    ))
    assert not _satisfying(phi_u)
    inst = build_instance(phi_u, 3)
    budget = 2 * (2 + 1)
    assert lower_bound_moves(inst.graph, inst.start, inst.target, 3) == budget
    assert not exists_within(inst.graph, inst.start, inst.target, 3, budget)
    opt = engine.shortest(inst.graph, inst.start, inst.target, 3)
    assert opt is not None and len(opt) == budget + 1
    elapsed = time.time() - t0
    _say(
        capsys,
        f"CRITERION 6 (unsat direction substitutes): PASS - Lemma 15 distance"
        f" facts on all {3 * len(e3_corpus)} instances ({loose} non-occurring"
        f" pairs at distance k+3, sharp range asserted where the variable"
        f" occurs), frozen unsat non-example blocked at budget {budget}"
        f" (optimum {budget + 1}); module invariant suites run alongside,"
        f" {elapsed:.1f}s",
    )


def test_criterion_7_frozen_distribution_invariant(capsys, split8):
    t0 = time.time()
    rng = random.Random(555)
    graphs = list(split8) + [
        random_split_graph(rng.randint(9, 10), rng) for _ in range(300)
    ]
    frozen_checked = configs_verified = 0
    for g in graphs:
        if g.n > 10:
            continue
        dec = recognize_split(g)
        ub = sorted(dec.indep_part)
        for r in range(len(ub) + 1):
            for c in itertools.combinations(ub, r):
                d = distribution(dec, c)
                if not is_frozen(dec, d):
                    continue
                start = frozenset(c)
                for conf in reachable_configs(g, start, 2):
                    if conf & dec.clique_part:
                        continue
                    assert distribution(dec, conf) == d, (g.edges, start, conf)
                    configs_verified += 1
                frozen_checked += 1
    elapsed = time.time() - t0
    assert frozen_checked > 500  # the check must not be vacuous
    _say(
        capsys,
        f"CRITERION 7 (frozen distribution invariant): PASS -"
        f" {frozen_checked} frozen typical configurations on {len(graphs)}"
        f" split graphs <= 10 vertices, {configs_verified} reachable"
        f" configurations share the start distribution, {elapsed:.1f}s",
    )
