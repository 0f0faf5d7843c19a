import itertools
import json
import random
import tracemalloc

import pytest

from kjump import engine
from kjump.engine import Move, MoveSequence, lower_bound_moves, validate_sequence
from kjump.graph import GraphError, diameter, dist, find_peo, verify_peo
from kjump.reduction import (
    CnfError,
    CnfFormula,
    assignment_to_sequence,
    build_instance,
    instance_from_json,
    instance_stats,
    instance_to_json,
    parse_e3cnf,
    peo_order,
    sequence_to_assignment,
)

PHI1 = CnfFormula(3, (((0, True), (1, True), (2, False)),))  # x0 v x1 v -x2


# ---------------------------------------------------------------------------
# parsing

def test_parse_basic():
    phi = parse_e3cnf("p cnf 3 1\n1 2 -3 0\n")
    assert phi.num_vars == 3
    assert phi.clauses == (((0, True), (1, True), (2, False)),)
    # a sign before the digits is part of the integer rule, as in MiniSat
    assert parse_e3cnf("p cnf +3 +1\n+1 2 -3 +0\n") == phi


def test_parse_rejects_short_clause():
    with pytest.raises(CnfError, match="2 literals"):
        parse_e3cnf("p cnf 3 1\n1 2 0\n")


def test_parse_empty_formula():
    phi = parse_e3cnf("p cnf 4 0\n")
    assert phi.num_vars == 4 and phi.clauses == ()
    assert phi.satisfies((False,) * 4)


def test_parse_errors():
    with pytest.raises(CnfError, match="header"):
        parse_e3cnf("1 2 3 0\n")
    with pytest.raises(CnfError, match="out of range"):
        parse_e3cnf("p cnf 2 1\n1 2 3 0\n")
    with pytest.raises(CnfError, match="unterminated"):
        parse_e3cnf("p cnf 3 1\n1 2 -3\n")
    with pytest.raises(CnfError, match="promises"):
        parse_e3cnf("p cnf 3 2\n1 2 3 0\n")


@pytest.mark.parametrize(
    "text, error",
    [
        ("p cnf x 1\n", "malformed header at line 1: 'p cnf x 1'"),
        ("p cnf 3 1.0\n", "malformed header at line 1: 'p cnf 3 1.0'"),
        ("p cnf 3 1\n1 2 y 0\n", "malformed literal at line 2: '1 2 y 0'"),
        ("c x\np cnf 3 1\n1 2 3.0 0\n", "malformed literal at line 3: '1 2 3.0 0'"),
        ("p cnf -2 0\n", "malformed header at line 1: 'p cnf -2 0'"),
        ("p cnf 3 1\n1 2 3 0\np cnf 1 1\n", "second header at line 3: 'p cnf 1 1'"),
        ("c x\n1 2 3 0\np cnf 3 1\n", "clause before 'p cnf' header at line 2: '1 2 3 0'"),
        # a clause is named by the line it starts on and its signed literals
        ("p cnf 3 1\n1 -2 0\n", "clause '1 -2' at line 2 has 2 literals, need 3"),
        ("p cnf 3 1\n1\n-2 0\n", "clause '1 -2' at line 2 has 2 literals, need 3"),
        ("p cnf 3 1\n1 2 3 0 0\n", "clause '' at line 2 has 0 literals, need 3"),
        ("c x\np cnf 3 1\n1 -2 3\n", "unterminated clause '1 -2 3' at line 3"),
        ("p cnf 3 1\n1 -2\n3\n", "unterminated clause '1 -2 3' at line 2"),
        ("p cnf 2 1\n1 -3 2 0\n", "variable 3 out of range 1..2 at line 2: '1 -3 2 0'"),
        ("p cnf 3 2\n1 2 3 0\n-1 -4 0\n", "variable 4 out of range 1..3 at line 3: '-1 -4 0'"),
        ("c only a comment\n", "missing 'p cnf' header"),
        ("p edge 3 1\n", "malformed header at line 1: 'p edge 3 1'"),
        ("p cnf 3\n", "malformed header at line 1: 'p cnf 3'"),
        # an integer is ASCII digits after an optional sign, which int()
        # alone does not check
        ("p cnf 1_0 1\n", "malformed header at line 1: 'p cnf 1_0 1'"),
        ("p cnf 3 \uff11\n", "malformed header at line 1: 'p cnf 3 \uff11'"),
        ("p cnf 3 1\n1_0 2 3 0\n", "malformed literal at line 2: '1_0 2 3 0'"),
        ("p cnf 3 1\n1 -\uff12 3 0\n", "malformed literal at line 2: '1 -\uff12 3 0'"),
    ],
)
def test_parse_names_line_of_bad_field(text, error):
    with pytest.raises(CnfError) as exc:
        parse_e3cnf(text)
    assert str(exc.value) == error


def test_formula_satisfies():
    assert PHI1.satisfies((True, False, False))
    assert not PHI1.satisfies((False, False, True))
    assert PHI1.violated_clause((False, False, True)) == 0


# ---------------------------------------------------------------------------
# construction

def test_vertex_count_k3():
    inst = build_instance(PHI1, 3)
    assert inst.graph.n == 1 * 9 + 3 * 5 == 24
    assert len(inst.start) == len(inst.target) == 1 + 2 * 3 == 7


def test_vertex_count_k4_single_var():
    phi = CnfFormula(1, (((0, True), (0, True), (0, True)),))
    inst = build_instance(phi, 4)
    assert inst.graph.n == 11 + 6 == 17


def test_vertex_count_empty_formula():
    inst = build_instance(CnfFormula(1, ()), 3)
    assert inst.graph.n == 5
    assert len(inst.start) == 2


def test_build_rejects_small_k():
    with pytest.raises(GraphError, match="k >= 3"):
        build_instance(PHI1, 2)


def test_k_vertices_form_clique():
    phi = CnfFormula(3, (
        ((0, True), (1, True), (2, False)),
        ((0, False), (1, True), (2, True)),
    ))
    inst = build_instance(phi, 3)
    kvs = [inst.kv(i, x) for i in range(2) for x in range(3)]
    for a, b in itertools.combinations(kvs, 2):
        assert inst.graph.has_edge(a, b)


def test_build_streams_its_edges():
    # m = n = 100 at k = 3: the 44,850 clique pairs stream into Graph, so the
    # build's peak stays within twice what the instance holds afterwards,
    # where a list of them peaks at about six times
    rng = random.Random(100)
    n = m = 100
    clauses = tuple(
        tuple((v, rng.random() < 0.5) for v in rng.sample(range(n), 3))
        for _ in range(m)
    )
    phi = CnfFormula(n, clauses)
    tracemalloc.start()
    try:
        inst = build_instance(phi, 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.graph.n == 1400
    assert peak <= 2 * held, (peak, held)


def test_start_and_target_sets():
    inst = build_instance(PHI1, 3)
    assert inst.start == frozenset(
        [inst.v(0, 0)] + [inst.s(i, x) for i in range(3) for x in (0, 1)]
    )
    assert inst.target == frozenset(
        [inst.v(0, 6)] + [inst.t(i, x) for i in range(3) for x in (0, 1)]
    )
    from kjump.graph import is_independent

    assert is_independent(inst.graph, inst.start)
    assert is_independent(inst.graph, inst.target)


def test_clause_path_distances():
    phi = CnfFormula(3, (
        ((0, True), (1, True), (2, False)),
        ((0, False), (1, True), (2, True)),
    ))
    for k in (3, 4):
        inst = build_instance(phi, k)
        g = inst.graph
        for i in range(2):
            for j in range(2):
                expect = 2 * k if i == j else 2 * k + 1
                assert dist(g, inst.v(i, 0), inst.v(j, 2 * k)) == expect
        assert diameter(g) <= 2 * k + 1


def test_cross_edges_follow_literal_polarity():
    inst = build_instance(PHI1, 3)
    g = inst.graph
    # clause (x0 v x1 v -x2): rho = (k_0, k_1, k_2)
    assert g.has_edge(inst.s(0, 0), inst.kv(0, 0))
    assert g.has_edge(inst.t(0, 0), inst.kv(0, 0))
    assert g.has_edge(inst.s(1, 0), inst.kv(0, 1))
    assert g.has_edge(inst.s(2, 1), inst.kv(0, 2))
    assert not g.has_edge(inst.s(0, 1), inst.kv(0, 0))
    assert not g.has_edge(inst.s(2, 0), inst.kv(0, 2))


# ---------------------------------------------------------------------------
# chordality

def test_peo_verifies():
    for k in (3, 4):
        inst = build_instance(PHI1, k)
        order = peo_order(inst)
        assert len(order) == inst.graph.n
        assert verify_peo(inst.graph, order)
        assert find_peo(inst.graph) is not None


def test_peo_first_phase_climbs_first_clause():
    phi = CnfFormula(1, (((0, True), (0, False), (0, True)),))
    inst = build_instance(phi, 3)
    order = peo_order(inst)
    assert order[:3] == [inst.v(0, 0), inst.v(0, 1), inst.v(0, 2)]


# ---------------------------------------------------------------------------
# witnesses

def test_assignment_sequence_frozen_example():
    inst = build_instance(PHI1, 3)
    seq = assignment_to_sequence(inst, (True, False, False))
    assert seq.moves == (
        Move(inst.s(0, 0), inst.t(0, 1)),
        Move(inst.s(1, 1), inst.t(1, 1)),
        Move(inst.s(2, 1), inst.t(2, 1)),
        Move(inst.v(0, 0), inst.kv(0, 0)),
        Move(inst.kv(0, 0), inst.v(0, 6)),
        Move(inst.s(0, 1), inst.t(0, 0)),
        Move(inst.s(1, 0), inst.t(1, 0)),
        Move(inst.s(2, 0), inst.t(2, 0)),
    )
    assert len(seq) == 2 * (1 + 3) == 8
    assert validate_sequence(inst.graph, seq, 3)
    assert seq.final() == inst.target


def test_witness_length_matches_lower_bound():
    inst = build_instance(PHI1, 3)
    assert lower_bound_moves(inst.graph, inst.start, inst.target, 3) == 8


def test_witness_picks_lowest_true_literal():
    inst = build_instance(PHI1, 3)
    # x1 true: second literal is the witness, gate k_1 = v_k
    seq = assignment_to_sequence(inst, (False, True, True))
    assert Move(inst.v(0, 0), inst.kv(0, 1)) in seq.moves


def test_empty_formula_witness():
    inst = build_instance(CnfFormula(1, ()), 3)
    seq = assignment_to_sequence(inst, (True,))
    assert len(seq) == 2
    assert validate_sequence(inst.graph, seq, 3)
    assert seq.final() == inst.target


def test_non_satisfying_assignment_rejected():
    inst = build_instance(PHI1, 3)
    with pytest.raises(CnfError, match="clause 0"):
        assignment_to_sequence(inst, (False, False, True))


# ---------------------------------------------------------------------------
# extraction

def test_round_trip_extraction():
    inst = build_instance(PHI1, 3)
    for bits in itertools.product((False, True), repeat=3):
        if not PHI1.satisfies(bits):
            continue
        seq = assignment_to_sequence(inst, bits)
        extracted = sequence_to_assignment(inst, seq)
        assert PHI1.satisfies(extracted), (bits, extracted)


def test_extraction_default_false():
    inst = build_instance(CnfFormula(1, ()), 3)
    seq = assignment_to_sequence(inst, (False,))
    assert sequence_to_assignment(inst, seq) == (False,)


def test_extraction_rejects_overlong_sequence():
    inst = build_instance(PHI1, 3)
    seq = assignment_to_sequence(inst, (True, False, False))
    padded = MoveSequence(seq.start, seq.moves + (Move(0, 0),) * 1, 3)
    with pytest.raises(GraphError, match="exceeds"):
        sequence_to_assignment(inst, padded)


def test_extraction_rejects_wrong_endpoints():
    inst = build_instance(PHI1, 3)
    seq = assignment_to_sequence(inst, (True, False, False))
    truncated = MoveSequence(seq.start, seq.moves[:-1], 3)
    with pytest.raises(GraphError, match="target"):
        sequence_to_assignment(inst, truncated)


def test_extraction_rejects_an_invalid_move():
    # the first move turned round starts from a vertex without a token
    inst = build_instance(PHI1, 3)
    seq = assignment_to_sequence(inst, (True, False, False))
    src, dst = seq.moves[0]
    bad = MoveSequence(seq.start, (Move(dst, src),) + seq.moves[1:], 3)
    with pytest.raises(GraphError, match="invalid sequence at step 0"):
        sequence_to_assignment(inst, bad)


def test_oracle_shortest_extracts_satisfying_assignment():
    phi = CnfFormula(2, (((0, True), (1, False), (0, True)),))
    inst = build_instance(phi, 3)
    seq = engine.shortest(inst.graph, inst.start, inst.target, 3)
    assert seq is not None
    assert len(seq) == 2 * (1 + 2) == 6
    extracted = sequence_to_assignment(inst, seq)
    assert phi.satisfies(extracted)


# ---------------------------------------------------------------------------
# stats and serialization

def test_instance_stats():
    st = instance_stats(build_instance(PHI1, 3))
    assert st.vertices == 24
    assert st.tokens == 7
    assert st.diameter == 7
    assert st.chordal
    assert st.lower_bound == 8


def test_stats_disconnected_diameter_none():
    phi = CnfFormula(2, (((0, True), (0, False), (0, True)),))  # x1 unused
    st = instance_stats(build_instance(phi, 3))
    assert st.diameter is None
    assert st.chordal


def test_stats_empty_instance_diameter_none():
    st = instance_stats(build_instance(parse_e3cnf("p cnf 0 0"), 3))
    assert (st.vertices, st.tokens, st.diameter, st.chordal) == (0, 0, None, True)


@pytest.mark.parametrize("key", ["graph", "start", "target", "k", "labelMap", "formula"])
def test_instance_from_json_names_a_missing_key(key):
    data = instance_to_json(build_instance(PHI1, 3))
    del data[key]
    with pytest.raises(GraphError) as exc:
        instance_from_json(data)
    assert str(exc.value) == f"reduction instance is missing key {key!r}"


def test_instance_json_round_trip():
    inst = build_instance(PHI1, 3)
    data = json.loads(json.dumps(instance_to_json(inst)))
    back = instance_from_json(data)
    assert back.graph.edges == inst.graph.edges
    assert back.start == inst.start
    assert back.target == inst.target
    assert back.label_map == inst.label_map
    assert back.formula == inst.formula
