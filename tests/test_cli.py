import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import kjump
from kjump import engine, reduction
from kjump.cli import run
from kjump.graph import build_graph, graph_to_json

from conftest import cycle_graph, path_graph, two_cluster_graph


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


def instance_file(tmp_path, g, s, t, k, name="inst.json"):
    return write(
        tmp_path,
        name,
        {"graph": graph_to_json(g), "start": sorted(s), "target": sorted(t), "k": k},
    )


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# ---------------------------------------------------------------------------

def test_recognize_split_graph(tmp_path, capsys):
    g = two_cluster_graph(2)
    code, out = run_json(capsys, ["recognize", write(tmp_path, "g.json", graph_to_json(g))])
    assert code == 0
    assert out["split"] is True
    assert out["cliquePart"] == [0, 1]
    assert len(out["clusters"]) == 2
    assert out["chordal"] is True


def test_recognize_non_split_reports_obstruction(tmp_path, capsys):
    code, out = run_json(
        capsys, ["recognize", write(tmp_path, "g.json", graph_to_json(cycle_graph(4)))]
    )
    assert code == 0
    assert out["split"] is False
    assert out["obstruction"]["kind"] == "C4"
    assert out["chordal"] is False


def test_recognize_edgelist_format(tmp_path, capsys):
    # a sign before the digits is part of the integer rule, as in MiniSat
    for text in ("p edge 3 2\ne 1 2\ne 2 3\n", "p edge +3 2\ne 1 +2\ne 2 3\n"):
        code, out = run_json(
            capsys,
            ["recognize", write(tmp_path, "g.col", text), "--format", "edgelist"],
        )
        assert code == 0
        assert out["n"] == 3 and out["split"] is True


def test_recognize_edgelist_short_edge_line(tmp_path):
    # an 'e' line with fewer than two endpoints is a usage error (exit 2 and
    # one JSON line on stderr), not a traceback
    src = os.path.dirname(os.path.dirname(kjump.__file__))
    for text, lineno in [("p edge 3 1\ne 1\n", 2), ("c x\np edge 3 1\ne\n", 3)]:
        proc = subprocess.run(
            [sys.executable, "-m", "kjump.cli", "recognize",
             write(tmp_path, "g.col", text), "--format", "edgelist"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"].startswith(f"malformed edge at line {lineno}:")


@pytest.mark.parametrize(
    "text, error",
    [
        ("p edge 3 1\ne 0 1\n", "edge endpoint out of range 1..3 at line 2: 'e 0 1'"),
        ("p edge 3 1\ne 1 4\n", "edge endpoint out of range 1..3 at line 2: 'e 1 4'"),
        ("c x\np edge 3 1\ne 1 x\n", "malformed edge at line 3: 'e 1 x'"),
        ("p edge 3 1\ne 1 2 junk\n", "malformed edge at line 2: 'e 1 2 junk'"),
        ("p edge x 1\n", "malformed header at line 1: 'p edge x 1'"),
        ("p edge 3 2\ne 1 1\n", "self-loop at line 2: 'e 1 1'"),
        ("p edge 3 2\ne 1 2\nc x\ne 2 1\n", "duplicate edge at line 4: 'e 2 1'"),
        ("p edge -1 0\n", "malformed header at line 1: 'p edge -1 0'"),
        # a later header with fewer vertices would put earlier edges out of range
        ("p edge 3 1\ne 3 1\np edge 2 0\n", "second header at line 3: 'p edge 2 0'"),
        ("p edge 3 x\ne 1 2\n", "malformed header at line 1: 'p edge 3 x'"),
        ("p edge 3 5\ne 1 2\n", "header promises 5 edges, found 1"),
        ("c x\ne 1 2\np edge 2 1\n", "edge line before 'p edge' header at line 2: 'e 1 2'"),
        ("c only a comment\n", "missing 'p edge' header"),
        ("p edge 1_0 1\n", "malformed header at line 1: 'p edge 1_0 1'"),
        ("p edge \uff13 1\n", "malformed header at line 1: 'p edge \uff13 1'"),
        ("p edge 3 1\ne 1_0 1\n", "malformed edge at line 2: 'e 1_0 1'"),
        ("p edge 3 1\ne 1 \uff12\n", "malformed edge at line 2: 'e 1 \uff12'"),
    ],
)
def test_recognize_edgelist_bad_field_is_exit_two(tmp_path, capsys, text, error):
    # a non-integer or stray field, an endpoint outside 1..n, a self-loop, a
    # repeated edge or an edge before the header is named by its line and the
    # file's own 1-based ids; an edge count unlike the header's, or no
    # header at all, is an error too
    code = run(["recognize", write(tmp_path, "g.col", text), "--format", "edgelist"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error}


@pytest.mark.parametrize(
    "text, error",
    [
        ("p cnf x 1\n", "malformed header at line 1: 'p cnf x 1'"),
        ("p cnf 3 1\n1 2 y 0\n", "malformed literal at line 2: '1 2 y 0'"),
        ("p cnf 3 1\n1 2 3.0 0\n", "malformed literal at line 2: '1 2 3.0 0'"),
        # a later header with fewer variables would put earlier clauses out of range
        ("p cnf 3 1\n1 2 3 0\np cnf 1 1\n", "second header at line 3: 'p cnf 1 1'"),
        ("c x\n1 2 3 0\np cnf 3 1\n", "clause before 'p cnf' header at line 2: '1 2 3 0'"),
        ("p cnf 3 1\n1 -2 0\n", "clause '1 -2' at line 2 has 2 literals, need 3"),
        ("p cnf 3 1\n1 -2 3\n", "unterminated clause '1 -2 3' at line 2"),
        ("p cnf 2 1\n1 -3 2 0\n", "variable 3 out of range 1..2 at line 2: '1 -3 2 0'"),
        ("c only a comment\n", "missing 'p cnf' header"),
        ("p cnf 3 1_0\n", "malformed header at line 1: 'p cnf 3 1_0'"),
        ("p cnf \uff13 1\n", "malformed header at line 1: 'p cnf \uff13 1'"),
        ("p cnf 3 1\n1 2 1_0 0\n", "malformed literal at line 2: '1 2 1_0 0'"),
        ("p cnf 3 1\n\uff11 2 3 0\n", "malformed literal at line 2: '\uff11 2 3 0'"),
    ],
)
def test_reduce_cnf_bad_field_is_exit_two(tmp_path, capsys, text, error):
    code = run(["reduce", write(tmp_path, "f.cnf", text), "--k", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error}


@pytest.mark.parametrize(
    "name, text, fmt",
    [
        ("g.json", json.dumps({"n": 2**62, "edges": []}), "json"),
        ("g.col", f"p edge {2**62} 0\n", "edgelist"),
    ],
)
def test_out_of_memory_is_exit_three(tmp_path, capsys, name, text, fmt):
    # CPython refuses a list of 2**62 vertex masks before it allocates any
    code = run(["recognize", write(tmp_path, name, text), "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "out of memory"}


@pytest.mark.parametrize("n", [2**63, 2**64])
@pytest.mark.parametrize("fmt", ["json", "edgelist"])
def test_vertex_count_past_index_range_is_exit_three(tmp_path, capsys, n, fmt):
    # CPython refuses a list of 2**63 or more vertex masks before it
    # allocates any, with an OverflowError in place of a MemoryError
    text = json.dumps({"n": n, "edges": []}) if fmt == "json" else f"p edge {n} 0\n"
    code = run(["recognize", write(tmp_path, "g.txt", text), "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    error = f"vertex count {n} is past the machine's index range"
    assert json.loads(err) == {"error": error}


def test_reduce_vertex_count_past_index_range_is_exit_three(tmp_path, capsys):
    # the masks are build_instance's first list as long as the vertex count,
    # so 2**63 variables at k = 3 are refused before anything else is built
    cnf = write(tmp_path, "big.cnf", f"p cnf {2**63} 1\n1 2 3 0\n")
    code = run(["reduce", cnf, "--k", "3"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    error = f"vertex count {9 + 5 * 2**63} is past the machine's index range"
    assert json.loads(err) == {"error": error}


def test_decide_and_shortest(tmp_path, capsys):
    g = path_graph(4)
    inst = instance_file(tmp_path, g, {0}, {3}, 2)
    code, out = run_json(capsys, ["decide", inst])
    assert code == 0 and out["reconfigurable"] is True
    code, out = run_json(capsys, ["shortest", inst])
    assert code == 0 and out["length"] == 2
    code, out = run_json(capsys, ["decide", inst, "--k", "1"])
    assert code == 0 and out["reconfigurable"] is True


@pytest.mark.parametrize("k", ["-1", "0"])
def test_decide_rejects_k_below_one(tmp_path, capsys, k):
    inst = instance_file(tmp_path, path_graph(4), {0}, {3}, 2)
    code = run(["decide", inst, "--k", k])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "at least 1" in json.loads(err)["error"]


def test_state_cap_is_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "decide", functools.partial(engine.decide, max_states=3))
    inst = instance_file(tmp_path, path_graph(9), {0, 2, 4}, {4, 6, 8}, 3)
    code = run(["decide", inst])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    message = json.loads(err)["error"]
    assert "cap of 3" in message and "3 states" in message


def test_shortest_unreachable_is_exit_zero(tmp_path, capsys):
    inst = instance_file(tmp_path, cycle_graph(4), {0, 2}, {1, 3}, 2)
    code, out = run_json(capsys, ["shortest", inst])
    assert code == 0
    assert out["reconfigurable"] is False
    assert out["sequence"] == "unreachable"


def test_decide2_regressions(tmp_path, capsys):
    yes = instance_file(tmp_path, two_cluster_graph(2), {2, 3}, {4, 5}, 2, "yes.json")
    code, out = run_json(capsys, ["decide2", yes])
    assert code == 0 and out["reconfigurable"] is True and out["trace"]
    no = instance_file(
        tmp_path, two_cluster_graph(3), {2, 3, 5}, {2, 5, 6}, 2, "no.json"
    )
    code, out = run_json(capsys, ["decide2", no])
    assert code == 0 and out["reconfigurable"] is False


def test_decide2_non_split_names_obstruction_in_input_ids(tmp_path, capsys):
    # C4 on 1-2-3-4 with vertex 0 isolated; a token on vertex 0 gets the
    # same error, not an isolated-vertex answer with exit 0
    g = build_graph(5, [(1, 2), (2, 3), (3, 4), (1, 4)])
    errors = []
    for s, t in (({1}, {2}), ({0}, {1}), ({2}, {1})):
        code = run(["decide2", instance_file(tmp_path, g, s, t, 2)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        errors.append(json.loads(captured.err)["error"])
    assert len(set(errors)) == 1
    match = re.fullmatch(r"not a split graph: induced (\w+) on \(([\d, ]+)\)", errors[0])
    kind, verts = match[1], [int(v) for v in match[2].split(",")]
    induced = [(a, b) for a, b in itertools.combinations(sorted(verts), 2) if g.has_edge(a, b)]
    assert (kind, len(set(verts)), len(induced)) == ("C4", 4, 4)


def test_decide2_requires_k2(tmp_path, capsys):
    inst = instance_file(tmp_path, two_cluster_graph(2), {2, 3}, {4, 5}, 3)
    code, _ = run_json(capsys, ["decide2", inst])
    assert code == 2


def test_simulate(tmp_path, capsys):
    g = path_graph(7)
    gfile = write(tmp_path, "g.json", graph_to_json(g))
    sfile = write(tmp_path, "s.json", {"start": [0], "moves": [[0, 6]], "k": 6})
    code, out = run_json(capsys, ["simulate", gfile, sfile, "--k", "3"])
    assert code == 0
    assert out["length"] == 3
    assert out["sequence"]["moves"] == [[0, 2], [2, 4], [4, 6]]


def test_reduce_witness_extract_verify_stats_pipeline(tmp_path, capsys):
    cnf = write(tmp_path, "phi.cnf", "p cnf 3 1\n1 2 -3 0\n")
    code, inst_json = run_json(capsys, ["reduce", cnf, "--k", "3"])
    assert code == 0
    assert inst_json["graph"]["n"] == 24
    inst_file = write(tmp_path, "inst.json", inst_json)

    code, out = run_json(capsys, ["stats", inst_file])
    assert code == 0
    assert out == {
        "vertices": 24, "tokens": 7, "diameter": 7, "chordal": True, "lowerBound": 8,
    }

    code, wit = run_json(capsys, ["witness", inst_file, "--assignment", "100"])
    assert code == 0 and wit["length"] == 8
    wit_file = write(tmp_path, "wit.json", wit["sequence"])

    code, out = run_json(capsys, ["verify", inst_file, wit_file])
    assert code == 0 and out["valid"] is True and out["reachesTarget"] is True

    code, out = run_json(capsys, ["extract", inst_file, wit_file])
    assert code == 0
    bits = out["assignment"]
    assert len(bits) == 3
    # extracted assignment satisfies (x0 v x1 v -x2)
    assert bits[0] == "1" or bits[1] == "1" or bits[2] == "0"


def test_witness_rejects_bad_bits(tmp_path, capsys):
    cnf = write(tmp_path, "phi.cnf", "p cnf 3 1\n1 2 -3 0\n")
    _, inst_json = run_json(capsys, ["reduce", cnf, "--k", "3"])
    inst_file = write(tmp_path, "inst.json", inst_json)
    code, _ = run_json(capsys, ["witness", inst_file, "--assignment", "1x0"])
    assert code == 2
    code, _ = run_json(capsys, ["witness", inst_file, "--assignment", "001"])
    assert code == 2  # does not satisfy the clause
    for bits in ("", "10", "1000"):  # one value per variable, no more, no less
        code = run(["witness", inst_file, "--assignment", bits])
        err = capsys.readouterr().err
        assert code == 2 and "length mismatch" in json.loads(err)["error"]


def test_verify_reports_offending_step(tmp_path, capsys):
    inst = instance_file(tmp_path, path_graph(4), {0}, {3}, 2)
    bad = write(tmp_path, "bad.json", {"start": [0], "moves": [[0, 3]], "k": 2})
    code, out = run_json(capsys, ["verify", inst, bad])
    assert code == 0
    assert out["valid"] is False
    assert out["step"] == 0
    assert "distance" in out["reason"]


@pytest.mark.parametrize("moves", [[], [[0, 2]]])
def test_verify_rejects_k_of_zero(tmp_path, capsys, moves):
    # as decide and shortest do, whether or not the sequence has a move
    inst = instance_file(tmp_path, path_graph(4), {0}, {2}, 0)
    sequence = write(tmp_path, "seq.json", {"start": [0], "moves": moves, "k": 0})
    assert run(["verify", inst, sequence]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "jump distance k must be at least 1, got 0"}


def test_deterministic_output(tmp_path, capsys):
    g = two_cluster_graph(2)
    gfile = write(tmp_path, "g.json", graph_to_json(g))
    run(["recognize", gfile])
    first = capsys.readouterr().out
    run(["recognize", gfile])
    second = capsys.readouterr().out
    assert first == second


def test_gen_is_seed_deterministic(capsys):
    run(["gen", "split", "--n", "8", "--seed", "5", "--with-pair"])
    first = capsys.readouterr().out
    run(["gen", "split", "--n", "8", "--seed", "5", "--with-pair"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["graph"]["n"] == 8
    assert "start" in payload and "k" in payload


@pytest.mark.parametrize("kind", ["split", "connected"])
@pytest.mark.parametrize("n", ["-1", "0"])
def test_gen_needs_a_vertex(capsys, kind, n):
    # a graph on no vertices is no instance to generate, split or not
    assert run(["gen", kind, "--n", n, "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": f"--n must be positive, got {n}"}


@pytest.mark.parametrize("k", ["-1", "0"])
def test_gen_with_pair_needs_k_of_at_least_one(capsys, k):
    # decide, shortest and every other reader refuse an instance at k < 1,
    # so gen writes none
    assert run(["gen", "split", "--n", "5", "--with-pair", "--k", k]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": f"jump distance k must be at least 1, got {k}"}


def test_usage_and_input_errors(tmp_path, capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["decide", str(tmp_path / "missing.json")]) == 2
    bad = write(tmp_path, "bad.json", "{not json")
    assert run(["decide", bad]) == 2
    capsys.readouterr()
    # argparse's choices turn away an unknown generator kind
    assert run(["gen", "bogus", "--n", "3"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


GOOD_GRAPH = {"n": 3, "edges": [[0, 1], [1, 2]]}
GOOD_INSTANCE = {"graph": GOOD_GRAPH, "start": [0], "target": [2], "k": 2}
GOOD_SEQUENCE = {"start": [0], "moves": [[0, 2]], "k": 2}


def _reduced_instance():
    phi = reduction.parse_e3cnf("p cnf 3 1\n1 2 -3 0\n")
    return reduction.instance_to_json(reduction.build_instance(phi, 3))


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


MISSING_KEY_CASES = [
    ("recognize", {"n": 3}),
    ("decide", _without(GOOD_INSTANCE, "start")),
    ("decide2", {**GOOD_INSTANCE, "graph": _without(GOOD_GRAPH, "n")}),
    ("verify-sequence", _without(GOOD_SEQUENCE, "start")),
    ("stats", _without(_reduced_instance(), "labelMap")),
    ("stats", {**_reduced_instance(), "formula": {"numVars": 3}}),
]


LABEL_KEY_CASES = [
    ("decide", {**GOOD_INSTANCE, "graph": {**GOOD_GRAPH, "labels": {"a": "x"}}}),
    ("recognize", {**GOOD_GRAPH, "labels": {"0": "x", "1.5": "y"}}),
    ("stats", {**_reduced_instance(), "labelMap": {"a": "v:0:0"}}),
    ("recognize", {**GOOD_GRAPH, "labels": {"1_0": "x"}}),
    ("recognize", {**GOOD_GRAPH, "labels": {" 1": "x"}}),
    ("decide2", {**GOOD_INSTANCE, "graph": {**GOOD_GRAPH, "labels": {"\uff13": "x"}}}),
    ("stats", {**_reduced_instance(), "labelMap": {"1_0": "v:0:0"}}),
    ("recognize", {**GOOD_GRAPH, "labels": {"1": "x", "01": "y", "+1": "z"}}),
]


@pytest.mark.parametrize(
    "command, doc",
    [
        ("decide", {**GOOD_INSTANCE, "start": ["a"]}),
        ("decide", [1, 2]),
        ("decide", {**GOOD_INSTANCE, "graph": [3]}),
        ("decide", {**GOOD_INSTANCE, "graph": {"n": "3", "edges": []}}),
        ("decide", {**GOOD_INSTANCE, "graph": {"n": 3, "edges": [0, 1]}}),
        ("decide", {**GOOD_INSTANCE, "graph": {"n": 3, "edges": [[0, 1.0]]}}),
        ("decide", {**GOOD_INSTANCE, "graph": {**GOOD_GRAPH, "labels": [1]}}),
        ("decide", {**GOOD_INSTANCE, "target": 2}),
        ("decide", {**GOOD_INSTANCE, "k": None}),
        ("verify-sequence", [1]),
        ("verify-sequence", {**GOOD_SEQUENCE, "moves": [5]}),
        ("verify-sequence", {**GOOD_SEQUENCE, "moves": [[0, 1, 2]]}),
        ("verify-sequence", {**GOOD_SEQUENCE, "start": [True]}),
        ("stats", "null"),
        ("stats", {**_reduced_instance(), "formula": {"numVars": 3, "clauses": [["x"]]}}),
        ("stats", {**_reduced_instance(), "formula": {"numVars": 3, "clauses": [[1, 2, 9]]}}),
        ("stats", {**_reduced_instance(), "labelMap": {"0": [1]}}),
        ("stats", {**_reduced_instance(), "start": {"0": 1}}),
        *MISSING_KEY_CASES,
        *LABEL_KEY_CASES,
    ],
)
def test_bad_json_shape_is_exit_two(tmp_path, capsys, command, doc):
    code, err = _run_on_doc(tmp_path, capsys, command, doc)
    assert code == 2
    assert set(err) == {"error"}
    assert not re.fullmatch(r"'\w+'", err["error"])  # a bare key names no document


def _run_on_doc(tmp_path, capsys, command, doc):
    """Exit code and stderr JSON of command on doc; nothing on stdout."""
    if command == "verify-sequence":
        inst = write(tmp_path, "i.json", GOOD_INSTANCE)
        argv = ["verify", inst, write(tmp_path, "s.json", doc)]
    else:
        argv = [command, write(tmp_path, "i.json", doc)]
    code = run(argv)
    out, err = capsys.readouterr()
    assert out == ""
    return code, json.loads(err)


@pytest.mark.parametrize(
    "case, error",
    [
        (MISSING_KEY_CASES[0], "graph is missing key 'edges'"),
        (MISSING_KEY_CASES[1], "instance is missing key 'start'"),
        (MISSING_KEY_CASES[2], "graph is missing key 'n'"),
        (MISSING_KEY_CASES[3], "sequence is missing key 'start'"),
        (MISSING_KEY_CASES[4], "reduction instance is missing key 'labelMap'"),
        (MISSING_KEY_CASES[5], "formula is missing key 'clauses'"),
    ],
)
def test_missing_json_key_names_document_and_key(tmp_path, capsys, case, error):
    assert _run_on_doc(tmp_path, capsys, *case) == (2, {"error": error})


@pytest.mark.parametrize(
    "case, error",
    [
        (LABEL_KEY_CASES[0], "labels key 'a' is not an integer vertex id"),
        (LABEL_KEY_CASES[1], "labels key '1.5' is not an integer vertex id"),
        (LABEL_KEY_CASES[2], "labelMap key 'a' is not an integer vertex id"),
        (LABEL_KEY_CASES[3], "labels key '1_0' is not an integer vertex id"),
        (LABEL_KEY_CASES[4], "labels key ' 1' is not an integer vertex id"),
        (LABEL_KEY_CASES[5], "labels key '\uff13' is not an integer vertex id"),
        (LABEL_KEY_CASES[6], "labelMap key '1_0' is not an integer vertex id"),
    ],
)
def test_non_integer_label_key_names_document_and_key(tmp_path, capsys, case, error):
    assert _run_on_doc(tmp_path, capsys, *case) == (2, {"error": error})


@pytest.mark.parametrize("key", ["-5", "99", "2", "24"])
def test_label_key_names_a_vertex(tmp_path, capsys, key):
    # keys are read by the integer rule of every other field and must name a
    # vertex: n = 2 for labels, 24 for the reduced instance's labelMap
    graph = {"n": 2, "edges": [[0, 1]], "labels": {key: "x"}}
    error = f"labels key {key!r} is out of range: the graph has 2 vertices"
    assert _run_on_doc(tmp_path, capsys, "recognize", graph) == (2, {"error": error})
    reduced = _reduced_instance()
    assert reduced["graph"]["n"] == 24
    if key != "2":
        reduced["labelMap"][key] = "v:0:0"
        error = f"labelMap key {key!r} is out of range: the graph has 24 vertices"
        assert _run_on_doc(tmp_path, capsys, "stats", reduced) == (2, {"error": error})


def test_label_keys_name_each_vertex_once(tmp_path, capsys):
    # "1", "01" and "+1" all name vertex 1; a second key for it is an error
    error = "labels key '01' names vertex 1 again"
    assert _run_on_doc(tmp_path, capsys, *LABEL_KEY_CASES[7]) == (2, {"error": error})
    reduced = _reduced_instance()
    reduced["labelMap"]["+3"] = "v:0:0"
    error = "labelMap key '+3' names vertex 3 again"
    assert _run_on_doc(tmp_path, capsys, "stats", reduced) == (2, {"error": error})


def test_label_key_takes_the_integer_field_rule():
    # "+1" names vertex 1, as "+3" reads as 3 in a DIMACS file
    doc = _reduced_instance()
    doc["labelMap"]["+1"] = doc["labelMap"].pop("1")
    inst = reduction.instance_from_json(json.loads(json.dumps(doc)))
    assert inst.label_map[1] == "v:0:1" and inst.v(0, 1) == 1


@pytest.mark.parametrize(
    "command, error",
    [
        ("decide I", "start names vertex 0 again"),
        ("shortest I", "start names vertex 0 again"),
        ("decide2 I", "start names vertex 0 again"),
        ("decide T", "target names vertex 3 again"),
        ("stats R", "start names vertex {} again"),
        ("verify G S", "start names vertex 0 again"),
        ("extract G S", "start names vertex 0 again"),
    ],
)
def test_vertex_lists_name_each_vertex_once(tmp_path, capsys, command, error):
    # a token list is a set: [0, 0, 2] is no start on three tokens nor on
    # two, and a reduction instance or a sequence reads it by the same rule
    path4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    reduced = _reduced_instance()
    first = reduced["start"][0]
    files = {
        "I": {"graph": path4, "start": [0, 0, 2], "target": [3, 1], "k": 2},
        "T": {"graph": path4, "start": [0, 2], "target": [3, 1, 3], "k": 2},
        "R": {**reduced, "start": [*reduced["start"], first]},
        "G": reduced if command.startswith("extract") else GOOD_INSTANCE,
        "S": {"start": [0, 2, 0], "moves": [], "k": 2},
    }
    name, *docs = command.split()
    code = run([name, *(write(tmp_path, f"{d}.json", files[d]) for d in docs)])
    out, err = capsys.readouterr()
    assert (code, out, json.loads(err)) == (2, "", {"error": error.format(first)})


@pytest.mark.parametrize(
    "formula, error",
    [
        ({"numVars": 3, "clauses": [[-1, -2]]}, "clause '-1 -2' has 2 literals, need 3"),
        (
            {"numVars": 3, "clauses": [[1, 2, 3], [1, 2, 3, 1]]},
            "clause '1 2 3 1' has 4 literals, need 3",
        ),
        ({"numVars": -2, "clauses": []}, "numVars must be nonnegative, got -2"),
    ],
)
@pytest.mark.parametrize("command", ["stats", "witness", "extract"])
def test_reduction_instance_keeps_e3_rule(tmp_path, capsys, formula, error, command):
    # the formula of a reduction instance is read by the clause rule of
    # parse_e3cnf: exactly three literals, over a nonnegative variable count
    inst = write(tmp_path, "i.json", {**_reduced_instance(), "formula": formula})
    argv = {
        "stats": ["stats", inst],
        "witness": ["witness", inst, "--assignment", "100"],
        "extract": ["extract", inst, write(tmp_path, "s.json", GOOD_SEQUENCE)],
    }[command]
    code = run(argv)
    out, err = capsys.readouterr()
    assert (code, out, json.loads(err)) == (2, "", {"error": error})


# every subcommand that reads JSON, with each of its JSON files in turn
# nested past the parser's recursion limit (D); G, I, S and R are valid
DEEP_JSON_ARGVS = [
    ["recognize", "D"],
    ["decide", "D"],
    ["shortest", "D"],
    ["decide2", "D"],
    ["simulate", "D", "S", "--k", "3"],
    ["simulate", "G", "D", "--k", "3"],
    ["witness", "D", "--assignment", "100"],
    ["extract", "D", "S"],
    ["extract", "R", "D"],
    ["verify", "D", "S"],
    ["verify", "I", "D"],
    ["stats", "D"],
]


@pytest.mark.parametrize("argv", DEEP_JSON_ARGVS, ids=" ".join)
def test_deeply_nested_json_is_exit_two(tmp_path, capsys, argv):
    files = {
        "D": write(tmp_path, "deep.json", "[" * 200_000 + "]" * 200_000),
        "G": write(tmp_path, "g.json", GOOD_GRAPH),
        "I": write(tmp_path, "i.json", GOOD_INSTANCE),
        "S": write(tmp_path, "s.json", GOOD_SEQUENCE),
        "R": write(tmp_path, "r.json", _reduced_instance()),
    }
    assert run([files.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "JSON input is nested too deeply"}


def test_missing_gadget_label_names_label_and_document(tmp_path, capsys):
    # the labelMap is read only when a gadget vertex is looked up by label
    doc = _reduced_instance()
    doc["labelMap"] = {
        v: lab for v, lab in doc["labelMap"].items() if not lab.startswith("s:0:")
    }
    inst = write(tmp_path, "i.json", doc)
    error = "reduction instance's labelMap has no vertex labelled 's:0:0'"
    for argv in (["witness", inst, "--assignment", "100"], ["stats", inst]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {"error": error}


@pytest.mark.parametrize(
    "edges, error",
    [
        (5, "edges must be a JSON list, got 5"),
        ([0, 1], "edges must hold pairs of integers, got 0"),
        ([[0, 1], [1]], "edges must hold pairs of integers, got [1]"),
        ([[0, 1.0]], "edges must hold pairs of integers, got [0, 1.0]"),
        ([[0, True]], "edges must hold pairs of integers, got [0, True]"),
        ([["0", 1]], "edges must hold pairs of integers, got ['0', 1]"),
        ([{"a": 0, "b": 1}], "edges must hold pairs of integers, got {'a': 0, 'b': 1}"),
        ([[0, 3]], "edge endpoint out of range: (0, 3)"),
    ],
)
def test_bad_edge_names_the_edge(tmp_path, capsys, edges, error):
    doc = {**GOOD_INSTANCE, "graph": {"n": 3, "edges": edges}}
    assert _run_on_doc(tmp_path, capsys, "decide", doc) == (2, {"error": error})


def test_simulate_dependent_start_is_exit_two(tmp_path, capsys):
    # a start set that is not independent fails before any step
    gfile = write(tmp_path, "g.json", graph_to_json(path_graph(3)))
    sfile = write(tmp_path, "s.json", {"start": [0, 1], "moves": [[1, 2]], "k": 2})
    code = run(["simulate", gfile, sfile, "--k", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "input sequence invalid: start set is not independent"
    }


def test_simulate_long_path_needs_no_recursion(tmp_path, capsys):
    # One jump across a 2,500-vertex path expands into about 1,250 moves.
    g = path_graph(2500)
    gfile = write(tmp_path, "g.json", graph_to_json(g))
    sfile = write(tmp_path, "s.json", {"start": [0], "moves": [[0, 2499]], "k": 2499})
    code, out = run_json(capsys, ["simulate", gfile, sfile, "--k", "3"])
    assert code == 0
    sim = engine.sequence_from_json(out["sequence"])
    assert engine.validate_sequence(g, sim, 3)
    assert sim.final() == {2499} and len(sim) == out["length"] == 1249


def test_package_loads_neither_numpy_nor_scipy():
    # the package has no runtime dependencies; scipy.optimize alone costs a
    # process about 0.6 s and 60 MB to load
    src = os.path.dirname(os.path.dirname(kjump.__file__))
    code = (
        "import sys, kjump, kjump.cli;"
        " print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps(graph_to_json(path_graph(3))))
    )
    code, out = run_json(capsys, ["recognize", "-"])
    assert code == 0 and out["n"] == 3


# ---------------------------------------------------------------------------
# golden output: sha256 prefixes of stdout pinned from a reference run, so the
# CLI's bytes cannot drift when the kernels underneath change

def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    assert code == 0, argv
    return buf.getvalue()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pipeline_digests(tmp_path, cnf, k, bits):
    """Digest of the stdout of each reduction-pipeline subcommand on one
    formula, run the way a script chains them: the instance, the graph and
    the witness go through files."""
    cnf_file = write(tmp_path, "phi.cnf", cnf)
    out = {"reduce": _stdout(["reduce", cnf_file, "--k", str(k)])}
    inst = write(tmp_path, "inst.json", out["reduce"])
    gfile = write(tmp_path, "graph.json", json.loads(out["reduce"])["graph"])
    out["stats"] = _stdout(["stats", inst])
    out["witness"] = _stdout(["witness", inst, "--assignment", bits])
    wit = write(tmp_path, "wit.json", json.loads(out["witness"])["sequence"])
    out["verify"] = _stdout(["verify", inst, wit])
    out["extract"] = _stdout(["extract", inst, wit])
    out["simulate"] = _stdout(["simulate", gfile, wit, "--k", "3"])
    return {cmd: _digest(text) for cmd, text in out.items()}


# (planted E3-CNF formula, k, planted assignment)
GOLDEN_FORMULAS = [
    ("p cnf 3 1\n-3 -1 -2 0\n", 3, "010"),
    ("p cnf 4 3\n-2 3 -4 0\n1 2 4 0\n-2 -1 -3 0\n", 4, "1000"),
    ("p cnf 6 4\n2 -1 3 0\n5 6 -4 0\n2 -5 1 0\n1 -3 -6 0\n", 5, "110110"),
    ("p cnf 8 5\n1 -6 3 0\n2 -7 5 0\n8 4 -1 0\n-6 3 -5 0\n7 4 6 0\n", 3, "10010000"),
    (
        "p cnf 10 7\n2 1 -9 0\n6 -8 -4 0\n3 -7 -5 0\n10 -4 -3 0\n6 7 1 0\n"
        "-8 1 -5 0\n-3 -9 -10 0\n",
        4,
        "1110000101",
    ),
    (
        "p cnf 12 9\n-10 -1 12 0\n8 5 2 0\n-6 -7 9 0\n4 -3 11 0\n4 2 9 0\n"
        "-1 -8 -12 0\n-3 5 -2 0\n10 1 -3 0\n-7 10 12 0\n",
        5,
        "010000110100",
    ),
]

GOLDEN_PIPELINE = [
    {
        "reduce": "7f803489107a8084",
        "stats": "2cd4dfa2c7610918",
        "witness": "b2154b866ba0f39d",
        "verify": "3393e03ee368cd85",
        "extract": "f27ce6377bec2bd5",
        "simulate": "9f246c8d99aa3bf5",
    },
    {
        "reduce": "24b99671fb2cc4b5",
        "stats": "1058134105663536",
        "witness": "4e6b9c295681a6fa",
        "verify": "433dc2d8f1a812f2",
        "extract": "44c03788af6f5763",
        "simulate": "966ff243dda988d9",
    },
    {
        "reduce": "f987a42b03220a63",
        "stats": "5803d7552d4a6a81",
        "witness": "9c6933a41cdc7f45",
        "verify": "3b0a8b47ee7e6266",
        "extract": "f66a630c32826646",
        "simulate": "aa01ca69a30224e6",
    },
    {
        "reduce": "e40ddb93fd680f24",
        "stats": "71cb746b9dbba27e",
        "witness": "b0d5d18053ba5dbf",
        "verify": "249cdf9276c44a70",
        "extract": "591ef8cbeb032e99",
        "simulate": "1a980d403f35f0dc",
    },
    {
        "reduce": "aeb6d930e1e12692",
        "stats": "4c7ce147fe10171a",
        "witness": "c921596b0717ee1b",
        "verify": "ae7ff708a582f4d0",
        "extract": "c08bb2678abce6d4",
        "simulate": "35d4922ed8d6fbe6",
    },
    {
        "reduce": "27360f8adc97f962",
        "stats": "e0e65fcf1763d653",
        "witness": "89fc565034c78b83",
        "verify": "be41f428858ef73e",
        "extract": "0ca39398615ceb1e",
        "simulate": "b225a3aa3707e893",
    },
]


def golden_graphs():
    """Chordal and non-chordal graphs for `kjump recognize`, which prints
    the PEO found by LexBFS."""
    return {
        "path6": path_graph(6),
        "c4": cycle_graph(4),
        "c5": cycle_graph(5),
        "two-cluster": two_cluster_graph(3),
        "fan": build_graph(
            6, [(0, i) for i in range(1, 6)] + [(i, i + 1) for i in range(1, 5)]
        ),
        "house": build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)]),
        "islands": build_graph(
            9, [(1, 4), (4, 7), (1, 7), (2, 5), (5, 8), (8, 2), (3, 6)]
        ),
        "reduction-k4": reduction.build_instance(
            reduction.parse_e3cnf(GOLDEN_FORMULAS[1][0]), 4
        ).graph,
    }


GOLDEN_RECOGNIZE = {
    "path6": "1819036f42586758",
    "c4": "d2d1996910284063",
    "c5": "cc147a6079705c5f",
    "two-cluster": "a1b98bc98b670cd3",
    "fan": "9d832f6a29bdac6e",
    "house": "8d1e7462bbcd9d7a",
    "islands": "f055a89400c193a6",
    "reduction-k4": "cf61e8c2f32c7810",
}

# `kjump gen` arguments (after "gen") and the digest of their stdout
GOLDEN_GEN = {
    "split --n 5 --seed 0": "358ebd8f6a6bec78",
    "split --n 5 --seed 0 --with-pair": "f7f72f1afb57d1a9",
    "split --n 12 --seed 7": "97b21259721d3642",
    "split --n 12 --seed 7 --with-pair": "8d8dd274a5d2ca74",
    "split --n 12 --seed 7 --with-pair --max-tokens 5 --k 3": "ab9259bbee2b5fad",
    "split --n 30 --seed 3": "b1ad29f3fc56ceba",
    "split --n 30 --seed 3 --with-pair": "78281a1a266ad84a",
    "connected --n 5 --seed 0": "7f2faa81643e2f7a",
    "connected --n 5 --seed 0 --with-pair": "78cba75b4f2b7ecc",
    "connected --n 12 --seed 7": "4e939c22254b61f4",
    "connected --n 12 --seed 7 --with-pair": "6580a95f731ba212",
    "connected --n 12 --seed 7 --with-pair --max-tokens 5 --k 3": "6c7ebaa59f739c73",
    "connected --n 30 --seed 3": "569cefdfa8e15c09",
    "connected --n 30 --seed 3 --with-pair": "0b66ef89bd65600b",
}


@pytest.mark.parametrize("idx", range(len(GOLDEN_FORMULAS)))
def test_golden_pipeline_output(tmp_path, idx):
    cnf, k, bits = GOLDEN_FORMULAS[idx]
    assert pipeline_digests(tmp_path, cnf, k, bits) == GOLDEN_PIPELINE[idx]


def test_golden_recognize_output(tmp_path):
    got = {
        name: _digest(_stdout(["recognize", write(tmp_path, "g.json", graph_to_json(g))]))
        for name, g in golden_graphs().items()
    }
    assert got == GOLDEN_RECOGNIZE


def test_golden_gen_output():
    got = {args: _digest(_stdout(["gen", *args.split()])) for args in GOLDEN_GEN}
    assert got == GOLDEN_GEN


def test_reduce_without_clauses(tmp_path):
    # the graph document repeats labelMap as its labels only when there are
    # labels: no gadget at all writes no labels key
    empty = _stdout(["reduce", write(tmp_path, "0.cnf", "p cnf 0 0\n"), "--k", "3"])
    assert empty == (
        '{"formula": {"clauses": [], "numVars": 0}, "graph": {"edges": [], "n": 0},'
        ' "k": 3, "labelMap": {}, "start": [], "target": []}\n'
    )
    out = _stdout(["reduce", write(tmp_path, "2.cnf", "p cnf 2 0\n"), "--k", "3"])
    doc = json.loads(out)
    assert len(doc["labelMap"]) == 10 and doc["graph"]["labels"] == doc["labelMap"]
    assert _digest(out) == "34d4d4df41d2aecc"


# ---------------------------------------------------------------------------
# fuzzed JSON input: any document in any file slot ends with exit 0, 2 or 3
# and JSON on stderr, never a traceback

_FUZZ_KEYS = (
    "n", "edges", "labels", "graph", "start", "target", "k", "moves",
    "labelMap", "formula", "numVars", "clauses", "0", "1",
)
# Small numbers keep every graph and state space small, so that no example
# builds a huge adjacency table or searches for long.
_fuzz_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=12)
    | st.floats(min_value=-3, max_value=12, allow_nan=False)
    | st.text(max_size=3)
)
_fuzz_json = st.recursive(
    _fuzz_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(_FUZZ_KEYS) | st.text(max_size=3), inner, max_size=4
    ),
    max_leaves=10,
)


@st.composite
def _mutated(draw, base):
    """base with one to three fields replaced by random JSON or deleted. Each
    edit walks down from the top, picking a key at every level, so a field
    deep in the document is as likely a target as a long list's items."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        parent = doc
        while True:
            keys = list(parent) if isinstance(parent, dict) else range(len(parent))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = parent[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                parent = child
                continue
            if draw(st.booleans()):
                parent[key] = draw(_fuzz_json)
            else:
                del parent[key]
            break
    return doc


def _fuzz_bases():
    reduced = _reduced_instance()
    phi = reduction.parse_e3cnf("p cnf 3 1\n1 2 -3 0\n")
    inst = reduction.build_instance(phi, 3)
    witness = engine.sequence_to_json(
        reduction.assignment_to_sequence(inst, (True, False, False))
    )
    return {
        "graph": GOOD_GRAPH,
        "instance": GOOD_INSTANCE,
        "sequence": GOOD_SEQUENCE,
        "reduced": reduced,
        "witness": witness,
    }


# (subcommand, its file slots as base documents, strategy for the other
# arguments); the fuzzed document goes into one slot, the others stay valid
_fuzz_k = st.integers(min_value=-1, max_value=5).map(lambda k: ["--k", str(k)])
_FUZZ_COMMANDS = [
    ("recognize", ["graph"], st.just([])),
    ("decide", ["instance"], st.just([])),
    ("shortest", ["instance"], st.just([])),
    ("decide2", ["instance"], st.just([])),
    ("simulate", ["graph", "sequence"], _fuzz_k),
    ("reduce", ["instance"], _fuzz_k),
    (
        "witness",
        ["reduced"],
        st.text("01", max_size=5).map(lambda bits: ["--assignment", bits]),
    ),
    ("extract", ["reduced", "witness"], st.just([])),
    ("verify", ["instance", "sequence"], st.just([])),
    ("stats", ["reduced"], st.just([])),
]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_json_input_exits_cleanly(data):
    command, slots, args = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    extra = data.draw(args)
    bases = _fuzz_bases()
    target = data.draw(st.integers(min_value=0, max_value=len(slots) - 1))
    docs = [bases[slot] for slot in slots]
    docs[target] = data.draw(_fuzz_json | _mutated(bases[slots[target]]))
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for i, doc in enumerate(docs):
            path = os.path.join(tmp, f"{i}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            files.append(path)
        _assert_exits_cleanly([command, *files, *extra])


def _assert_exits_cleanly(argv):
    """Run argv in-process: it exits 0, 2 or 3, every stderr line is JSON,
    and so is stdout after exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3)
    for line in err.getvalue().splitlines():
        json.loads(line)
    if code == 0:
        json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# fuzzed text input: edge lists and E3-CNF files with lines dropped,
# duplicated or swapped and tokens deleted, inserted or replaced end the
# same way

# A count of 2**63 or 2**64 exits 3 at once, in zero_masks, whether it is an
# edge list's vertex count or a CNF header's variable count. Only mid-size
# counts stay out: a header of 10**8 variables allocates a multi-GB mask list
# first. --k stays at 5 or below: a large k builds long paths, whose masks
# grow with the square of the path length.
_HUGE_COUNTS = (str(2**63), str(2**64))
_TEXT_TOKENS = (
    "0", "1", "3", "-1", "+3", "1_0", "\uff13", "x", "p", "e", "c", "%", "1000",
    *_HUGE_COUNTS,
)
_FUZZ_EDGELIST = "c the path of GOOD_GRAPH\np edge 3 2\ne 1 2\ne 2 3\n"
_FUZZ_CNF = "c planted: 100\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"


@st.composite
def _mutated_text(draw, base, tokens, counts=_HUGE_COUNTS):
    """base with one to three edits, each to a line: drop it, duplicate it,
    swap it with another, or delete, insert or replace one of its tokens,
    a new token coming from tokens; or set one count of the first 'p' line
    to one of counts. A deletion past the last token of its line deletes
    nothing, and a replacement there appends. Hypothesis draws few tokens
    per example, so without the header edit no example's header held a
    count of 2**63 or more."""
    lines = [line.split() for line in base.splitlines()]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not lines:
            break
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        edit = draw(st.sampled_from(
            ["drop", "dup", "swap", "delete", "insert", "replace", "header"]
        ))
        if edit == "header":
            header = next((line for line in lines if line[:1] == ["p"]), [])
            if len(header) > 2:
                j = draw(st.integers(min_value=2, max_value=len(header) - 1))
                header[j] = draw(st.sampled_from(counts))
        elif edit == "drop":
            del lines[i]
        elif edit == "dup":
            lines.insert(i, list(lines[i]))
        elif edit == "swap":
            j = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            line = lines[i]
            j = draw(st.integers(min_value=0, max_value=len(line)))
            if edit != "insert" and j < len(line):
                del line[j]
            if edit != "delete":
                line.insert(j, draw(st.sampled_from(tokens)))
    return "".join(" ".join(line) + "\n" for line in lines)


# (argv with T for the fuzzed text file and S for GOOD_SEQUENCE, the base
# text, its replacement tokens, strategy for the other arguments)
_TEXT_FUZZ_COMMANDS = [
    (["recognize", "T", "--format", "edgelist"], _FUZZ_EDGELIST, _TEXT_TOKENS, st.just([])),
    (["simulate", "T", "S", "--format", "edgelist"], _FUZZ_EDGELIST, _TEXT_TOKENS, _fuzz_k),
    # --k leans to the valid 3..5 at the head, so that a huge header count
    # reaches build_instance and exits 3
    (["reduce", "T"], _FUZZ_CNF, _TEXT_TOKENS,
     st.sampled_from((3, 4, 5, -1, 0, 1, 2)).map(lambda k: ["--k", str(k)])),
]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_text_input_exits_cleanly(data):
    argv, base, tokens, args = data.draw(st.sampled_from(_TEXT_FUZZ_COMMANDS))
    text = data.draw(_mutated_text(base, tokens))
    extra = data.draw(args)
    with tempfile.TemporaryDirectory() as tmp:
        files = {"T": os.path.join(tmp, "input.txt"), "S": os.path.join(tmp, "s.json")}
        with open(files["T"], "w") as fh:
            fh.write(text)
        with open(files["S"], "w") as fh:
            json.dump(GOOD_SEQUENCE, fh)
        _assert_exits_cleanly([files.get(a, a) for a in argv] + extra)
