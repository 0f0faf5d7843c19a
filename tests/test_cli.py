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
    code, out = run_json(
        capsys,
        ["recognize", write(tmp_path, "g.col", "p edge 3 2\ne 1 2\ne 2 3\n"),
         "--format", "edgelist"],
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
        ("p edge x 1\n", "malformed header at line 1: 'p edge x 1'"),
    ],
)
def test_recognize_edgelist_bad_field_is_exit_two(tmp_path, capsys, text, error):
    # a non-integer field or an endpoint outside 1..n is named by its line
    # and the file's own 1-based ids
    code = run(["recognize", write(tmp_path, "g.col", text), "--format", "edgelist"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
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
    # C4 on 1-2-3-4 with vertex 0 isolated
    g = build_graph(5, [(1, 2), (2, 3), (3, 4), (1, 4)])
    code = run(["decide2", instance_file(tmp_path, g, {1}, {2}, 2)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)["error"]
    match = re.fullmatch(r"not a split graph: induced (\w+) on \(([\d, ]+)\)", err)
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


def test_usage_and_input_errors(tmp_path, capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["decide", str(tmp_path / "missing.json")]) == 2
    bad = write(tmp_path, "bad.json", "{not json")
    assert run(["decide", bad]) == 2
    capsys.readouterr()


GOOD_GRAPH = {"n": 3, "edges": [[0, 1], [1, 2]]}
GOOD_INSTANCE = {"graph": GOOD_GRAPH, "start": [0], "target": [2], "k": 2}
GOOD_SEQUENCE = {"start": [0], "moves": [[0, 2]], "k": 2}


def _reduced_instance():
    phi = reduction.parse_e3cnf("p cnf 3 1\n1 2 -3 0\n")
    return reduction.instance_to_json(reduction.build_instance(phi, 3))


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
    ],
)
def test_bad_json_shape_is_exit_two(tmp_path, capsys, command, doc):
    if command == "verify-sequence":
        inst = write(tmp_path, "i.json", GOOD_INSTANCE)
        argv = ["verify", inst, write(tmp_path, "s.json", doc)]
    else:
        argv = [command, write(tmp_path, "i.json", doc)]
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert set(json.loads(err)) == {"error"}


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
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, *files, *extra])
    assert code in (0, 2, 3)
    for line in err.getvalue().splitlines():
        json.loads(line)
    if code == 0:
        json.loads(out.getvalue())
