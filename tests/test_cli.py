import functools
import itertools
import json
import re

import pytest

from kjump import engine
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


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps(graph_to_json(path_graph(3))))
    )
    code, out = run_json(capsys, ["recognize", "-"])
    assert code == 0 and out["n"] == 3
