import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import kjump

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(kjump.__file__))


# script -> (small arguments, a line fragment its output must contain)
RUNS = {
    "theorem1_sweep.py": (["--graphs", "40"], "no violations"),
    "reduction_table.py": (["--kmax", "4"], "satisfiable=yes"),
}


@pytest.mark.parametrize("script", RUNS)
def test_script_runs(script):
    # the scripts call the public API (theorem1_sweep calls simulate_move),
    # so a small run of each guards them against drift
    args, expect = RUNS[script]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


def test_dead_lines_reports_statements_that_never_ran():
    # one test of random_connected_graph's guard: the guard's raise ran and
    # is not listed; shortest, which that test never calls, is
    test = os.path.join(ROOT, "tests", "test_generators.py")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "dead_lines.py"),
         test, "-q", "-p", "no:cacheprovider", "-k", "needs_a_vertex"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].endswith("statements never ran; pytest exit status 0")
    dead = [line for line in lines if line.startswith("src/kjump/")]
    assert not [x for x in dead if 'raise ValueError("n must be positive")' in x]
    assert [x for x in dead if x.startswith("src/kjump/generators.py:")]
    assert [x for x in dead if "path = _cone_path(g, k, meet, fwd, bwd)" in x]


def _one_commit_repo(tmp_path, scripts):
    """A one-commit repository holding what a benchmark run needs, with the
    scripts inside it, so both sides of a run are clean clones of it."""
    repo = tmp_path / "repo"
    for part in ("src", "perfbench"):
        shutil.copytree(
            os.path.join(ROOT, part), repo / part,
            ignore=shutil.ignore_patterns("__pycache__", ".perfbench"),
        )
    (repo / "scripts").mkdir()
    for script in scripts:
        shutil.copy(os.path.join(ROOT, "scripts", script), repo / "scripts")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), repo)
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@localhost"]
    subprocess.run([*git, "init", "--quiet"], check=True)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "--quiet", "-m", "bench base"], check=True)
    return repo


def test_bench_pair_writes_bench_schema(tmp_path):
    repo = _one_commit_repo(tmp_path, ["bench_pair.py"])
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "bench_pair.py"), "HEAD",
         "--workloads", "split-stream", "--seeds", "1", "2", "1", "--seconds", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert list(doc) == ["what", "machine", "command", "parent", "change", "pairs"]
    assert doc["what"] == "bench base"
    assert doc["parent"]["commit"] == doc["change"]["commit"]
    assert doc["parent"]["src_lines"] == doc["change"]["src_lines"] > 0
    # seed 1 given twice: its second pair is keyed seed_1_2
    passes = {}
    for side in ("parent", "change"):
        runs = doc[side]["runs"]["split-stream"]
        assert list(runs) == ["seed_1", "seed_2", "seed_1_2"]
        for key, run in runs.items():
            assert run["report"]["environment"]["git_sha"] == doc[side]["commit"]
            assert run["report"]["environment"]["seed"] == int(key.split("_")[1])
            assert run["result"]["correct"] is True
            assert run["passes"] == len(run["report"]["pass_factors"]) >= 1
        passes[side] = sorted(run["passes"] for run in runs.values())[1]
    pair = doc["pairs"]["workloads"]["split-stream"]
    assert pair["seeds"] == [1, 2, 1]
    assert pair["first"] == ["parent", "change", "parent"]
    assert pair["failed"] == {"parent": 0, "change": 0}
    assert pair["fingerprints_equal"] is True
    assert pair["passes"] == passes
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert list(pair) == ["seeds", "first", "failed", "fingerprints_equal", "passes", "metrics"]
    assert list(pair["metrics"]) == names
    for m in pair["metrics"].values():
        assert set(m) == {"better", "parent", "change", "change_wins", "runs"}
        assert set(m["parent"]) == {"median", "q1", "q3"}
        assert len(m["runs"]["change"]) == 3 and m["change_wins"].endswith("/3")


def test_scale_ladder_quick_writes_its_schema(tmp_path):
    repo = _one_commit_repo(tmp_path, ["bench_pair.py", "scale_ladder.py"])
    out = tmp_path / "LADDER.json"
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "scale_ladder.py"), "HEAD",
         "--quick", "--pairs", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert list(doc) == ["what", "machine", "command", "parent", "change", "pairs", "cases"]
    assert doc["what"] == "bench base" and doc["pairs"] == 2
    assert doc["parent"] == doc["change"] and doc["parent"]["src_lines"] > 0
    assert list(doc["cases"]) == [
        "reduce_10", "stats_10",
        "simulate_path_free_200", "simulate_path_blocked_200",
        "simulate_ladder_free_200", "simulate_ladder_blocked_200",
        "parse_path_200", "dist_path_200", "bound_10", "reachable_path_12",
    ]
    for case in doc["cases"].values():
        assert list(case) == [
            "parent", "change", "wall_ratio", "exits_zero", "stdout_equal", "runs"
        ]
        assert case["exits_zero"] is True and case["stdout_equal"] is True
        for side in ("parent", "change"):
            assert set(case[side]) == {"wall_s", "cpu_s", "maxrss_mb"}
            assert len(case["runs"][side]) == 2
            for run in case["runs"][side]:
                assert set(run) == {"wall_s", "cpu_s", "maxrss_mb", "exit", "stdout_sha256"}
                assert run["wall_s"] > 0 and run["maxrss_mb"] > 0
    # each library case prints one known line; 120 = C(10, 3) independent
    # 3-sets of the 12-vertex path, 40 = 2(m + n) at m = n = 10
    for name, line in [("parse_path_200", "200 199"), ("dist_path_200", "199"),
                       ("bound_10", "40"), ("reachable_path_12", "120")]:
        digest = hashlib.sha256(f"{line}\n".encode()).hexdigest()
        assert doc["cases"][name]["runs"]["parent"][0]["stdout_sha256"] == digest
