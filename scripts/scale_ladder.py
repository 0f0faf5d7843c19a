"""Time `kjump reduce`, `kjump stats` and `kjump simulate` at documented
scale on two commits.

    python scripts/scale_ladder.py PARENT [CHANGE] --out LADDER_27.json
    python scripts/scale_ladder.py HEAD --quick --out /tmp/ladder.json

Each side is a clean local clone of the repository at its commit (CHANGE
defaults to HEAD), made as `bench_pair.py` makes them. The reduction cases
are the planted E3-CNF formulas of `perfbench.workloads.planted_e3cnf`
(seed 1) at m = n = 300 and 1000, or at m = n = 10 with --quick, reduced at
k = 3. Per size and pair, each side runs `python -m kjump.cli reduce` on the
formula and then `kjump stats` on its own reduce output. The compiler cases
are graphs of 10,000, 20,000 and 40,000 vertices, or of 200 with --quick,
given as edge lists: the path, with one vertex per BFS level, and the
ladder of n / 2 rungs numbered by rungs (vertex 2c + r is row r of rung
c), whose levels from 0 hold two vertices. Per graph, size and pair, each
side runs `kjump simulate` at k = 3 on the one Token Jumping move
0 -> n - 1, once from {0} (free) and once with tokens on range(0, n - 3, 7)
(blocked). Every
command runs in a fresh child process; which side goes first alternates
from pair to pair. A run records its wall time, its process time (user +
system) and the child's `ru_maxrss`, read by `os.wait4` for that child
alone, with its exit code and the sha256 of its stdout. Per case the file
gives each side's medians and the change's wall-time ratio to the
parent's. The ladder sets no gate; it records numbers.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from bench_pair import ROOT, SIDES, _git, clone, machine, src_lines

SIZES = (300, 1000)
QUICK_SIZES = (10,)
JUMP_SIZES = (10_000, 20_000, 40_000)
QUICK_JUMP_SIZES = (200,)
K = 3


def formula(size):
    """The planted E3-CNF text with m = n = size, seed 1, from this
    checkout's perfbench, so that both sides reduce the same formula."""
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import planted_e3cnf

    return planted_e3cnf(size, size, random.Random(1))[0]


def graph_edges(graph, n):
    """The edges of the n-vertex path or rung-numbered ladder."""
    if graph == "path":
        return [(i, i + 1) for i in range(n - 1)]
    rungs = [(c, c + 1) for c in range(0, n, 2)]
    return rungs + [(x, x + 2) for x in range(n - 2)]


def jump_files(tmp, graph, n):
    """Write the n-vertex graph as an edge list and the two one-move
    sequences 0 -> n - 1, free and blocked; returns their paths."""
    edges = graph_edges(graph, n)
    path = os.path.join(tmp, f"{graph}_{n}.txt")
    with open(path, "w") as fh:
        fh.write(f"p edge {n} {len(edges)}\n")
        fh.writelines(f"e {x + 1} {y + 1}\n" for x, y in edges)
    seqs = {}
    for case, start in (("free", [0]), ("blocked", list(range(0, n - 3, 7)))):
        seqs[case] = os.path.join(tmp, f"{graph}_{case}_{n}.json")
        with open(seqs[case], "w") as fh:
            json.dump({"start": start, "moves": [[0, n - 1]], "k": n - 1}, fh)
    return path, seqs


def run_child(checkout, argv, out_path):
    """Run `python -m kjump.cli argv` in checkout with stdout to out_path;
    returns its wall and process seconds, peak RSS, exit code and stdout
    digest."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    with open(out_path, "wb") as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "kjump.cli", *argv],
            cwd=checkout, env=env, stdout=out, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
    with open(out_path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    return {
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),  # kB on Linux
        "exit": code,
        "stdout_sha256": digest,
    }


def _medians(runs):
    return {
        key: round(statistics.median(r[key] for r in runs), 3)
        for key in ("wall_s", "cpu_s", "maxrss_mb")
    }


def summarize(runs):
    """Per-side medians, the change's wall-time ratio, and whether every
    run exited 0 with the same stdout on both sides."""
    med = {side: _medians(runs[side]) for side in SIDES}
    digests = {r["stdout_sha256"] for side in SIDES for r in runs[side]}
    return {
        **med,
        "wall_ratio": round(med["change"]["wall_s"] / med["parent"]["wall_s"], 3),
        "exits_zero": all(r["exit"] == 0 for side in SIDES for r in runs[side]),
        "stdout_equal": len(digests) == 1,
        "runs": runs,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change", nargs="?", default="HEAD")
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--quick", action="store_true", help="m = n = 10 and n = 200 only")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else SIZES
    jump_sizes = QUICK_JUMP_SIZES if args.quick else JUMP_SIZES

    tmp = tempfile.mkdtemp(prefix="scale_ladder-")
    try:
        dirs = {side: os.path.join(tmp, side) for side in SIDES}
        commits = {side: clone(ROOT, getattr(args, side), dirs[side]) for side in SIDES}
        lines = {side: src_lines(dirs[side]) for side in SIDES}
        what = _git(ROOT, "log", "-1", "--format=%s", commits["change"])
        cases = {}
        for size in sizes:
            cnf = os.path.join(tmp, f"planted_{size}.cnf")
            with open(cnf, "w") as fh:
                fh.write(formula(size))
            runs = {f"{cmd}_{size}": {side: [] for side in SIDES} for cmd in ("reduce", "stats")}
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    print(f"m = n = {size} pair {i + 1}: {side}", file=sys.stderr, flush=True)
                    doc = os.path.join(tmp, f"{side}_{size}.json")
                    runs[f"reduce_{size}"][side].append(
                        run_child(dirs[side], ["reduce", cnf, "--k", str(K)], doc)
                    )
                    runs[f"stats_{size}"][side].append(
                        run_child(dirs[side], ["stats", doc], os.path.join(tmp, "stats.out"))
                    )
                    os.remove(doc)
            cases.update((name, summarize(r)) for name, r in runs.items())
        for graph, n in itertools.product(("path", "ladder"), jump_sizes):
            path, seqs = jump_files(tmp, graph, n)
            names = {case: f"simulate_{graph}_{case}_{n}" for case in seqs}
            runs = {name: {side: [] for side in SIDES} for name in names.values()}
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    print(f"{graph} n = {n} pair {i + 1}: {side}", file=sys.stderr, flush=True)
                    for case, seq in seqs.items():
                        argv = ["simulate", path, seq, "--k", str(K), "--format", "edgelist"]
                        runs[names[case]][side].append(
                            run_child(dirs[side], argv, os.path.join(tmp, "simulate.out"))
                        )
            cases.update((name, summarize(r)) for name, r in runs.items())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    doc = {
        "what": what,
        "machine": machine(),
        "command": (
            f"python -m kjump.cli reduce <planted m = n formula, seed 1> --k {K}, then"
            " kjump stats on that side's output; kjump simulate <n-vertex path or"
            " rung-numbered ladder edge list> <move 0 -> n - 1 from {0} or"
            f" range(0, n - 3, 7)> --k {K}"
            " --format edgelist; one child process per command, each side in its"
            " own clean clone, the side that runs first alternating from pair to pair"
        ),
        **{side: {"commit": commits[side], "src_lines": lines[side]} for side in SIDES},
        "pairs": args.pairs,
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name, case in cases.items():
        print(
            f"{name:<29} wall parent {case['parent']['wall_s']:>8.3f} s"
            f"  change {case['change']['wall_s']:>8.3f} s  ratio {case['wall_ratio']:.3f}"
            f"  maxrss {case['parent']['maxrss_mb']:.1f} -> {case['change']['maxrss_mb']:.1f} MB"
            f"  stdout_equal {case['stdout_equal']}"
        )


if __name__ == "__main__":
    main()
