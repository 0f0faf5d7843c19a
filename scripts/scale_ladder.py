"""Time kjump's CLI commands and library calls at documented scale on two
commits.

    python scripts/scale_ladder.py PARENT [CHANGE] --out LADDER_28.json
    python scripts/scale_ladder.py HEAD --quick --out /tmp/ladder.json

Each side is a clean local clone of the repository at its commit (CHANGE
defaults to HEAD), made as `bench_pair.py` makes them. The reduction cases
are the planted E3-CNF formulas of `perfbench.workloads.planted_e3cnf`
(seed 1) at m = n = 300 and 1000, or at m = n = 10 with --quick, reduced at
k = 3: `python -m kjump.cli reduce` on the formula, then `kjump stats` on
that side's reduce output. The compiler cases are graphs of 10,000, 20,000
and 40,000 vertices, or of 200 with --quick, given as edge lists: the path,
with one vertex per BFS level, and the ladder of n / 2 rungs numbered by
rungs (vertex 2c + r is row r of rung c), whose levels from 0 hold two
vertices. On each, `kjump simulate` at k = 3 runs the one Token Jumping
move 0 -> n - 1, once from {0} (free) and once with tokens on
range(0, n - 3, 7) (blocked). The library cases run `python -c` on one
input each: `parse_edgelist` and then `dist(g, 0, n - 1)` on the largest
path, `build_instance` at k = 3 and then `lower_bound_moves` on the largest
formula, and `reachable_configs` of the tokens range(0, 12, 2) on the
45-vertex path at k = 44, or of range(0, 6, 2) on the 12-vertex path at
k = 11 with --quick. Each prints one line.

`groups` writes every input once and returns the cases as a table of
groups; one loop runs it. All pairs of a group finish before the next group
starts, and on each side a group's cases run back to back, so stats reads
its own side's reduce output. Every command runs in a fresh child process;
which side goes first alternates from pair to pair. A run records its wall
time, its process time (user + system) and the child's `ru_maxrss`, read by
`os.wait4` for that child alone, with its exit code and the sha256 of its
stdout. Per case the file gives each side's medians and the change's
wall-time ratio to the parent's. The ladder sets no gate; it records
numbers.
"""

import argparse
import hashlib
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

# this checkout's perfbench writes the formulas, so both sides reduce the same
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
from perfbench.workloads import planted_e3cnf  # noqa: E402

SIZES = (300, 1000)
QUICK_SIZES = (10,)
JUMP_SIZES = (10_000, 20_000, 40_000)
QUICK_JUMP_SIZES = (200,)
K = 3
CLI = (sys.executable, "-m", "kjump.cli")
# a library case's child runs its code after this, with `text` the file it
# is given; the code calls only names that every compared commit has
SNIPPET = "import sys\nfrom kjump import engine, graph, reduction\ntext = open(sys.argv[1]).read()\n"


def formula(size):
    """The planted E3-CNF text with m = n = size, seed 1."""
    return planted_e3cnf(size, size, random.Random(1))[0]


def write(tmp, name, text):
    """Write text to the file name in tmp; returns its path."""
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def edgelist(tmp, graph, n):
    """Write the n-vertex path or rung-numbered ladder as an edge list in
    tmp; returns its path. Lines are written as they are made: a child's
    `ru_maxrss` starts from this process's peak, which must stay small."""
    step = 1 if graph == "path" else 2
    rungs = range(0, n, 2) if graph == "ladder" else range(0)  # edges c -- c + 1
    rails = range(n - step)  # edges x -- x + step
    path = os.path.join(tmp, f"{graph}_{n}.txt")
    with open(path, "w") as fh:
        fh.write(f"p edge {n} {len(rungs) + len(rails)}\n")
        fh.writelines(f"e {c + 1} {c + 2}\n" for c in rungs)
        fh.writelines(f"e {x + 1} {x + step + 1}\n" for x in rails)
    return path


def groups(tmp, quick):
    """Write every input once in tmp; returns the cases in the order they
    run, as groups of (name, child argv, stdout path) rows."""
    sizes, jump_sizes = (QUICK_SIZES, QUICK_JUMP_SIZES) if quick else (SIZES, JUMP_SIZES)
    cnfs = {size: write(tmp, f"planted_{size}.cnf", formula(size)) for size in sizes}
    graphs = {(g, n): edgelist(tmp, g, n) for g in ("path", "ladder") for n in jump_sizes}
    out, doc = os.path.join(tmp, "case.out"), os.path.join(tmp, "reduce.json")
    table = []
    for size, cnf in cnfs.items():
        table.append([
            (f"reduce_{size}", [*CLI, "reduce", cnf, "--k", str(K)], doc),
            (f"stats_{size}", [*CLI, "stats", doc], out),
        ])
    for (graph, n), path in graphs.items():
        group = []
        for case, start in (("free", [0]), ("blocked", list(range(0, n - 3, 7)))):
            seq = json.dumps({"start": start, "moves": [[0, n - 1]], "k": n - 1})
            argv = [*CLI, "simulate", path, write(tmp, f"{graph}_{case}_{n}.json", seq),
                    "--k", str(K), "--format", "edgelist"]
            group.append((f"simulate_{graph}_{case}_{n}", argv, out))
        table.append(group)
    # library calls, one group each: the longest path, the largest formula,
    # and every independent set of `tokens` vertices on a short path at k = n - 1
    n, size = jump_sizes[-1], sizes[-1]
    reach, tokens = (12, 3) if quick else (45, 6)
    parse = "g = graph.parse_edgelist(text)\n"
    calls = {
        f"parse_path_{n}": (parse + "print(g.n, g.m)", graphs["path", n]),
        f"dist_path_{n}": (parse + "print(graph.dist(g, 0, g.n - 1))", graphs["path", n]),
        f"bound_{size}": (
            f"i = reduction.build_instance(reduction.parse_e3cnf(text), {K})\n"
            "print(engine.lower_bound_moves(i.graph, i.start, i.target, i.k))", cnfs[size]),
        f"reachable_path_{reach}": (
            parse + f"print(len(engine.reachable_configs(g, range(0, {2 * tokens}, 2), g.n - 1)))",
            edgelist(tmp, "path", reach)),
    }
    for name, (code, path) in calls.items():
        table.append([(name, [sys.executable, "-c", SNIPPET + code, path], out)])
    return table


def run_child(checkout, argv, out_path):
    """Run argv in checkout, with its src on the path and stdout to
    out_path; returns its wall and process seconds, peak RSS, exit code and
    stdout digest."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    with open(out_path, "wb") as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=checkout, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
    digest = hashlib.sha256()
    with open(out_path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return {
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),  # kB on Linux
        "exit": code,
        "stdout_sha256": digest.hexdigest(),
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
    p.add_argument("--quick", action="store_true", help="m = n = 10, n = 200 and the 12-vertex path only")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="scale_ladder-")
    try:
        dirs = {side: os.path.join(tmp, side) for side in SIDES}
        commits = {side: clone(ROOT, getattr(args, side), dirs[side]) for side in SIDES}
        lines = {side: src_lines(dirs[side]) for side in SIDES}
        what = _git(ROOT, "log", "-1", "--format=%s", commits["change"])
        cases = {}
        for group in groups(tmp, args.quick):
            runs = {name: {side: [] for side in SIDES} for name, _, _ in group}
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    print(f"{group[0][0]} pair {i + 1}: {side}", file=sys.stderr, flush=True)
                    for name, child, out in group:
                        runs[name][side].append(run_child(dirs[side], child, out))
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
            f" range(0, n - 3, 7)> --k {K} --format edgelist; python -c: parse_edgelist,"
            " then dist(g, 0, n - 1), on the largest path; build_instance at"
            f" k = {K}, then lower_bound_moves, on the largest formula;"
            " len(reachable_configs) of range(0, 12, 2) on the 45-vertex path, or of"
            " range(0, 6, 2) on the 12-vertex path, at k = n - 1; one child process"
            " per command, each side in its own clean clone, the side that runs"
            " first alternating from pair to pair"
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
