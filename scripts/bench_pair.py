"""Benchmark two commits in interleaved pairs and write a BENCH_*.json file.

    python scripts/bench_pair.py PARENT [CHANGE] --workloads reduction-cli \\
        --seeds 1 2 3 --out BENCH_12.json

Each side is a clean local clone of the repository at its commit (CHANGE
defaults to HEAD), so uncommitted edits never enter a run. For every
workload and seed the two sides run `perfbench/run.py --workload W --seed S
--seconds T --trace 0` one after the other, each in its own process; which
side goes first alternates from pair to pair. A seed may be given more than
once, for more pairs than seeds; its later runs are keyed `seed_S_2`,
`seed_S_3` and so on. Every run's report and result lines are kept, with its
pass count (the timed passes the fixed run length allowed), and per metric
the file gives each side's median and quartiles, how many pairs the change
won (ties count for neither) and the runs themselves, with whether every
pair's fingerprints matched and each side's median pass count. A faster
side makes more passes, and perfbench keeps every pass's op times, so a
`peak_rss_mb` change is read against the ratio of pass counts. Each side
also records `src_lines`, the lines of src/**/*.py at its commit, so the
file carries the net source-line change.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def _git(repo, *args):
    return subprocess.run(
        ["git", "-C", repo, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def clone(repo, commit, dest):
    """A clean checkout of commit in dest; returns the full sha."""
    subprocess.run(["git", "clone", "--quiet", repo, dest], check=True)
    _git(dest, "checkout", "--quiet", "--detach", commit)
    return _git(dest, "rev-parse", "HEAD")


def src_lines(checkout):
    """Lines of src/**/*.py in checkout."""
    total = 0
    for dirpath, _, files in os.walk(os.path.join(checkout, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_once(checkout, workload, seed, seconds):
    """The report and result lines of one benchmark run in checkout, and
    its pass count."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} in {checkout} exited {proc.returncode}")
    report = json.loads(lines[-2])["report"]
    return {
        "report": report,
        "result": json.loads(lines[-1]),
        "passes": len(report["pass_factors"]),
    }


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def run_keys(seeds):
    """The key of each pair's runs: seed_S, then seed_S_2, seed_S_3, ...
    for a seed given again."""
    count, keys = {}, []
    for s in seeds:
        count[s] = count.get(s, 0) + 1
        keys.append(f"seed_{s}" if count[s] == 1 else f"seed_{s}_{count[s]}")
    return keys


def compare(runs, keys, better):
    """Per-metric medians, quartiles, wins and runs of one workload, over
    the runs under keys; better maps a metric name to "higher" or "lower"."""
    metrics = {}
    for name, direction in better.items():
        vals = {
            side: [runs[side][k]["result"]["metrics"][name]["value"] for k in keys]
            for side in SIDES
        }
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        metrics[name] = {
            "better": direction,
            **{side: _summary(vals[side]) for side in SIDES},
            "change_wins": f"{wins}/{len(keys)}",
            "runs": {side: [round(v, 6) for v in vals[side]] for side in SIDES},
        }
    return metrics


def machine():
    cpu = platform.processor() or platform.machine()
    mem_gb = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
        with open("/proc/meminfo") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal"))
            mem_gb = round(kb / 2**20)
    except (OSError, StopIteration):
        pass
    ram = f", {mem_gb} GB RAM" if mem_gb else ""
    return f"{os.cpu_count()} vCPU {cpu}{ram}; Python {platform.python_version()}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change", nargs="?", default="HEAD")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    tmp = tempfile.mkdtemp(prefix="bench_pair-")
    try:
        dirs = {side: os.path.join(tmp, side) for side in SIDES}
        commits = {
            side: clone(ROOT, getattr(args, side), dirs[side]) for side in SIDES
        }
        lines = {side: src_lines(dirs[side]) for side in SIDES}
        what = _git(ROOT, "log", "-1", "--format=%s", commits["change"])
        runs = {side: {w: {} for w in args.workloads} for side in SIDES}
        pairs = {}
        keys = run_keys(args.seeds)
        for w in args.workloads:
            first = []
            for i, (seed, key) in enumerate(zip(args.seeds, keys)):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    print(f"{w} {key}: {side}", file=sys.stderr, flush=True)
                    runs[side][w][key] = run_once(dirs[side], w, seed, args.seconds)
            by_side = {side: runs[side][w] for side in SIDES}
            pairs[w] = {
                "seeds": args.seeds,
                "first": first,
                "failed": {
                    side: sum(r["result"]["failed"] for r in by_side[side].values())
                    for side in SIDES
                },
                "fingerprints_equal": all(
                    by_side["parent"][k]["report"]["fingerprint"]
                    == by_side["change"][k]["report"]["fingerprint"]
                    for k in by_side["parent"]
                ),
                "passes": {
                    side: statistics.median(r["passes"] for r in by_side[side].values())
                    for side in SIDES
                },
                "metrics": compare(by_side, keys, better),
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    doc = {
        "what": what,
        "machine": machine(),
        "command": (
            f"python3 perfbench/run.py --workload <name> --seed <seed> --seconds"
            f" {args.seconds} --trace 0, one process per run, each side in its own"
            " clean clone, the side that runs first alternating from pair to pair"
        ),
        **{
            side: {"commit": commits[side], "src_lines": lines[side], "runs": runs[side]}
            for side in SIDES
        },
        "pairs": {"order": "alternating: parent first in odd-numbered pairs", "workloads": pairs},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(f"src lines: parent {lines['parent']}, change {lines['change']}")
    for w, pair in pairs.items():
        print(
            f"{w}: failed {pair['failed']}, fingerprints_equal"
            f" {pair['fingerprints_equal']}, median passes {pair['passes']}"
        )
        for name, m in pair["metrics"].items():
            print(
                f"  {name:<16} parent {m['parent']['median']:>12.6g}"
                f"  change {m['change']['median']:>12.6g}  wins {m['change_wins']}"
            )


if __name__ == "__main__":
    main()
