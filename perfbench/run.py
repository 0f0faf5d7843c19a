"""perfbench: the kjump benchmark.

    python3 perfbench/run.py --workload oracle-search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout: it imports `kjump` from `src/` there and
nowhere else. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the line before it is a
report with the environment, the fingerprint and the failure examples.
`--trace 1` gives the per-layer metrics instead of the end-to-end ones and
writes every span to `.perfbench/`. See perfbench/README.md.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402  (beside this file; it does not import kjump)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
MIN_PASSES = 3
BUILD_REPEATS = 3
# Import time is the noisiest part of set-up (single timings spread by about
# 0.2 of their median on a shared host), so it is taken more often.
IMPORT_REPEATS = 5
MODULES = ("engine", "graph", "split2", "reduction", "simulate", "cli")



@functools.cache
def spec():
    """Workload names, and metric name -> unit for each mode, as
    BENCHMARK.json at the root of the checkout declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {
        "workloads": [w["name"] for w in doc["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def _fail(message):
    print(json.dumps({"error": message}), file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import kjump from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "kjump", "__init__.py")):
        _fail(f"no kjump package under {SRC}; run from a kjump checkout")
    sys.path.insert(0, SRC)
    import kjump

    if os.path.dirname(os.path.dirname(os.path.abspath(kjump.__file__))) != SRC:
        _fail(f"kjump was imported from {kjump.__file__}, not from {SRC}")


def _git(*args):
    try:
        res = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(args):
    """Where and how the run was made, so runs can be compared."""
    import hashlib

    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "kjump")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_time():
    """Seconds a fresh interpreter takes to import kjump and the modules the
    benchmark loads with it."""
    code = (
        "import time; t = time.perf_counter(); import sys; "
        f"sys.path.insert(0, {SRC!r}); import kjump, kjump.cli; "
        "print(time.perf_counter() - t)"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    if res.returncode != 0:
        _fail(f"importing kjump failed: {res.stderr.strip()}")
    return float(res.stdout)


def set_up(factory, seed):
    """Build the workload BUILD_REPEATS times from the seed. Every build must
    give the same inputs; the median build time counts toward set-up. Each
    build is dropped before the next starts, so only one is ever alive."""
    times, digests, wl = [], set(), None
    for _ in range(BUILD_REPEATS):
        if wl is not None:
            wl.close()
            wl = None
        t0 = time.perf_counter()
        wl = factory(seed)
        times.append(time.perf_counter() - t0)
        digests.add(wl.digest())
    if len(digests) != 1:
        _fail(f"seed {seed} gave different inputs on repeated builds")
    return wl, statistics.median(times)


def rss_mb():
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(passes, setup_s, peak_rss):
    """The end-to-end metrics. Op times are scaled to the host's reference
    speed (see harness.per_input). `setup_s` is left as measured: it is
    mostly imports, which wait on files and a fresh interpreter as much as
    on the processor, and scaling it by the probe made it no steadier."""
    lat = harness.per_input(passes)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": harness.percentile(lat, 0.9) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
    }


def per_layer(wl, run, plain, traced, tracer, gen_s):
    """Per-layer metrics from the spans of the traced passes.

    Busy times, call counts and work counts are per traced pass: how many
    passes a run makes depends on how fast the code and the host are, and a
    sum over them would grow when a layer gets faster."""
    spans = tracer.spans
    n = len(traced)
    busy, calls = harness.busy_by_name(spans)
    wall = sum(s[2] - s[1] for s in spans if s[0] == "op") / 1e9
    out = {name: 0.0 for name in spec()["per_layer"]}
    for name, seconds in busy.items():
        if name != "op" and f"{name}.busy_s" in out:
            out[f"{name}.busy_s"] = seconds / n
    for mod in MODULES:
        out[f"{mod}.share"] = sum(
            s for name, s in busy.items() if name.startswith(mod + ".")
        ) / wall
    out["trace.coverage"] = sum(s for name, s in busy.items() if name != "op") / wall
    for name in ("engine.reachable_configs", "graph.recognize_split", "split2.decide2"):
        out[f"{name}.calls"] = calls.get(name, 0) / n
    out.update(wl.layer_metrics(n))
    if busy.get("engine.reachable_configs"):
        out["engine.reachable_configs.states_per_s"] = (
            out["engine.states"] * n / busy["engine.reachable_configs"]
        )
    out["engine.resource_exhausted"] = run.resource_exhausted / (len(plain) + n)
    out["generators.busy_s"] = gen_s
    out["trace.overhead_frac"] = (
        sum(harness.per_input(traced)) / sum(harness.per_input(plain)) - 1
    )
    return out


def run_one(args):
    _import_package()
    import workloads

    imports = [time.perf_counter() - _T_START]
    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    if cls is workloads.ReductionCli:
        workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        factory = lambda seed: cls(seed, workdir)  # noqa: E731
    else:
        factory = cls
    wl, gen_s = set_up(factory, args.seed)
    imports += [import_time() for _ in range(IMPORT_REPEATS - 1)]
    import_s = statistics.median(imports)
    setup_s = import_s + gen_s
    rss = {"setup": rss_mb()}
    try:
        if args.trace:
            with wl.counting():
                run, plain, traced, tracer = harness.measure_traced(
                    wl, args.seconds, MIN_PASSES)
            rss["passes"] = rss_mb()
            metrics = per_layer(wl, run, plain, traced, tracer, gen_s)
            tracer.dump(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            units = spec()["per_layer"]
        else:
            run, passes = harness.measure(wl, args.seconds, MIN_PASSES)
            plain = passes
            rss["passes"] = rss_mb()
            metrics = end_to_end(passes, setup_s, rss["passes"])
            units = spec()["end_to_end"]
        run.finish(wl)
        rss["checks"] = rss_mb()
    finally:
        wl.close()
    failed = run.failures.count
    report = {
        "environment": environment(args),
        "fingerprint": {"inputs_sha256": wl.digest(), **wl.counts},
        "ops": run.ops,
        "failed_frac": failed / run.ops,
        "failures": run.failures.examples,
        "import_s": import_s,
        "generate_s": gen_s,
        "peak_rss_mb_after": rss,
        "pass_factors": [p.factor() for p in plain],
        "pass_op_s": [p.total for p in plain],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.ops,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for name in spec()["workloads"]:
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or len(lines) < 2:
            sys.stderr.write(res.stderr)
            _fail(f"workload {name} exited {res.returncode}")
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        results[name] = result
        print(f"{name}: ops {report['ops']}, failed_frac {report['failed_frac']:g}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"workloads": results}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*spec()["workloads"], "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        _fail("--seconds must be at least 1")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
