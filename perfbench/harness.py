"""Timing, tracing and statistics shared by the perfbench workloads.

The benchmark calls the package's public functions itself and times every
call from outside; nothing inside `kjump` is instrumented. A workload runs
its operations through `call(name, fn, *args)`. Untraced, `call` only runs
`fn`; traced, it also keeps a span `[name, start_ns, end_ns, parent, op]`
whose parent is the span of the operation it belongs to.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
import traceback
from collections import defaultdict, deque

MIN_TAIL = 10


def percentile(samples, q):
    """Nearest-rank q-quantile of samples, for 0 < q < 1.

    Refuses a quantile with fewer than MIN_TAIL samples above its rank: such
    a tail is a handful of outliers and does not repeat from run to run.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile must lie strictly between 0 and 1: {q}")
    n = len(samples)
    rank = math.ceil(q * n)
    if n - rank < MIN_TAIL:
        raise ValueError(
            f"p{q * 100:g} needs {MIN_TAIL} samples beyond it; "
            f"{n} samples leave {n - rank}"
        )
    return sorted(samples)[rank - 1]


# The reference probe's median time on a quiet stretch of the machine this
# benchmark was built on, an `Intel(R) Xeon(R) Processor` at 2.1 GHz with
# Python 3.11. Scaled op times are in seconds at that speed.
PROBE_REF_S = 2.4e-3
PROBE_EVERY_S = 0.05  # op time between two probes
_PROBE_N = 20
_PROBE_ADJ = [
    (1 << (v + 1) % _PROBE_N) | (1 << (v - 1) % _PROBE_N) | (1 << (v + 5) % _PROBE_N)
    for v in range(_PROBE_N)
]


def probe():
    """Seconds a fixed piece of pure-Python work takes: a breadth-first
    search over the 1,140 three-token configurations of a 20-vertex
    circulant graph, as bitmasks in a dict. It uses none of `kjump`, so no
    change to the package moves it; only the speed of the host does. The
    garbage collector is held off while it runs."""
    gc.disable()
    t0 = time.perf_counter()
    seen = {0b111: 0}
    queue = deque(seen)
    while queue:
        c = queue.popleft()
        d = seen[c] + 1
        rest = c
        while rest:
            low = rest & -rest
            rest ^= low
            others = c ^ low
            nb = _PROBE_ADJ[low.bit_length() - 1]
            while nb:
                w = nb & -nb
                nb ^= w
                if not others & w and others | w not in seen:
                    seen[others | w] = d
                    queue.append(others | w)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def _plain_call(name, fn, *args):
    return fn(*args)


class Tracer:
    """Span recorder for one traced run. Spans stay in memory until `dump`."""

    def __init__(self):
        self.spans = []
        self._op = -1
        self._op_id = -1

    def begin_op(self, op_id):
        self._op = len(self.spans)
        self._op_id = op_id
        self.spans.append(["op", time.perf_counter_ns(), 0, -1, op_id])

    def end_op(self, keep_prefix=None):
        """Close the open op span. Returns the seconds its calls not named
        `keep_prefix...` took, or 0 when no prefix is given."""
        self.spans[self._op][2] = time.perf_counter_ns()
        extra = 0
        if keep_prefix is not None:
            extra = sum(
                s[2] - s[1] for s in self.spans[self._op + 1:]
                if not s[0].startswith(keep_prefix)
            )
        self._op = -1
        return extra / 1e9

    def call(self, name, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append(
                [name, start, time.perf_counter_ns(), self._op, self._op_id]
            )

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def self_times(spans):
    """Self time of each span in ns: its duration minus the part of that
    interval covered by the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def busy_by_name(spans):
    """Summed self time in seconds and call count, per span name."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        busy[span[0]] += own / 1e9
        calls[span[0]] += 1
    return busy, calls


class Failures:
    """Failed operations, with the first few reasons kept for the report."""

    KEEP = 5

    def __init__(self):
        self.count = 0
        self.examples = []

    def add(self, op_id, reason):
        self.count += 1
        if len(self.examples) < self.KEEP:
            self.examples.append(f"op {op_id}: {reason}")


class Samples:
    """One pass: per-operation wall times in seconds, their running total,
    and the reference probe's times, taken between operations once per
    PROBE_EVERY_S of op time."""

    def __init__(self):
        self.lat = []
        self.total = 0.0
        self.probes = []
        self._since_probe = 0.0

    def add(self, seconds):
        self.lat.append(seconds)
        self.total += seconds
        self._since_probe += seconds
        if self._since_probe >= PROBE_EVERY_S:
            self._since_probe = 0.0
            self.probes.append(probe())

    def factor(self):
        """How much faster the host would have run this pass at its
        reference speed: PROBE_REF_S ÷ the pass's median probe time."""
        return PROBE_REF_S / statistics.median(self.probes)


class Run:
    """What one run of a workload attempted, and which operations failed.

    An input's first answer is kept and checked only in `finish`, after the
    timed passes, so that the checker's own work (on `split-stream`, an
    oracle search per query) neither slows the passes nor sets the peak
    memory the run reports."""

    def __init__(self):
        self.first = {}  # input index -> summary of its first answer
        self.pending = []  # (input index, first answer, op id), unchecked
        self.failures = Failures()
        self.resource_exhausted = 0
        self.ops = 0

    def record(self, wl, idx, out, op_id):
        """Keep an input's first answer for `finish`; on a repeat, check
        that it gives the same answer as the first and passes the checks
        every run must pass."""
        if isinstance(out, Exception):
            if type(out).__name__ == "ResourceExhausted":
                self.resource_exhausted += 1
            where = traceback.extract_tb(out.__traceback__)[-1]
            self.failures.add(
                op_id,
                f"{type(out).__name__}: {out} ({where.filename}:{where.lineno})",
            )
            return
        if idx not in self.first:
            self.first[idx] = wl.summary(out)
            self.pending.append((idx, out, op_id))
            return
        if wl.summary(out) != self.first[idx]:
            problems = [f"input {idx} answered differently on a repeat"]
        else:
            problems = wl.recheck(idx, out)
        if problems:
            self.failures.add(op_id, "; ".join(problems))

    def finish(self, wl):
        """Full check of every input's first answer, in input order."""
        for idx, out, op_id in self.pending:
            problems = wl.check(idx, out)
            if problems:
                self.failures.add(op_id, "; ".join(problems))
        self.pending = []


def run_pass(wl, run, samples, tracer=None):
    """Run one operation per input, in input order.

    Each operation's inputs are rebuilt untimed by `wl.prepare`, so no
    per-graph cache survives from one pass to the next. The operation is
    timed from outside; its answer is recorded outside the timed region.
    """
    call = _plain_call if tracer is None else tracer.call
    for idx in range(len(wl.items)):
        op_id = run.ops
        run.ops += 1
        ctx = wl.prepare(idx)
        if tracer is not None:
            tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            out = wl.run(call, ctx, tracer is not None)
        except Exception as exc:  # every failure is counted, none ends the run
            out = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            # Calls only a traced op makes are left out, so the traced and
            # untraced passes time the same work.
            elapsed -= tracer.end_op(wl.overhead_prefix)
        run.record(wl, idx, out, op_id)
        samples.add(elapsed)
    samples.probes.append(probe())  # every pass gets at least one


def measure(wl, seconds, min_passes):
    """Untraced run: whole passes over the workload's inputs, at least
    `min_passes` of them, until their op time reaches `seconds`. Returns the
    run and one Samples per pass."""
    run, passes = Run(), []
    while len(passes) < min_passes or sum(p.total for p in passes) < seconds:
        passes.append(Samples())
        run_pass(wl, run, passes[-1])
    return run, passes


def per_input(passes):
    """Each input's op time at the host's reference speed: its time in each
    pass, multiplied by that pass's `factor`, and the median over passes.

    The operations are deterministic and CPU-bound, so what varies between
    an input's runs is load from outside the process. On a shared 2-vCPU
    machine the same operation ran 1.3-1.6x slower for stretches of seconds
    to minutes, long enough to cover whole runs, and in bursts shorter than
    a second on top. The probe, which uses nothing from `kjump`, reads the
    host's speed during each pass, so no change to the package moves the
    factor; the median over passes then drops the short bursts."""
    factors = [p.factor() for p in passes]
    scaled = [[t * f for t in p.lat] for p, f in zip(passes, factors)]
    return [statistics.median(times) for times in zip(*scaled)]


def measure_traced(wl, seconds, min_passes):
    """Traced run: alternate an untraced and a traced pass over the same
    inputs, at least `min_passes` of each, until the untraced passes have
    taken `seconds`."""
    run, plain, traced, tracer = Run(), [], [], Tracer()
    while len(traced) < min_passes or sum(p.total for p in plain) < seconds:
        plain.append(Samples())
        run_pass(wl, run, plain[-1])
        traced.append(Samples())
        run_pass(wl, run, traced[-1], tracer)
    return run, plain, traced, tracer
