"""The three perfbench workloads. Each one is a closed loop with one client.

A workload builds its inputs from the seed alone (`items`, plain data whose
digest names them), rebuilds the objects one operation needs untimed
(`prepare`), runs the operation through the timing `call` (`run`), and
checks its answer outside the timed region (`check`). `summary` is what a
repeat of the same input must reproduce exactly. `counts` holds the exact
work counts of the first pass, which go into the run's fingerprint.

Sizes follow a fixed schedule over the input index, and the seed draws the
graphs, sets and formulas inside each schedule cell. Every seed therefore
gets the same mix of sizes, which keeps the end-to-end figures steady from
seed to seed while the inputs themselves differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from collections import defaultdict

from kjump import cli, engine, graph, reduction, simulate, split2
from kjump.generators import (
    random_connected_graph,
    random_independent_set,
    random_pair,
    random_split_graph,
)


def digest(data):
    """SHA-256 of the canonical JSON form of the generated inputs."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _edges(g):
    return sorted([u, v] for u, v in g.edges)


class Workload:
    name = ""
    #: span-name prefix of the calls an untraced operation also makes; None
    #: when it makes all of them (see trace.overhead_frac).
    overhead_prefix = None

    def __init__(self, seed):
        self.counts = {}
        self.layer = defaultdict(float)  # work counts of traced operations
        self.items = self.generate(random.Random(seed))

    def digest(self):
        return digest(self.items)

    def recheck(self, idx, out):
        """Checks that hold on every run of an input, not only its first."""
        return []

    def counting(self):
        """Context in which a traced run counts calls made inside kjump."""
        return contextlib.nullcontext()

    def layer_metrics(self, passes):
        """Work counts of the traced operations, per traced pass."""
        return {}

    def close(self):
        pass


def _expansion(layer):
    return layer["sim_out"] / layer["sim_in"] if layer["sim_in"] else 0.0


class CallCounter:
    """Stands in for a kjump function in every kjump module that imported
    it, counting calls, while its `patch` context is open."""

    def __init__(self, module, name):
        self.original = getattr(module, name)
        self.name = name
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.original(*args, **kwargs)

    @contextlib.contextmanager
    def patch(self):
        mods = [
            m for key, m in list(sys.modules.items())
            if (key == "kjump" or key.startswith("kjump."))
            and getattr(m, self.name, None) is self.original
        ]
        for m in mods:
            setattr(m, self.name, self)
        try:
            yield self
        finally:
            for m in mods:
                setattr(m, self.name, self.original)


# ---------------------------------------------------------------------------
# oracle-search


class OracleSearch(Workload):
    """One op is one instance (g, s, t, k) through the BFS oracle."""

    name = "oracle-search"
    INSTANCES = 400
    # Token count -> largest vertex count, so that no component runs to
    # hundreds of thousands of states and one instance sets a run's time.
    MAX_N = {2: 28, 3: 22, 4: 19, 5: 17, 6: 16}

    def generate(self, rng):
        """Instance i has 2 + i % 5 tokens and k = (1, 2, D)[i // 5 % 3]; its
        vertex count steps through 16..MAX_N and its edge count is held at
        1.25 n (the generator's mean), since state counts follow the edge
        count closely and a seed should not change the size of the work."""
        items = []
        for i in range(self.INSTANCES):
            tokens = 2 + i % 5
            n = 16 + (i // 15) % (self.MAX_N[tokens] - 15)
            while True:
                g = random_connected_graph(n, rng)
                if len(g.edges) != round(1.25 * n):
                    continue
                s = random_independent_set(g, tokens, rng)
                t = random_independent_set(g, tokens, rng)
                if s is not None and t is not None and s != t:
                    break
            diam = graph.diameter(g)
            k = (1, 2, diam)[i // 5 % 3]
            items.append(
                {"n": n, "edges": _edges(g), "s": sorted(s), "t": sorted(t),
                 "k": k, "D": diam}
            )
        return items

    def prepare(self, idx):
        it = self.items[idx]
        g = graph.build_graph(it["n"], [tuple(e) for e in it["edges"]])
        return g, frozenset(it["s"]), frozenset(it["t"]), it["k"], it["D"]

    def run(self, call, ctx, traced):
        g, s, t, k, diam = ctx
        comp = call("engine.reachable_configs", engine.reachable_configs, g, s, k)
        out = {"states": len(comp), "member": t in comp, "ctx": ctx}
        del comp
        if traced:
            self.layer["states"] += out["states"]
        out["yes"] = call("engine.decide", engine.decide, g, s, t, k)
        seq = call("engine.shortest", engine.shortest, g, s, t, k)
        out["seq"] = seq
        if seq is not None:
            out["within"] = call(
                "engine.exists_within", engine.exists_within, g, s, t, k, len(seq) - 1
            )
        out["lb"] = call("engine.lower_bound_moves", engine.lower_bound_moves, g, s, t, k)
        if seq is not None:
            out["valid"] = call(
                "engine.validate_sequence", engine.validate_sequence, g, seq, k
            )
            if k == diam >= 4:
                out["sim"] = call(
                    "simulate.simulate_sequence", simulate.simulate_sequence, g, seq, 3
                )
                if traced:
                    self.layer["sim_out"] += len(out["sim"])
                    self.layer["sim_in"] += len(seq)
        return out

    def layer_metrics(self, passes):
        return {
            "engine.states": self.layer["states"] / passes,
            "simulate.expansion": _expansion(self.layer),
        }

    def check(self, idx, out):
        g, s, t, k, diam = out["ctx"]
        seq = out["seq"]
        bad = []
        if not out["yes"] == out["member"] == (seq is not None):
            bad.append(
                f"decide={out['yes']}, component membership={out['member']},"
                f" shortest found={seq is not None}"
            )
        if seq is not None:
            if not out["valid"] or seq.start != s or seq.final() != t:
                bad.append(f"shortest sequence does not validate: {out['valid']}")
            if out["within"]:
                bad.append(f"a sequence shorter than shortest ({len(seq)}) exists")
            if out["lb"] is None or out["lb"] > len(seq):
                bad.append(f"lower bound {out['lb']} exceeds length {len(seq)}")
        if k == diam > 3 and engine.decide(g, s, t, 3) != out["yes"]:
            bad.append("decide(k=3) differs from decide(D)")
        sim = out.get("sim")
        if sim is not None:
            if not engine.validate_sequence(g, sim, 3) or sim.final() != t:
                bad.append("simulated k=3 sequence does not validate")
        c = self.counts
        c["engine.states"] = c.get("engine.states", 0) + out["states"]
        c["unreachable"] = c.get("unreachable", 0) + (seq is None)
        c["shortest_moves"] = c.get("shortest_moves", 0) + (len(seq) if seq else 0)
        c["lower_bound_sum"] = c.get("lower_bound_sum", 0) + (out["lb"] or 0)
        c["simulated_moves"] = c.get("simulated_moves", 0) + (len(sim) if sim else 0)
        return bad

    def summary(self, out):
        seq, sim = out["seq"], out.get("sim")
        return (
            out["states"], out["yes"], seq.moves if seq else None,
            out.get("within"), out["lb"], sim.moves if sim else None,
        )


# ---------------------------------------------------------------------------
# split-stream


class SplitStream(Workload):
    """One op is one 2-Jump query on a split graph; a graph's recognition is
    charged to its first query and its decomposition passed to every
    `decide2` of its batch."""

    name = "split-stream"
    GRAPHS = 1500
    DENSITIES = (0.2, 0.5, 0.8)
    # Queries per graph, cycled. The mean is 5.4, so first queries are 18%
    # of all queries: p50 lands on warm decide2 calls, p90 on cold ones.
    BATCHES = (1, 2, 3, 4, 6, 8, 1, 2, 32, 3, 1, 2)
    MAX_TOKENS = 5

    def generate(self, rng):
        items = []
        for gi in range(self.GRAPHS):
            n = 6 + (gi * 7) % 19
            p = self.DENSITIES[gi % 3]
            if (gi // 3) % 3 == 0:
                # Isolated vertices appended to a split core.
                iso = 1 + rng.randrange(2)
                g = random_split_graph(n - iso, rng, p)
                g = graph.build_graph(n, g.edges)
            else:
                g = random_split_graph(n, rng, p)
                while any(not nb for nb in g.adj):
                    g = random_split_graph(n, rng, p)
            edges = _edges(g)
            # Vertices above every edge's lower end are pairwise non-adjacent,
            # so at least that many tokens fit; random_pair searches long for
            # a size the graph cannot hold.
            room = n - 1 - max((u for u, _ in edges), default=-1)
            for qi in range(self.BATCHES[gi % len(self.BATCHES)]):
                s, t = random_pair(g, rng, max_size=min(self.MAX_TOKENS, room))
                items.append(
                    {"g": gi, "q": qi, "n": n, "edges": edges if qi == 0 else None,
                     "s": sorted(s), "t": sorted(t)}
                )
        return items

    def prepare(self, idx):
        it = self.items[idx]
        if it["q"] == 0:
            self._graph = graph.build_graph(it["n"], [tuple(e) for e in it["edges"]])
            self._dec = None
        return self._graph, frozenset(it["s"]), frozenset(it["t"]), it["q"] == 0

    def run(self, call, ctx, traced):
        g, s, t, first = ctx
        before = self._recognize.calls if traced else 0
        if first:
            self._dec = call("graph.recognize_split", graph.recognize_split, g)
        res = call("split2.decide2", split2.decide2, g, s, t, self._dec)
        if not traced:
            return ctx, res
        self.layer["recognitions"] += self._recognize.calls - before
        self.layer["queries"] += 1
        self.layer["yes"] += bool(res.reconfigurable)
        return ctx, res

    def counting(self):
        self._recognize = CallCounter(graph, "recognize_split")
        return self._recognize.patch()

    def layer_metrics(self, passes):
        q = self.layer["queries"]
        return {
            "graph.recognize_split.per_query": self.layer["recognitions"] / q,
            "split2.decide2.yes_frac": self.layer["yes"] / q,
        }

    def check(self, idx, out):
        (g, s, t, first), res = out
        c = self.counts
        c["queries"] = c.get("queries", 0) + 1
        c["graphs"] = c.get("graphs", 0) + first
        c["decide2_yes"] = c.get("decide2_yes", 0) + bool(res.reconfigurable)
        if first and any(not nb for nb in g.adj):
            c["graphs_with_isolated"] = c.get("graphs_with_isolated", 0) + 1
        expected = engine.decide(g, s, t, 2)
        if bool(res.reconfigurable) != expected:
            return [f"decide2 says {res.reconfigurable}, the oracle says {expected}"]
        return []

    def summary(self, out):
        return out[1].reconfigurable, tuple(out[1].trace)


# ---------------------------------------------------------------------------
# reduction-cli


def planted_e3cnf(n, m, rng):
    """A random exactly-3-CNF formula over n >= 3 variables and m >= n/3
    clauses with three distinct variables each, satisfied by a planted
    assignment, in which every variable occurs. Returns (dimacs text,
    clauses as (variable, positive) triples, planted assignment)."""
    assignment = [rng.random() < 0.5 for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    clauses = []
    for j in range(m):
        vs = order[3 * j:3 * j + 3]
        while len(vs) < 3:
            v = rng.randrange(n)
            if v not in vs:
                vs.append(v)
        lits = [(v, rng.random() < 0.5) for v in vs]
        if not any(assignment[v] == pos for v, pos in lits):
            q = rng.randrange(3)
            lits[q] = (lits[q][0], assignment[lits[q][0]])
        clauses.append(lits)
    lines = [f"p cnf {n} {m}"]
    lines += [
        " ".join(str(v + 1 if pos else -(v + 1)) for v, pos in cl) + " 0"
        for cl in clauses
    ]
    return "\n".join(lines) + "\n", clauses, assignment


def satisfies(clauses, bits):
    return all(any((bits[v] == "1") == pos for v, pos in cl) for cl in clauses)


class CliFailure(RuntimeError):
    pass


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code != 0:
        raise CliFailure(f"kjump {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class ReductionCli(Workload):
    """One op is one formula through `kjump.cli.run`: reduce, stats, witness,
    verify, extract, and simulate --k 3 on the witness."""

    name = "reduction-cli"
    overhead_prefix = "cli."
    FORMULAS = 100

    def __init__(self, seed, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        super().__init__(seed)

    @staticmethod
    def size(i):
        """(variables, clauses) of formula i. One in five is large, with
        12-30 variables and 12-24 clauses, so that p90 falls inside the
        large ones; the rest have 3-12 variables and at most 8 clauses."""
        if i % 5 == 4:
            return 12 + (i * 7) % 19, 12 + (i * 11) % 13
        n = 3 + (i * 7) % 10
        lo = -(-n // 3)
        return n, lo + (i * 3) % (9 - lo)

    def generate(self, rng):
        items = []
        for i in range(self.FORMULAS):
            n, m = self.size(i)
            text, clauses, assignment = planted_e3cnf(n, m, rng)
            path = os.path.join(self.workdir, f"phi-{i}.cnf")
            with open(path, "w") as fh:
                fh.write(text)
            items.append(
                {"n": n, "m": m, "k": 3 + i % 3, "cnf": text, "clauses": clauses,
                 "bits": "".join("1" if b else "0" for b in assignment)}
            )
        return items

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def prepare(self, idx):
        return idx

    def run(self, call, ctx, traced):
        it = self.items[ctx]
        cnf = self._path(f"phi-{ctx}.cnf")
        inst, gfile, wit = (self._path(x) for x in ("inst.json", "graph.json", "wit.json"))
        out = {}
        out["reduce"] = call("cli.reduce", _cli, ["reduce", cnf, "--k", str(it["k"])])
        with open(inst, "w") as fh:
            fh.write(out["reduce"])
        doc = json.loads(out["reduce"])
        graph_text = json.dumps(doc["graph"])
        with open(gfile, "w") as fh:
            fh.write(graph_text)
        out["stats"] = call("cli.stats", _cli, ["stats", inst])
        out["witness"] = call(
            "cli.witness", _cli, ["witness", inst, "--assignment", it["bits"]]
        )
        wit_text = json.dumps(json.loads(out["witness"])["sequence"])
        with open(wit, "w") as fh:
            fh.write(wit_text)
        out["verify"] = call("cli.verify", _cli, ["verify", inst, wit])
        out["extract"] = call("cli.extract", _cli, ["extract", inst, wit])
        out["simulate"] = call("cli.simulate", _cli, ["simulate", gfile, wit, "--k", "3"])
        if traced:
            out["direct"] = self._direct(call, it, doc)
            # Bytes the six subcommands read: the formula, the instance four
            # times, the graph once and the witness three times.
            self.layer["bytes_in"] += (
                len(it["cnf"]) + 4 * len(out["reduce"]) + len(graph_text)
                + 3 * len(wit_text)
            )
            self.layer["sim_out"] += out["direct"]["expansion"][0]
            self.layer["sim_in"] += out["direct"]["expansion"][1]
        return out

    def layer_metrics(self, passes):
        return {
            "cli.bytes_in": self.layer["bytes_in"] / passes,
            "simulate.expansion": _expansion(self.layer),
        }

    def _direct(self, call, it, doc):
        """The public functions the subcommands rest on, with the same
        inputs, so that each layer gets spans of its own."""
        k = it["k"]
        assignment = tuple(b == "1" for b in it["bits"])
        phi = call("reduction.parse_e3cnf", reduction.parse_e3cnf, it["cnf"])
        call("reduction.build_instance", reduction.build_instance, phi, k)
        inst = call("reduction.instance_from_json", reduction.instance_from_json, doc)
        g = inst.graph
        lb = call(
            "engine.lower_bound_moves", engine.lower_bound_moves,
            g, inst.start, inst.target, k,
        )
        call("graph.lex_bfs", graph.lex_bfs, g)
        order = reduction.peo_order(inst)
        cert = call("graph.verify_peo", graph.verify_peo, g, order)
        peo = call("graph.find_peo", graph.find_peo, g)
        diam = call("graph.diameter", graph.diameter, g)
        seq = call(
            "reduction.assignment_to_sequence", reduction.assignment_to_sequence,
            inst, assignment,
        )
        valid = call("engine.validate_sequence", engine.validate_sequence, g, seq, k)
        back = call(
            "reduction.sequence_to_assignment", reduction.sequence_to_assignment,
            inst, seq,
        )
        sim = call("simulate.simulate_sequence", simulate.simulate_sequence, g, seq, 3)
        return {
            "lowerBound": lb, "chordal": cert and peo is not None, "diameter": diam,
            "length": len(seq), "valid": bool(valid),
            "assignment": "".join("1" if b else "0" for b in back),
            "expansion": (len(sim), len(seq)),
        }

    def check(self, idx, out):
        it = self.items[idx]
        n, m, k = it["n"], it["m"], it["k"]
        bad = []
        stats = json.loads(out["stats"])
        want = {
            "vertices": m * (2 * k + 3) + n * (k + 2),
            "tokens": m + 2 * n,
            "chordal": True,
            "lowerBound": 2 * (m + n),
        }
        for key, value in want.items():
            if stats.get(key) != value:
                bad.append(f"stats {key} = {stats.get(key)}, expected {value}")
        if stats.get("diameter") is None or stats["diameter"] > 2 * k + 1:
            bad.append(f"stats diameter {stats.get('diameter')} exceeds 2k+1")
        witness = json.loads(out["witness"])
        if witness["length"] != 2 * (m + n):
            bad.append(f"witness length {witness['length']}, expected {2 * (m + n)}")
        verify = json.loads(out["verify"])
        if not (verify.get("valid") and verify.get("reachesTarget")):
            bad.append(f"verify rejects the witness: {verify}")
        bits = json.loads(out["extract"])["assignment"]
        if len(bits) != n or not satisfies(it["clauses"], bits):
            bad.append(f"extracted assignment {bits} does not satisfy the formula")
        inst = json.loads(out["reduce"])
        g = graph.graph_from_json(inst["graph"])
        sim = engine.sequence_from_json(json.loads(out["simulate"])["sequence"])
        if (
            sim.k != 3
            or not engine.validate_sequence(g, sim, 3)
            or sim.start != frozenset(inst["start"])
            or sim.final() != frozenset(inst["target"])
        ):
            bad.append("simulated k=3 sequence does not validate")
        bad += self.recheck(idx, out)
        c = self.counts
        c["formulas"] = c.get("formulas", 0) + 1
        c["vertices_sum"] = c.get("vertices_sum", 0) + stats.get("vertices", 0)
        c["lower_bound_sum"] = c.get("lower_bound_sum", 0) + (stats.get("lowerBound") or 0)
        c["simulated_moves"] = c.get("simulated_moves", 0) + len(sim)
        return bad

    def recheck(self, idx, out):
        """The direct calls of a traced op must agree with the CLI."""
        direct = out.get("direct")
        if direct is None:
            return []
        stats = json.loads(out["stats"])
        want = {
            "lowerBound": stats.get("lowerBound"), "chordal": True,
            "diameter": stats.get("diameter"),
            "length": json.loads(out["witness"])["length"], "valid": True,
            "assignment": json.loads(out["extract"])["assignment"],
        }
        return [
            f"direct {key} = {direct[key]}, the CLI says {value}"
            for key, value in want.items()
            if direct[key] != value
        ]

    def summary(self, out):
        stages = ("reduce", "stats", "witness", "verify", "extract", "simulate")
        return hashlib.sha256("\n".join(out[s] for s in stages).encode()).hexdigest()

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


WORKLOADS = {w.name: w for w in (OracleSearch, SplitStream, ReductionCli)}
