"""Command-line surface. Every subcommand reads JSON (or DIMACS-style text)
and returns one payload, which `run` writes to stdout as one sorted-key
JSON line.

Exit codes: 0 = computed (including "no" answers), 2 = input or usage error,
3 = resource cap hit or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import engine, reduction, simulate, split2
from .generators import random_connected_graph, random_pair, random_split_graph
from .graph import (
    GraphError,
    NotSplitError,
    find_peo,
    graph_to_json,
    is_connected,
    parse_graph,
    parse_json,
    recognize_split,
)


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _cmd_recognize(args):
    g = parse_graph(_read(args.graph), args.format)
    report = {"n": g.n, "edges": g.m, "connected": is_connected(g)}
    try:
        dec = recognize_split(g)
        report["split"] = True
        report["cliquePart"] = sorted(dec.clique_part)
        report["indepPart"] = sorted(dec.indep_part)
        report["clusters"] = [
            {
                "u": sorted(c.u_side),
                "v": sorted(c.v_side),
                "vmin": c.vmin,
                "nSize": c.n_size,
            }
            for c in dec.clusters
        ]
    except NotSplitError as exc:
        report["split"] = False
        kind, vertices = exc.witness
        report["obstruction"] = {"kind": kind, "vertices": list(vertices)}
    peo = find_peo(g)
    report["chordal"] = peo is not None
    if peo is not None:
        report["peo"] = peo
    return report


def _cmd_decide(args):
    g, s, t, k = engine.instance_from_json(parse_json(_read(args.instance)))
    if args.k is not None:
        k = args.k
    return {"k": k, "reconfigurable": engine.decide(g, s, t, k)}


def _cmd_shortest(args):
    g, s, t, k = engine.instance_from_json(parse_json(_read(args.instance)))
    seq = engine.shortest(g, s, t, k)
    if seq is None:
        return {"k": k, "reconfigurable": False, "sequence": "unreachable"}
    return {
        "k": k,
        "reconfigurable": True,
        "length": len(seq),
        "sequence": engine.sequence_to_json(seq),
    }


def _cmd_decide2(args):
    g, s, t, k = engine.instance_from_json(parse_json(_read(args.instance)))
    if k != 2:
        raise GraphError(f"decide2 requires k = 2, instance has k = {k}")
    res = split2.decide2(g, s, t)
    return {"reconfigurable": res.reconfigurable, "trace": res.trace}


def _cmd_simulate(args):
    g = parse_graph(_read(args.graph), args.format)
    seq = engine.sequence_from_json(parse_json(_read(args.sequence)))
    out = simulate.simulate_sequence(g, seq, args.k)
    return {"k": args.k, "length": len(out), "sequence": engine.sequence_to_json(out)}


def _cmd_reduce(args):
    phi = reduction.parse_e3cnf(_read(args.cnf))
    inst = reduction.build_instance(phi, args.k)
    return reduction.instance_to_json(inst)


def _cmd_witness(args):
    inst = reduction.instance_from_json(parse_json(_read(args.instance)))
    bits = args.assignment.strip()
    if not all(c in "01" for c in bits):
        raise reduction.CnfError(f"assignment must be a 0/1 string: {bits!r}")
    assignment = tuple(c == "1" for c in bits)
    seq = reduction.assignment_to_sequence(inst, assignment)
    return {"length": len(seq), "sequence": engine.sequence_to_json(seq)}


def _cmd_extract(args):
    inst = reduction.instance_from_json(parse_json(_read(args.instance)))
    seq = engine.sequence_from_json(parse_json(_read(args.sequence)))
    assignment = reduction.sequence_to_assignment(inst, seq)
    return {"assignment": "".join("1" if b else "0" for b in assignment)}


def _cmd_verify(args):
    g, s, t, k = engine.instance_from_json(parse_json(_read(args.instance)))
    seq = engine.sequence_from_json(parse_json(_read(args.sequence)))
    report = engine.validate_sequence(g, seq, k)
    out = {"valid": report.ok}
    if not report.ok:
        out["step"] = report.step
        out["reason"] = report.reason
    else:
        out["length"] = len(seq)
        out["reachesTarget"] = seq.final() == t and frozenset(seq.start) == s
    return out


def _cmd_stats(args):
    inst = reduction.instance_from_json(parse_json(_read(args.instance)))
    st = reduction.instance_stats(inst)
    return {
        "vertices": st.vertices,
        "tokens": st.tokens,
        "diameter": st.diameter,
        "chordal": st.chordal,
        "lowerBound": st.lower_bound,
    }


def _cmd_gen(args):
    if args.n <= 0:
        raise ValueError(f"--n must be positive, got {args.n}")
    rng = random.Random(args.seed)
    # argparse's choices admit only the two kinds
    gen = random_connected_graph if args.kind == "connected" else random_split_graph
    g = gen(args.n, rng)
    if not args.with_pair:
        return {"graph": graph_to_json(g)}
    engine._check_k(args.k)  # the instance's readers refuse k < 1
    s, t = random_pair(g, rng, max_size=args.max_tokens)
    return engine.instance_to_json(g, s, t, args.k)


@functools.cache
def build_parser():
    """The parser, built on the first call and reused by every later one."""
    p = argparse.ArgumentParser(prog="kjump")
    sub = p.add_subparsers(dest="command", required=True)

    def graph_fmt(sp):
        sp.add_argument("--format", choices=["json", "edgelist"], default="json")

    sp = sub.add_parser("recognize", help="split/chordal structure report")
    sp.add_argument("graph")
    graph_fmt(sp)
    sp.set_defaults(fn=_cmd_recognize)

    sp = sub.add_parser("decide", help="oracle reachability decision")
    sp.add_argument("instance")
    sp.add_argument("--k", type=int, default=None)
    sp.set_defaults(fn=_cmd_decide)

    sp = sub.add_parser("shortest", help="oracle optimal sequence")
    sp.add_argument("instance")
    sp.set_defaults(fn=_cmd_shortest)

    sp = sub.add_parser("decide2", help="split-graph 2-Jump decision")
    sp.add_argument("instance")
    sp.set_defaults(fn=_cmd_decide2)

    sp = sub.add_parser("simulate", help="compile a TJ sequence to k-Jump")
    sp.add_argument("graph")
    sp.add_argument("sequence")
    sp.add_argument("--k", type=int, required=True)
    graph_fmt(sp)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("reduce", help="E3-CNF to reconfiguration instance")
    sp.add_argument("cnf")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("witness", help="optimal sequence from an assignment")
    sp.add_argument("instance")
    sp.add_argument("--assignment", required=True)
    sp.set_defaults(fn=_cmd_witness)

    sp = sub.add_parser("extract", help="assignment from a short sequence")
    sp.add_argument("instance")
    sp.add_argument("sequence")
    sp.set_defaults(fn=_cmd_extract)

    sp = sub.add_parser("verify", help="validate a move sequence")
    sp.add_argument("instance")
    sp.add_argument("sequence")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("stats", help="reduction instance report")
    sp.add_argument("instance")
    sp.set_defaults(fn=_cmd_stats)

    sp = sub.add_parser("gen")  # hidden-ish: seeded corpus generation
    sp.add_argument("kind", choices=["connected", "split"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--with-pair", action="store_true")
    sp.add_argument("--max-tokens", type=int, default=3)
    sp.add_argument("--k", type=int, default=2)
    sp.set_defaults(fn=_cmd_gen)

    return p


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        sys.stdout.write(json.dumps(args.fn(args), sort_keys=True) + "\n")
        return 0
    except (engine.ResourceExhausted, MemoryError, OverflowError) as exc:
        # a MemoryError may carry no message; an OverflowError is a number
        # past the machine's range, such as a vertex count of 2**63
        print(json.dumps({"error": str(exc) or "out of memory"}), file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # GraphError and CnfError included
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
