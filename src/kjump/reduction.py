"""E3-SAT to shortest k-Jump reconfiguration on chordal graphs.

Each clause becomes a path v_0..v_2k with two extra vertices k_0, k_2 hung on
v_{k-1} and v_{k+1} (k_1 is an alias for v_k); the k-vertices of all clauses
form one clique. Each variable becomes a path u_0..u_{k-1} (aliases t_0 = u_0
and t_1 = u_{k-1}) with two pendant vertices s_0, s_1 on t_0. Literal
occurrences wire s/t vertices to the clause's clique vertices. Satisfying
assignments translate to move sequences of length exactly 2(m+n), which
matches the matching lower bound; short sequences translate back to
satisfying assignments via the open/closed state of the variable gadgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import engine
from .graph import (
    Graph,
    GraphError,
    _to_mask,
    dimacs_header,
    json_int,
    json_ints,
    json_list,
    json_object,
    json_vertex_keys,
    parse_int,
    verify_peo,
)
from .engine import Move, MoveSequence


class CnfError(ValueError):
    pass


@dataclass(frozen=True)
class CnfFormula:
    """Exactly-3-literal CNF. A literal is (variable index, positive flag)."""

    num_vars: int
    clauses: tuple

    def satisfies(self, assignment):
        return self.violated_clause(assignment) is None

    def violated_clause(self, assignment):
        if len(assignment) != self.num_vars:
            raise CnfError(
                f"assignment length mismatch: {len(assignment)} values"
                f" for {self.num_vars} variables"
            )
        for idx, clause in enumerate(self.clauses):
            if not any(assignment[v] == pos for v, pos in clause):
                return idx
        return None


def parse_e3cnf(text):
    """DIMACS CNF parser that enforces exactly three literals per clause."""
    num_vars = None
    clauses = []
    pending = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith(("c", "%")):
            continue
        parts = line.split()
        if parts[0] == "p":
            num_vars, num_clauses = dimacs_header(
                parts, ("cnf",), num_vars is not None, lineno, line, CnfError
            )
            continue
        if num_vars is None:
            raise CnfError(
                f"clause before 'p cnf' header at line {lineno}: {line!r}"
            )
        lits = [parse_int(f) for f in parts]
        if None in lits:
            raise CnfError(f"malformed literal at line {lineno}: {line!r}")
        for lit in lits:
            if not pending:
                first = lineno  # the line the clause starts on
            if lit == 0:
                clauses.append(_clause(pending, first))
                pending = []
            elif abs(lit) > num_vars:
                raise CnfError(
                    f"variable {abs(lit)} out of range 1..{num_vars} at line"
                    f" {lineno}: {line!r}"
                )
            else:
                pending.append(lit)
    if pending:
        raise CnfError(f"unterminated clause {_words(pending)} at line {first}")
    if num_vars is None:
        raise CnfError("missing 'p cnf' header")
    if len(clauses) != num_clauses:
        raise CnfError(
            f"header promises {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(clauses))


def _clause(lits, line=None):
    """The (variable, positive flag) pairs of a clause of signed DIMACS
    literals, which must number exactly three. An error names the clause by
    its literals, and by the line it starts on when one is given."""
    if len(lits) != 3:
        where = "" if line is None else f" at line {line}"
        raise CnfError(f"clause {_words(lits)}{where} has {len(lits)} literals, need 3")
    return tuple((abs(x) - 1, x > 0) for x in lits)


def _words(lits):
    """Signed DIMACS literals, quoted: ''1 -2''."""
    return repr(" ".join(map(str, lits)))


@dataclass(frozen=True)
class ReductionInstance:
    graph: object
    k: int
    start: frozenset
    target: frozenset
    label_map: dict  # vertex id -> "v:i:j" / "k:i:x" / "u:i:j" / "s:i:x"
    formula: CnfFormula

    def vertex(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(
                f"reduction instance's labelMap has no vertex labelled {label!r}"
            ) from None

    @cached_property
    def _index(self):
        """label -> vertex id, the reverse of label_map."""
        return {lab: v for v, lab in self.label_map.items()}

    # Gadget accessors. t-aliases resolve into the variable path.
    def v(self, i, j):
        return self.vertex(f"v:{i}:{j}")

    def kv(self, i, x):
        if x == 1:
            return self.vertex(f"v:{i}:{self.k}")
        return self.vertex(f"k:{i}:{x}")

    def u(self, i, j):
        return self.vertex(f"u:{i}:{j}")

    def s(self, i, x):
        return self.vertex(f"s:{i}:{x}")

    def t(self, i, x):
        return self.u(i, 0) if x == 0 else self.u(i, self.k - 1)


def build_instance(phi, k):
    if k < 3:
        raise GraphError("reduction requires k >= 3")
    m, n = len(phi.clauses), phi.num_vars
    # the m clause gadgets of 2k + 3 vertices each, then the n variable
    # gadgets of k + 2; each range holds its gadgets' first vertices
    clause_start = range(0, m * (2 * k + 3), 2 * k + 3)
    var_start = range(clause_start.stop, clause_start.stop + n * (k + 2), k + 2)
    # K = {k_0, k_1 (= v_k), k_2 over all clauses} forms a clique
    kvs = [x for b in clause_start for x in (b + 2 * k + 1, b + k, b + 2 * k + 2)]

    def edges():
        # each edge once; the clique's pairs stream into Graph before the
        # clause-variable edges widen its masks
        for b in clause_start:
            for j in range(2 * k):
                yield b + j, b + j + 1
            for kx in (b + 2 * k + 1, b + 2 * k + 2):
                yield kx, b + k - 1
                yield kx, b + k + 1
        yield from combinations(kvs, 2)
        for b in var_start:
            for x in range(k - 1):
                yield b + x, b + x + 1
            yield b + k, b
            yield b + k + 1, b
        for i, clause in enumerate(phi.clauses):
            rho = kvs[3 * i:3 * i + 3]
            for pos, (var, positive) in enumerate(clause):
                vb = var_start[var]
                yield (vb + k if positive else vb + k + 1), rho[pos]
                yield vb, rho[pos]  # t_0 = u_0

    # the masks are the first list as long as the vertex count, so a count
    # past the index range is refused before anything else is built
    g = Graph(var_start.stop, edges())
    labels = {}
    for i, b in enumerate(clause_start):
        for j in range(2 * k + 1):
            labels[b + j] = f"v:{i}:{j}"
        labels[b + 2 * k + 1] = f"k:{i}:0"
        labels[b + 2 * k + 2] = f"k:{i}:2"
    for j, b in enumerate(var_start):
        for x in range(k):
            labels[b + x] = f"u:{j}:{x}"
        labels[b + k] = f"s:{j}:0"
        labels[b + k + 1] = f"s:{j}:1"
    start = frozenset([
        *clause_start, *(b + k for b in var_start), *(b + k + 1 for b in var_start)
    ])
    target = frozenset([
        *(b + 2 * k for b in clause_start), *var_start, *(b + k - 1 for b in var_start)
    ])
    return ReductionInstance(g, k, start, target, labels, phi)


def peo_order(inst):
    """The explicit seven-phase perfect elimination ordering: climb each
    clause path from both ends, peel the variable paths, then the pendant
    s-vertices, t_0, and finally the clique."""
    k, m, n = inst.k, len(inst.formula.clauses), inst.formula.num_vars
    order = []
    for i in range(m):
        order.extend(inst.v(i, j) for j in range(k))
    for i in range(m):
        order.extend(inst.v(i, 2 * k - j) for j in range(k))
    for i in range(n):
        order.extend(inst.u(i, k - j - 1) for j in range(k - 1))
    order.extend(inst.s(i, 0) for i in range(n))
    order.extend(inst.s(i, 1) for i in range(n))
    order.extend(inst.u(i, 0) for i in range(n))
    for i in range(m):
        order.extend(inst.kv(i, j) for j in range(3))
    return order


def assignment_to_sequence(inst, assignment):
    """Optimal witness for a satisfying assignment: per variable open the
    chosen polarity (M1), route each clause token through the witness
    literal's clique vertex (M2), then park the remaining s-tokens (M3)."""
    phi = inst.formula
    bad = phi.violated_clause(assignment)
    if bad is not None:
        raise CnfError(f"assignment does not satisfy clause {bad}")
    moves = []
    for i in range(phi.num_vars):
        src = inst.s(i, 0) if assignment[i] else inst.s(i, 1)
        moves.append(Move(src, inst.t(i, 1)))
    for j, clause in enumerate(phi.clauses):
        pos = next(
            p for p, (var, positive) in enumerate(clause)
            if assignment[var] == positive
        )
        gate = inst.kv(j, pos)
        moves.append(Move(inst.v(j, 0), gate))
        moves.append(Move(gate, inst.v(j, 2 * inst.k)))
    for i in range(phi.num_vars):
        src = inst.s(i, 1) if assignment[i] else inst.s(i, 0)
        moves.append(Move(src, inst.t(i, 0)))
    return MoveSequence(inst.start, tuple(moves), inst.k)


def sequence_to_assignment(inst, seq):
    """Extract a satisfying assignment from any valid start-to-target
    sequence of length at most 2(m+n): variable i is true iff its gadget is
    positively open (s(i, 0) and t(i, 0) both empty) at some step."""
    phi = inst.formula
    m, n = len(phi.clauses), phi.num_vars
    if len(seq.moves) > 2 * (m + n):
        raise GraphError(
            f"sequence length {len(seq.moves)} exceeds 2(m+n) = {2 * (m + n)}"
        )
    report = engine.validate_sequence(inst.graph, seq, inst.k)
    if not report:
        raise GraphError(f"invalid sequence at step {report.step}: {report.reason}")

    cur = _to_mask(seq.start)
    states = [cur]
    for src, dst in seq.moves:
        cur ^= 1 << src | 1 << dst
        states.append(cur)
    if frozenset(seq.start) != inst.start or cur != _to_mask(inst.target):
        raise GraphError("sequence does not run from the start set to the target set")
    pairs = (1 << inst.s(i, 0) | 1 << inst.t(i, 0) for i in range(n))
    return tuple(any(not state & pair for state in states) for pair in pairs)


@dataclass(frozen=True)
class InstanceStats:
    vertices: int
    tokens: int
    diameter: int | None
    chordal: bool
    lower_bound: int


def instance_stats(inst):
    g = inst.graph
    # verify_peo raises unless the order is a permutation of the vertices,
    # so True means g has a perfect elimination ordering: g is chordal, and
    # find_peo's LexBFS could not fail on it. False is final either way.
    chordal = verify_peo(g, peo_order(inst))
    diam, bound = engine.diameter_and_bound(g, inst.start, inst.target, inst.k)
    return InstanceStats(g.n, len(inst.start), diam, chordal, bound)


def instance_to_json(inst):
    out = engine.instance_to_json(inst.graph, inst.start, inst.target, inst.k)
    labels = {str(v): lab for v, lab in inst.label_map.items()}
    if labels:  # the graph document repeats them, in a dict of its own
        out["graph"]["labels"] = dict(labels)
    return out | {
        "labelMap": labels,
        "formula": {
            "numVars": inst.formula.num_vars,
            "clauses": [
                [(var + 1) if positive else -(var + 1) for var, positive in cl]
                for cl in inst.formula.clauses
            ],
        },
    }


def instance_from_json(data):
    g, start, target, k = engine.instance_from_json(
        data, "reduction instance", ("labelMap", "formula")
    )
    formula = json_object(data["formula"], "formula", ("numVars", "clauses"))
    num_vars = json_int(formula["numVars"], "numVars")
    if num_vars < 0:
        raise CnfError(f"numVars must be nonnegative, got {num_vars}")
    clauses = []
    for cl in json_list(formula["clauses"], "clauses"):
        lits = json_ints(cl, "clause")
        if not all(0 < abs(lit) <= num_vars for lit in lits):
            raise CnfError(f"clause {lits} names a variable outside 1..{num_vars}")
        clauses.append(_clause(lits))
    labels = json_vertex_keys(data["labelMap"], g.n, "labelMap")
    for v, lab in labels.items():
        if not isinstance(lab, str):
            raise GraphError(f"label of vertex {v} must be a string, got {lab!r}")
    return ReductionInstance(
        g, k, start, target, labels, CnfFormula(num_vars, tuple(clauses))
    )
