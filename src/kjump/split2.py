"""Polynomial decision procedure for 2-Jump reconfigurability on split
graphs.

Configurations are first normalized to "typical" form (no token on the
clique), then compared purely through their per-cluster token counts: cluster
slack against the minimum clique-side neighborhood |N_i| classifies clusters
as Free, Pseudo-free or Bound, frozen distributions are detected, and the
remaining cases reduce to a counting condition on |U^B|.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .graph import GraphError, is_independent, recognize_split


class ClusterKind(enum.Enum):
    FREE = "free"
    PSEUDO_FREE = "pseudo-free"
    BOUND = "bound"


@dataclass(frozen=True)
class ClusterClass:
    kind: ClusterKind
    full: bool


@dataclass
class Decision:
    reconfigurable: bool
    trace: list = field(default_factory=list)

    def __bool__(self):
        return self.reconfigurable


def normalize_typical(g, dec, config):
    """Move the (at most one) clique token to the lowest-id empty vertex of
    the independent part. The landing vertex is never blocked: all remaining
    tokens sit in the edgeless independent part."""
    config = frozenset(config)
    clique_tokens = config & dec.clique_part
    if not clique_tokens:
        return config
    if len(config) > len(dec.indep_part):
        raise GraphError("no room in the independent part; trivial-yes regime")
    (a,) = clique_tokens
    target = min(v for v in dec.indep_part if v not in config)
    return config - {a} | {target}


def distribution(dec, config):
    """Per-cluster token counts of a typical configuration."""
    config = frozenset(config)
    if config & dec.clique_part:
        raise GraphError("configuration is not typical")
    return tuple(len(config & c.u_side) for c in dec.clusters)


def classify(dec, d):
    """Cluster classes from slack = |U_i| - count_i versus |N_i|."""
    out = []
    for c, cnt in zip(dec.clusters, d):
        slack = len(c.u_side) - cnt
        if slack >= c.n_size:
            kind = ClusterKind.FREE
        elif slack == c.n_size - 1:
            kind = ClusterKind.PSEUDO_FREE
        else:
            kind = ClusterKind.BOUND
        out.append(ClusterClass(kind, cnt == len(c.u_side)))
    return out


def is_frozen(dec, d):
    """Distribution cannot change: all clusters Bound, or no Free cluster and
    every Pseudo-free cluster sees only full clusters elsewhere."""
    classes = classify(dec, d)
    kinds = [c.kind for c in classes]
    if all(k is ClusterKind.BOUND for k in kinds):
        return True
    if any(k is ClusterKind.FREE for k in kinds):
        return False
    pf = [i for i, k in enumerate(kinds) if k is ClusterKind.PSEUDO_FREE]
    if not pf:
        return False
    return all(
        classes[j].full for i in pf for j in range(len(classes)) if j != i
    )


def freeable_set(dec, d):
    """Clusters already Free plus Pseudo-free clusters that can shed one token
    into some other cluster's empty slot (checked at distribution level)."""
    if is_frozen(dec, d):
        raise GraphError("freeable_set on a frozen distribution")
    classes = classify(dec, d)
    out = set()
    for i, cls in enumerate(classes):
        if cls.kind is ClusterKind.FREE:
            out.add(i)
        elif cls.kind is ClusterKind.PSEUDO_FREE:
            if any(
                d[j] < len(dec.clusters[j].u_side)
                for j in range(len(d))
                if j != i
            ):
                out.add(i)
    return out


def condition(dec, size, i):
    """Counting condition: some kappa in {0,1,2} with |N_i| >= kappa and
    |U^B| >= size + |N_i| + |N_0| - kappa."""
    ub = len(dec.indep_part)
    ni = dec.clusters[i].n_size
    n0 = dec.clusters[0].n_size
    return any(ni >= kp and ub >= size + ni + n0 - kp for kp in (0, 1, 2))


def _best_index(dec, indices):
    return min(indices, key=lambda i: (dec.clusters[i].n_size, i))


def decide2(g, s, t, dec=None):
    """2-Jump reconfigurability decision for split graphs, with a trace of
    the rule applied at each step. A precomputed `recognize_split(g)` may be
    passed as dec to amortize recognition over many queries."""
    s, t = frozenset(s), frozenset(t)
    if not is_independent(g, s) or not is_independent(g, t):
        raise GraphError("start and target must be independent sets")
    if len(s) != len(t):
        raise GraphError(f"size mismatch: |s| = {len(s)}, |t| = {len(t)}")
    trace = []

    # Isolated vertices can neither emit nor receive tokens at any k. Each
    # one is a cluster with an empty clique side; drop those clusters.
    iso = frozenset(v for v, nb in enumerate(g.adj_mask) if not nb)
    if iso:
        if s & iso != t & iso:
            trace.append("isolated-vertex token mismatch")
            return Decision(False, trace)
        trace.append("isolated vertices stripped")
        s, t = s - iso, t - iso
        if len(iso) == g.n:
            trace.append("empty core: trivially reconfigurable")
            return Decision(True, trace)

    if dec is None:
        dec = recognize_split(g)  # raises NotSplitError on non-split input
    if iso:
        dec = replace(
            dec,
            indep_part=dec.indep_part - iso,
            clusters=tuple(c for c in dec.clusters if c.v_side),
        )
    if len(s) > len(dec.indep_part):
        trace.append("more tokens than independent-part vertices: always yes")
        return Decision(True, trace)

    s = normalize_typical(g, dec, s)
    t = normalize_typical(g, dec, t)
    ds, dt = distribution(dec, s), distribution(dec, t)

    if is_frozen(dec, ds) or is_frozen(dec, dt):
        ok = ds == dt
        trace.append(
            "frozen distribution: reconfigurable iff distributions match"
            f" ({'match' if ok else 'differ'})"
        )
        return Decision(ok, trace)

    fs, ft = freeable_set(dec, ds), freeable_set(dec, dt)
    common = fs & ft
    if common:
        trace.append(f"common free(able) cluster {sorted(common)}: yes")
        return Decision(True, trace)

    i_s, i_t = _best_index(dec, fs), _best_index(dec, ft)
    cs = condition(dec, len(s), i_s)
    ct = condition(dec, len(t), i_t)
    trace.append(
        f"counting condition on clusters {i_s}/{i_t}: "
        f"{'holds' if cs else 'fails'}/{'holds' if ct else 'fails'}"
    )
    return Decision(cs and ct, trace)
