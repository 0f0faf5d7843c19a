"""Polynomial decision procedure for 2-Jump reconfigurability on split
graphs.

Configurations are first normalized to "typical" form (no token on the
clique), then compared purely through their per-cluster token counts: cluster
slack against the minimum clique-side neighborhood |N_i| classifies clusters
as Free, Pseudo-free or Bound, once per distribution; a distribution is
frozen exactly when none of its clusters is freeable, and the remaining
cases reduce to a counting condition on |U^B|.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .engine import _check_pair
from .graph import GraphError, SplitDecomposition, recognize_split


class ClusterKind(enum.Enum):
    FREE = "free"
    PSEUDO_FREE = "pseudo-free"
    BOUND = "bound"


@dataclass
class Decision:
    reconfigurable: bool
    trace: list = field(default_factory=list)

    def __bool__(self):
        return self.reconfigurable


def normalize_typical(dec, config):
    """Move the (at most one) clique token to the lowest-id empty vertex of
    the independent part. The landing vertex is never blocked: all remaining
    tokens sit in the edgeless independent part."""
    config = frozenset(config)
    clique_tokens = config & dec.clique_part
    if not clique_tokens:
        return config
    if len(config) > len(dec.indep_part):
        raise GraphError(
            f"configuration has {len(config)} tokens, more than the"
            f" {len(dec.indep_part)} vertices of the independent part,"
            " so it is not an independent set"
        )
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
    """Cluster kinds from slack = |U_i| - count_i versus |N_i|."""
    out = []
    for c, cnt in zip(dec.clusters, d):
        slack = len(c.u_side) - cnt
        if slack >= c.n_size:
            out.append(ClusterKind.FREE)
        elif slack == c.n_size - 1:
            out.append(ClusterKind.PSEUDO_FREE)
        else:
            out.append(ClusterKind.BOUND)
    return out


def freeable_set(dec, d):
    """Clusters already Free plus Pseudo-free clusters that can shed a token
    into an empty slot of another cluster, from one classification pass.
    Empty exactly when d is frozen (all clusters Bound, or no Free cluster
    and every Pseudo-free one seeing only full clusters elsewhere): either
    case leaves nothing freeable, and an empty set has no Free cluster and
    only Pseudo-free clusters that see full ones, or none, so all Bound."""
    open_ = {i for i, (c, cnt) in enumerate(zip(dec.clusters, d)) if cnt < len(c.u_side)}
    return {
        i
        for i, kind in enumerate(classify(dec, d))
        if kind is ClusterKind.FREE or (kind is ClusterKind.PSEUDO_FREE and open_ - {i})
    }


def is_frozen(dec, d):
    """The distribution cannot change: no cluster is freeable."""
    return not freeable_set(dec, d)


def condition(dec, size, i):
    """Counting condition: some kappa in {0,1,2} with |N_i| >= kappa and
    |U^B| >= size + |N_i| + |N_0| - kappa. A larger kappa only lowers the
    bound, so the largest one allowed, min(|N_i|, 2), decides."""
    ni = dec.clusters[i].n_size
    return len(dec.indep_part) >= size + ni + dec.clusters[0].n_size - min(ni, 2)


def decide2(g, s, t, dec=None):
    """2-Jump reconfigurability decision for split graphs, with a trace of
    the rule applied at each step. A precomputed `recognize_split(g)` may be
    passed as dec to amortize recognition over many queries."""
    s, t = _check_pair(g, s, t, 2)
    trace = []
    if dec is None:
        dec = recognize_split(g)  # NotSplitError on non-split input

    # Isolated vertices can neither emit nor receive tokens at any k. They
    # are the leading clusters, those with an empty clique side; strip them.
    i = 0
    while i < len(dec.clusters) and not dec.clusters[i].v_side:
        i += 1
    if i:
        iso = frozenset().union(*(c.u_side for c in dec.clusters[:i]))
        if s & iso != t & iso:
            trace.append("isolated-vertex token mismatch")
            return Decision(False, trace)
        trace.append("isolated vertices stripped")
        s, t = s - iso, t - iso
        if i == len(dec.clusters):
            trace.append("empty core: trivially reconfigurable")
            return Decision(True, trace)
        dec = SplitDecomposition(dec.clique_part, dec.indep_part - iso, dec.clusters[i:])

    s = normalize_typical(dec, s)
    t = normalize_typical(dec, t)
    ds, dt = distribution(dec, s), distribution(dec, t)

    fs, ft = freeable_set(dec, ds), freeable_set(dec, dt)
    if not fs or not ft:  # frozen
        ok = ds == dt
        trace.append(
            "frozen distribution: reconfigurable iff distributions match"
            f" ({'match' if ok else 'differ'})"
        )
        return Decision(ok, trace)

    common = fs & ft
    if common:
        trace.append(f"common free(able) cluster {sorted(common)}: yes")
        return Decision(True, trace)

    # clusters ascend by |N_i|, so the lowest index has the smallest |N_i|
    i_s, i_t = min(fs), min(ft)
    cs, ct = condition(dec, len(s), i_s), condition(dec, len(t), i_t)
    trace.append(
        f"counting condition on clusters {i_s}/{i_t}: "
        f"{'holds' if cs else 'fails'}/{'holds' if ct else 'fails'}"
    )
    return Decision(cs and ct, trace)
