"""Five-node activity segments: temporal chain enumeration and features.

A node-set is a simple path of K distinct nodes whose K-1 edges carry
non-decreasing timestamps. Enumeration anchors on each edge in global
temporal order, tries both orientations, and extends depth-first from the
tail of the path, earliest candidate edge first.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .embed import WeightTable
from .graph import Graph

DEFAULT_SET_SIZE = 5
DEFAULT_CAP_PER_ANCHOR = 8
# Features are composed in fixed-size batches so the arithmetic order never
# depends on corpus size or worker count.
FEATURE_CHUNK = 32768
# Reach bounds are stored one byte per half-edge; deeper reach saturates here.
REACH_LIMIT = 255


@dataclass(frozen=True)
class NodeSet:
    """An ordered chain of distinct node ids plus the edges linking them."""

    node_ids: tuple[str, ...]
    edge_indices: tuple[int, ...]
    anchor_ts: int
    feature: np.ndarray | None = field(default=None, compare=False)


class _HalfEdges(NamedTuple):
    """Both ends of every non-self-loop event, grouped by node.

    Node v owns positions bounds[k]:bounds[k + 1] of the flat lists, where
    k = block[v], in (timestamp, edge index) order. reach[pos] bounds the
    edges that can still follow after crossing the half-edge at pos to its
    neighbor; into_object and into_subject hold, per event index, the bound
    after arriving at the event's object or subject, for the anchor's two
    orientations.
    """

    block: dict[str, int]
    bounds: list[int]
    ts: list[int]
    edge: list[int]
    neighbor: list[str]
    reach: bytes
    into_object: bytes
    into_subject: bytes


def _half_edges(graph: Graph, size: int) -> _HalfEdges:
    """Sorted half-edges plus their reach bounds, capped at size - 2.

    reach(e, v) is the length of the longest walk that can follow after
    arriving at v through e, each step taking an edge other than the one it
    arrived through and no earlier than it. Walks may revisit nodes, so the
    bound never undercounts what the DFS can still add. Self-loop events are
    left out; a chain can never use one.
    """
    block: dict[str, int] = {}
    subjects: list[int] = []
    objects: list[int] = []
    edges: list[int] = []
    stamps: list[int] = []
    for idx, ev in enumerate(graph.events):
        if ev.subject == ev.object:
            continue
        subjects.append(block.setdefault(ev.subject, len(block)))
        objects.append(block.setdefault(ev.object, len(block)))
        edges.append(idx)
        stamps.append(ev.ts)
    m = len(edges)
    n = 2 * m
    if not m:
        empty = bytes(len(graph.events))
        return _HalfEdges(block, [0], [], [], [], b"", empty, empty)
    # Half-edge h < m sits at the subject of edges[h], h >= m at its object.
    # Timestamps enter numpy as dense ranks, so no value can overflow int64.
    rank = {t: r for r, t in enumerate(sorted(set(stamps)))}
    ts = np.array([rank[t] for t in stamps] * 2, dtype=np.int64)
    node = np.array(subjects + objects, dtype=np.int64)
    order = np.lexsort((np.arange(n) % m, ts, node))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    twin = pos[(order + m) % n]
    node_s = node[order]
    # Every block number owns at least one half-edge, so the blocks tile.
    bounds = np.searchsorted(node_s, np.arange(len(block) + 1))
    # Where bisect_left starts each half-edge's scan (the first of its node's
    # edges at its timestamp) and where its node's block ends.
    run_key = node_s * len(rank) + ts[order]
    run_start = np.searchsorted(run_key, run_key)
    node_end = bounds[node_s + 1]
    del node, ts, node_s, run_key

    # Pass t marks the half-edges with reach >= t: some other edge at the
    # node, no earlier, leads to a far end with reach >= t - 1.
    reach = np.zeros(n, dtype=np.uint8)
    level = np.ones(n, dtype=bool)
    for _ in range(min(size - 2, REACH_LIMIT)):
        ahead = level[twin]
        suffix = np.zeros(n + 1, dtype=np.int64)
        suffix[:n] = np.cumsum(ahead[::-1])[::-1]
        level = suffix[run_start] - suffix[node_end] - ahead > 0
        if not level.any():
            break
        reach += level
    into_object = np.zeros(len(graph.events), dtype=np.uint8)
    into_subject = np.zeros(len(graph.events), dtype=np.uint8)
    into_object[edges] = reach[pos[m:]]
    into_subject[edges] = reach[pos[:m]]

    names = list(block)
    half = order.tolist()
    return _HalfEdges(
        block=block,
        bounds=bounds.tolist(),
        ts=[stamps[h % m] for h in half],
        edge=[edges[h % m] for h in half],
        neighbor=[names[objects[h] if h < m else subjects[h - m]]
                  for h in half],
        reach=reach[twin].tobytes(),
        into_object=into_object.tobytes(),
        into_subject=into_subject.tobytes())


def enumerate_node_sets(graph: Graph, size: int = DEFAULT_SET_SIZE,
                        cap_per_anchor: int = DEFAULT_CAP_PER_ANCHOR) -> list[NodeSet]:
    """All capped temporal simple paths of `size` nodes, in deterministic order.

    Each result chain is produced exactly once, anchored at its first edge.
    cap_per_anchor bounds how many chains one anchor edge may emit across both
    of its orientations; 0 disables the cap. Branches whose reach bound falls
    short of the edges still needed are skipped; they could emit no chain, so
    the chains, their order and the cap's choice are those of the full DFS.
    """
    if size < 2:
        raise ValueError(f"set size must be at least 2, got {size}")
    if cap_per_anchor < 0:
        raise ValueError("cap_per_anchor must be 0 (unlimited) or positive")
    (block, bounds, ts_list, edge_list, neighbors, ahead, into_object,
     into_subject) = _half_edges(graph, size)
    want_edges = size - 1
    limit = min(size - 2, REACH_LIMIT)
    results: list[NodeSet] = []
    budget = cap_per_anchor if cap_per_anchor > 0 else None

    for anchor_idx, ev in enumerate(graph.events):
        if ev.subject == ev.object:
            continue
        remaining = budget
        for start, nxt, reach in ((ev.subject, ev.object, into_object),
                                  (ev.object, ev.subject, into_subject)):
            if remaining is not None and remaining <= 0:
                break
            if reach[anchor_idx] < limit:
                continue
            chain_nodes = [start, nxt]
            chain_edges = [anchor_idx]
            visited = {start, nxt}

            def extend(tail: str, last_ts: int) -> bool:
                """Depth-first growth; returns False once the budget is spent."""
                nonlocal remaining
                if len(chain_edges) == want_edges:
                    results.append(NodeSet(node_ids=tuple(chain_nodes),
                                           edge_indices=tuple(chain_edges),
                                           anchor_ts=ev.ts))
                    if remaining is not None:
                        remaining -= 1
                        return remaining > 0
                    return True
                k = block[tail]
                lo, hi = bounds[k], bounds[k + 1]
                need = min(want_edges - len(chain_edges) - 1, limit)
                for pos in range(bisect_left(ts_list, last_ts, lo, hi), hi):
                    neighbor = neighbors[pos]
                    if ahead[pos] < need or neighbor in visited:
                        continue
                    chain_nodes.append(neighbor)
                    chain_edges.append(edge_list[pos])
                    visited.add(neighbor)
                    alive = extend(neighbor, ts_list[pos])
                    visited.discard(neighbor)
                    chain_edges.pop()
                    chain_nodes.pop()
                    if not alive:
                        return False
                return True

            if want_edges == 1:
                results.append(NodeSet(node_ids=tuple(chain_nodes),
                                       edge_indices=tuple(chain_edges),
                                       anchor_ts=ev.ts))
                if remaining is not None:
                    remaining -= 1
            else:
                extend(nxt, ev.ts)
    return results


def featurize_sets(sets: list[NodeSet], graph: Graph, weights: WeightTable,
                   embedder) -> list[NodeSet]:
    """Attach feature vectors to enumerated chains in one vectorized pass.

    A chain's feature is the weighted sum of its node vectors, deliberately
    not normalized.
    """
    if not sets:
        return []
    ids = sorted({nid for s in sets for nid in s.node_ids})
    index = {nid: i for i, nid in enumerate(ids)}
    vectors = np.stack([embedder.node_vector(graph.nodes[nid]) for nid in ids])
    node_weights = np.array([weights.weight_for(graph.nodes[nid]) for nid in ids])

    out: list[NodeSet] = []
    for lo in range(0, len(sets), FEATURE_CHUNK):
        block = sets[lo:lo + FEATURE_CHUNK]
        idx = np.array([[index[nid] for nid in s.node_ids] for s in block])
        # One chain position at a time onto zeros is the order of a per-chain
        # sum (tests/oracles.compose_feature), bit for bit, without a
        # chains x K x dim gather.
        feats = np.zeros((len(block), vectors.shape[1]))
        term = np.empty_like(feats)
        for k in range(idx.shape[1]):
            np.take(vectors, idx[:, k], axis=0, out=term)
            term *= node_weights[idx[:, k], None]
            feats += term
        for s, feat in zip(block, feats):
            feat.setflags(write=False)
            out.append(NodeSet(node_ids=s.node_ids, edge_indices=s.edge_indices,
                               anchor_ts=s.anchor_ts, feature=feat))
    return out
