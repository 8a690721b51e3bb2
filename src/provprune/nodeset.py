"""Five-node activity segments: temporal chain enumeration and features.

A node-set is a simple path of K distinct nodes whose K-1 edges carry
non-decreasing timestamps. Enumeration anchors on each edge in global
temporal order, tries both orientations, and extends depth-first from the
tail of the path, earliest candidate edge first.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .constants import DEFAULT_CAP_PER_ANCHOR, DEFAULT_SET_SIZE
from .graph import Graph
from .ingest import EventTable

# Chains featurized per block. It bounds the size of the block's temporary
# (FEATURE_CHUNK x dim float64, 256 KB at dim 64, which stays in cache);
# each row's sum runs in chain position order whatever the chunk, so no bit
# depends on it.
FEATURE_CHUNK = 512
# Reach bounds are stored one byte per half-edge; deeper reach saturates here.
REACH_LIMIT = 255


@dataclass(frozen=True)
class NodeSet:
    """An ordered chain of distinct node ids plus the edges linking them."""

    node_ids: tuple[str, ...]
    edge_indices: tuple[int, ...]
    feature: np.ndarray | None = field(default=None, compare=False)


@dataclass(frozen=True, eq=False)
class ChainBatch:
    """Enumerated chains as integer rows over the node table they were
    enumerated from, whose ids list is ids.

    Row i of nodes holds chain i's K node numbers (rows of that table) in
    path order and row i of edges its K-1 event indices. features, once
    featurize_sets has run, is the read-only S x D feature matrix. Indexing
    and iteration give one NodeSet per row, its feature a row view.
    """

    ids: list[str]
    nodes: np.ndarray
    edges: np.ndarray
    features: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, i: int) -> NodeSet:
        return NodeSet(
            node_ids=tuple(map(self.ids.__getitem__, self.nodes[i].tolist())),
            edge_indices=tuple(self.edges[i].tolist()),
            feature=None if self.features is None else self.features[i])

    def __iter__(self) -> Iterator[NodeSet]:
        return map(self.__getitem__, range(len(self)))


class _HalfEdges(NamedTuple):
    """Both ends of every non-self-loop event, grouped by node number.

    Node v owns positions bounds[v]:bounds[v + 1] of the flat arrays, in
    (timestamp, edge index) order; a node without edges owns none. ts holds
    each half-edge's timestamp rank, dense among the kept events, so ranks
    compare as the timestamps do. reach[pos] bounds the edges that can
    still follow after crossing the half-edge at pos to its neighbor.
    anchors, starts, nexts and stamps list the anchor orientations whose
    bound lets them reach far enough: event index, first node, second node
    and timestamp rank, in event order, subject first.
    """

    bounds: array
    ts: array
    edge: array
    neighbor: array
    reach: bytes
    anchors: array
    starts: array
    nexts: array
    stamps: array


def _int_array(values: np.ndarray) -> array:
    """values as a C int array, which the search indexes like a list."""
    return array("i", values.astype(np.intc).tobytes())


def _half_edges(events: EventTable, node_count: int, size: int
                ) -> _HalfEdges:
    """Sorted half-edges plus their reach bounds, capped at size - 2.

    reach(e, v) is the length of the longest walk that can follow after
    arriving at v through e from u, each step taking an edge no earlier than
    the one before it and never stepping back to the node just left, over
    any of their edges. A simple path never takes that step, and walks may
    revisit every other node, so the bound never undercounts what the DFS
    can still add. Self-loop events are left out; a chain can never use one.
    """
    keep = np.flatnonzero(events.src != events.dst)
    m = len(keep)
    n = 2 * m
    # Timestamps enter the search and numpy arithmetic only as dense ranks,
    # so no value can overflow. Ranks and positions are int32, which holds
    # them below 2**30 events.
    rank = np.unique(events.ts[keep], return_inverse=True)[1].astype(np.int32)
    # Half-edge h < m sits at the subject of kept event h, h >= m at the
    # object of kept event h - m.
    subjects, objects = events.src[keep], events.dst[keep]
    node = np.concatenate([subjects, objects])
    ts = np.concatenate([rank, rank])
    half = np.arange(n, dtype=np.int32)
    order = np.lexsort((half % m, ts, node)).astype(np.int32)
    pos = np.empty(n, dtype=np.int32)
    pos[order] = half
    twin = np.concatenate([pos[m:], pos[:m]])[order]
    del pos
    node_s = node[order]
    ts_s = ts[order]
    neighbor_s = np.concatenate([objects, subjects])[order]
    del node, ts
    bounds = np.zeros(node_count + 1, dtype=np.int32)
    np.cumsum(np.bincount(node_s, minlength=node_count), out=bounds[1:])
    # Where bisect_left starts each half-edge's scan (the first of its node's
    # edges at its timestamp) and where its node's block ends.
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (node_s[1:] != node_s[:-1]) | (ts_s[1:] != ts_s[:-1])
    run_start = np.where(new_run, half, 0)
    np.maximum.accumulate(run_start, out=run_start)
    node_end = bounds[node_s + 1]
    # The same two ends among the half-edges to one neighbor, grouped in
    # by_pair in scan order: a step back to the node just left takes these.
    by_pair = np.lexsort((neighbor_s, node_s)).astype(np.int32)
    pair = node_s[by_pair].astype(np.int64) * node_count + neighbor_s[by_pair]
    ts_s = ts_s[by_pair]
    pair_change = pair[1:] != pair[:-1]
    new_run[1:] = pair_change | (ts_s[1:] != ts_s[:-1])
    pair_start = np.where(new_run, half, 0)
    np.maximum.accumulate(pair_start, out=pair_start)
    # Each pair group's end, set at its last half-edge and carried back.
    pair_end = np.full(n, n, dtype=np.int32)
    pair_end[:-1][pair_change] = np.flatnonzero(pair_change) + 1
    np.minimum.accumulate(pair_end[::-1], out=pair_end[::-1])
    del node_s, ts_s, new_run, half, pair, pair_change

    # Pass t marks the half-edges with reach >= t: some edge at the node,
    # no earlier, to another neighbor leads to a far end with reach >= t - 1.
    limit = min(size - 2, REACH_LIMIT)
    reach = np.zeros(n, dtype=np.uint8)
    level = np.ones(n, dtype=bool)
    suffix = np.zeros(n + 1, dtype=np.int32)
    back = np.zeros(n + 1, dtype=np.int32)
    for _ in range(limit):
        ahead = level[twin]
        np.cumsum(ahead[::-1], dtype=np.int32, out=suffix[:n][::-1])
        np.cumsum(ahead[by_pair][::-1], dtype=np.int32, out=back[:n][::-1])
        counts = suffix[run_start]
        counts -= suffix[node_end]
        counts[by_pair] -= back[pair_start] - back[pair_end]
        level = counts > 0
        if not level.any():
            break
        reach += level
    del run_start, node_end, suffix, back, level, by_pair, pair_start, pair_end
    # What the search reads at a half-edge: the reach past its neighbor.
    reach = reach[twin]
    del twin
    # Subject first, the anchor leaves its subject's half-edge; object
    # first, its object's.
    live = np.empty(n, dtype=bool)
    live[order] = reach >= limit
    live = live.reshape(2, m).T
    ends = np.stack([subjects, objects], axis=1)
    anchors = _int_array(np.stack([keep, keep], axis=1)[live])
    starts = _int_array(ends[live])
    nexts = _int_array(ends[:, ::-1][live])
    stamps = _int_array(np.stack([rank, rank], axis=1)[live])
    del live, ends, subjects, objects
    half = order % m
    del order
    return _HalfEdges(_int_array(bounds), _int_array(rank[half]),
                      _int_array(keep[half]), _int_array(neighbor_s),
                      reach.tobytes(), anchors, starts, nexts, stamps)


def enumerate_node_sets(graph: Graph, size: int = DEFAULT_SET_SIZE,
                        cap_per_anchor: int = DEFAULT_CAP_PER_ANCHOR
                        ) -> ChainBatch:
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
    (bounds, ts_list, edge_list, neighbors, ahead, anchors, starts,
     nexts, stamps) = _half_edges(graph.events, len(graph.table), size)
    want_edges = size - 1
    limit = min(size - 2, REACH_LIMIT)
    # Emitted chains, flattened: K node numbers and K - 1 edges per chain.
    out_nodes, out_edges = array("i"), array("i")
    previous = left = -1
    for anchor, start, nxt, stamp in zip(anchors, starts, nexts, stamps):
        # left counts down the chains the anchor may still emit; it never
        # reaches 0 without a cap.
        if anchor != previous:
            previous, left = anchor, cap_per_anchor or -1
        if not left:
            continue
        nodes, edges, visited = [start, nxt], [anchor], {start, nxt}
        # One scan per path node past the first: its half-edges no earlier
        # than the edge that reached it, resumed where the last step left.
        # A 2-node chain is its anchor and scans nothing.
        scans = []
        if want_edges > 1:
            lo, hi = bounds[nxt], bounds[nxt + 1]
            scans.append(iter(range(bisect_left(ts_list, stamp, lo, hi), hi)))
        else:
            out_nodes.extend(nodes)
            out_edges.extend(edges)
            left -= 1
        while scans:
            need = want_edges - 1 - len(scans)
            if need > limit:
                need = limit
            for pos in scans[-1]:
                tail = neighbors[pos]
                if ahead[pos] >= need and tail not in visited:
                    break
            else:
                scans.pop()
                visited.discard(nodes.pop())
                edges.pop()
                continue
            if len(scans) + 1 < want_edges:
                nodes.append(tail)
                edges.append(edge_list[pos])
                visited.add(tail)
                lo, hi = bounds[tail], bounds[tail + 1]
                scans.append(iter(range(
                    bisect_left(ts_list, ts_list[pos], lo, hi), hi)))
                continue
            out_nodes.extend(nodes)
            out_nodes.append(tail)
            out_edges.extend(edges)
            out_edges.append(edge_list[pos])
            left -= 1
            if not left:
                break
    # The search arrays go before the result is allocated, which can then
    # take their place instead of pinning the heap above them.
    del (bounds, ts_list, edge_list, neighbors, ahead, anchors, starts,
         nexts, stamps)

    nodes = np.array(out_nodes, dtype=np.intp).reshape(-1, size)
    edges = np.array(out_edges, dtype=np.intp).reshape(-1, want_edges)
    return ChainBatch(ids=graph.table.ids, nodes=nodes, edges=edges)


def chain_counts(sets: ChainBatch, cap_per_anchor: int) -> dict[str, int]:
    """Chains, the anchor edges that emitted any, and the capped anchors:
    those that emitted cap_per_anchor chains (none when the cap is 0)."""
    _, per_anchor = np.unique(sets.edges[:, 0], return_counts=True)
    capped = int((per_anchor >= cap_per_anchor).sum()) if cap_per_anchor else 0
    return {"chains": len(sets), "anchor_edges": len(per_anchor),
            "capped_anchors": capped}


def featurize_sets(sets: ChainBatch, graph: Graph, weights: np.ndarray,
                   embedder) -> ChainBatch:
    """The batch with its feature matrix, composed in one vectorized pass.

    A chain's feature is the weighted sum of its node vectors, deliberately
    not normalized. weights holds one weight per row of graph's node table
    (embed.compute_weights). The embedder is asked once per distinct
    attribute text, through the record of the first node that carries it.
    The batch must number nodes as graph does.
    """
    table, nodes = graph.table, sets.nodes
    if len(weights) != len(table):
        raise ValueError(f"{len(weights)} weights for a graph of "
                         f"{len(table)} nodes")
    if not len(sets):
        return replace(sets, features=np.zeros((0, embedder.dim)))
    seen = np.zeros(len(table), dtype=bool)
    seen[nodes] = True
    used = np.flatnonzero(seen)
    # Equal texts share one code, so the codes number the distinct texts.
    codes, first, slot = np.unique(table.text[used], return_index=True,
                                   return_inverse=True)
    vectors = [None] * len(codes)
    for j in np.argsort(first, kind="stable").tolist():
        vectors[j] = embedder.node_vector(table[int(used[first[j]])])
    text_vectors = np.stack(vectors)
    slot_of = np.zeros(len(table), dtype=np.intp)
    slot_of[used] = slot
    del seen, used, codes, first, slot, vectors

    features = np.zeros((len(sets), text_vectors.shape[1]))
    for lo in range(0, len(sets), FEATURE_CHUNK):
        block = nodes[lo:lo + FEATURE_CHUNK]
        feats = features[lo:lo + len(block)]
        # One chain position at a time onto zeros is the order of a per-chain
        # sum (tests/oracles.compose_feature), bit for bit, without a
        # chains x K x dim gather or a per-node vector matrix.
        term = np.empty_like(feats)
        for column in block.T:
            np.take(text_vectors, slot_of[column], axis=0, out=term)
            term *= weights[column, None]
            feats += term
    features.setflags(write=False)
    return replace(sets, features=features)
