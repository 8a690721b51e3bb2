"""Independent reference implementations the tests compare against.

Everything here is written straight from the documented contracts using the
dumbest data structures that work: raw event-list scans, plain dict counters,
pure-Python arithmetic. None of it shares code with the package internals.
"""

import math
import random

from provprune.ingest import SYSCALL_OBJECT_KIND, Event, NodeRecord


def brute_force_chains(events, size):
    """Every simple path of `size` distinct nodes with non-decreasing edge ts.

    Works directly off the event list: at each step it scans all events for
    one incident to the chain tail, later-or-equal in time, leading somewhere
    new. Returns a set of (node_ids, edge_indices) pairs.
    """
    found = set()

    def grow(nodes, edges, last_ts):
        if len(nodes) == size:
            found.add((tuple(nodes), tuple(edges)))
            return
        tail = nodes[-1]
        for idx, ev in enumerate(events):
            if ev.ts < last_ts:
                continue
            if ev.subject == tail and ev.object not in nodes:
                grow(nodes + [ev.object], edges + [idx], ev.ts)
            elif ev.object == tail and ev.subject not in nodes:
                grow(nodes + [ev.subject], edges + [idx], ev.ts)

    for idx, ev in enumerate(events):
        if ev.subject == ev.object:
            continue
        grow([ev.subject, ev.object], [idx], ev.ts)
        grow([ev.object, ev.subject], [idx], ev.ts)
    return found


def ordered_chains(events, size, cap_per_anchor):
    """Capped chains in emission order, from an unpruned depth-first search.

    Anchors on each non-self-loop event in list order, subject-first then
    object-first; from the tail it tries incident events later-or-equal in
    time, earliest (ts, index) first, leading somewhere new. A cap stops an
    anchor, across both orientations, after that many chains; 0 means none.
    Returns (node_ids, edge_indices, anchor_ts) triples.
    """
    incident = {}
    for idx, ev in enumerate(events):
        if ev.subject == ev.object:
            continue
        incident.setdefault(ev.subject, []).append((ev.ts, idx, ev.object))
        incident.setdefault(ev.object, []).append((ev.ts, idx, ev.subject))
    for entries in incident.values():
        entries.sort()
    found = []

    def grow(nodes, edges, last_ts, anchor_ts, budget):
        """Returns the budget left; None means unlimited."""
        if len(nodes) == size:
            found.append((tuple(nodes), tuple(edges), anchor_ts))
            return None if budget is None else budget - 1
        for ts, idx, neighbor in incident.get(nodes[-1], []):
            if ts < last_ts or neighbor in nodes:
                continue
            budget = grow(nodes + [neighbor], edges + [idx], ts, anchor_ts,
                          budget)
            if budget == 0:
                break
        return budget

    for idx, ev in enumerate(events):
        if ev.subject == ev.object:
            continue
        budget = cap_per_anchor or None
        for start, nxt in ((ev.subject, ev.object), (ev.object, ev.subject)):
            if budget == 0:
                break
            budget = grow([start, nxt], [idx], ev.ts, ev.ts, budget)
    return found


def recount_entity_events(events):
    """P_f by brute force: one increment per event per participating id."""
    counts = {}
    for ev in events:
        seen = {ev.subject, ev.object}
        for nid in seen:
            counts[nid] = counts.get(nid, 0) + 1
    return counts


def expected_weights(events, nodes_by_id):
    """ln(P / P_f) for files and netflows, straight from the definition."""
    counts = recount_entity_events(events)
    total = len(events)
    out = {}
    for nid, count in counts.items():
        node = nodes_by_id[nid]
        if node.kind in ("file", "netflow"):
            out[nid] = math.log(total) - math.log(count)
    return out


def python_cosine(a, b):
    """Cosine from scalar arithmetic; zero vectors compare as 0."""
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def exhaustive_removed_nodes(sets, reps, cutoff):
    """Every set against every representative, no vectorization, no ranks."""
    removed = set()
    for node_set in sets:
        feature = list(map(float, node_set.feature))
        for rep in reps:
            if python_cosine(feature, list(map(float, rep))) >= cutoff:
                removed.update(node_set.node_ids)
                break
    return removed


def sum_feature_by_hand(chain, weights, embedder):
    """Term-by-term Eq-style composition using plain Python lists."""
    dim = embedder.dim
    total = [0.0] * dim
    for node in chain:
        w = weights.weight_for(node)
        vec = embedder.node_vector(node)
        for i in range(dim):
            total[i] += w * float(vec[i])
    return total


def random_graph_records(rng, max_nodes=30, max_events=60,
                         allow_self_loops=False):
    """A small random corpus honoring the syscall/object-kind pairing."""
    n_proc = rng.randint(2, max(2, max_nodes // 2))
    n_file = rng.randint(0, max_nodes // 3)
    n_net = rng.randint(0, max_nodes // 6)
    nodes = []
    for i in range(n_proc):
        nodes.append(NodeRecord(id=f"p{i}", kind="process",
                                cmdline=f"cmd-{rng.randint(0, 9)}"))
    for i in range(n_file):
        nodes.append(NodeRecord(id=f"f{i}", kind="file",
                                path=f"/data/{rng.randint(0, 19)}"))
    for i in range(n_net):
        nodes.append(NodeRecord(id=f"n{i}", kind="netflow",
                                remote_addr="10.1.2.3",
                                remote_port=rng.randint(1, 9999)))
    by_kind = {"process": [n.id for n in nodes if n.kind == "process"],
               "file": [n.id for n in nodes if n.kind == "file"],
               "netflow": [n.id for n in nodes if n.kind == "netflow"]}
    syscalls = list(SYSCALL_OBJECT_KIND)
    events = []
    for _ in range(rng.randint(1, max_events)):
        syscall = rng.choice(syscalls)
        targets = by_kind[SYSCALL_OBJECT_KIND[syscall]]
        if not targets:
            continue
        subject = rng.choice(by_kind["process"])
        target = rng.choice(targets)
        if not allow_self_loops and subject == target:
            continue
        events.append(Event(subject=subject, object=target, syscall=syscall,
                            ts=rng.randint(1, 20)))
    return nodes, events


def make_rng(seed):
    return random.Random(seed)
