"""Independent reference implementations the tests compare against.

Everything here is written straight from the documented contracts using the
dumbest data structures that work: raw event-list scans, plain dict counters,
pure-Python arithmetic. None of it shares logic with the package internals;
the reference labeler builds the package's table types only so that tables
compare byte for byte. The graph fixtures (graph_of, synth_graph) are not
references: they send their records through the package's own parser, the
only way records become columns.
"""

import hashlib
import io
import json
import math
import random
import zipfile
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from provprune.embed import candidate_window, effective_threshold
from provprune.graph import build_graph, write_graph
from provprune.ingest import (
    KIND_PROCESS,
    SYSCALL_NAMES,
    SYSCALL_OBJECT_KIND,
    NodeRecord,
    ParseStats,
    parse_stream,
)
from provprune.label import BENIGN, MALICIOUS, LabelTable
from provprune.nodeset import ChainBatch


class Event(NamedTuple):
    """A syscall-typed edge record: the subject is always a process."""

    subject: str
    object: str
    syscall: str
    ts: int


def event_records(events):
    """An EventTable's rows as Events, in table order."""
    ids = events.ids
    return [Event(ids[s], ids[d], SYSCALL_NAMES[call], ts)
            for s, d, call, ts in zip(events.src.tolist(),
                                      events.dst.tolist(),
                                      events.syscall.tolist(),
                                      events.ts.tolist())]


def parse_records(parsed):
    """A parse_stream result as the reference parser gives it: node records,
    event records and the tallies."""
    nodes, events, stats = parsed
    return list(nodes), event_records(events), stats


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
    Returns (node_ids, edge_indices) pairs.
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

    def grow(nodes, edges, last_ts, budget):
        """Returns the budget left; None means unlimited."""
        if len(nodes) == size:
            found.append((tuple(nodes), tuple(edges)))
            return None if budget is None else budget - 1
        for ts, idx, neighbor in incident.get(nodes[-1], []):
            if ts < last_ts or neighbor in nodes:
                continue
            budget = grow(nodes + [neighbor], edges + [idx], ts, budget)
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
            budget = grow([start, nxt], [idx], ev.ts, budget)
    return found


# Global temporal order, one key tuple per event: (ts, subject, object,
# syscall). build_graph's order must equal a stable sort by it.
temporal_order = itemgetter(3, 0, 1, 2)


def recount_entity_events(events):
    """P_f by brute force: one increment per event per participating id."""
    counts = {}
    for ev in events:
        seen = {ev.subject, ev.object}
        for nid in seen:
            counts[nid] = counts.get(nid, 0) + 1
    return counts


def event_node_ids(graph):
    """Ids of nodes incident to at least one event."""
    incident = set()
    for ev in event_records(graph.events):
        incident.add(ev.subject)
        incident.add(ev.object)
    return incident


def degree_counts(graph):
    """Edge-endpoint tallies; a self-loop contributes 2 to its node."""
    deg = {}
    for ev in event_records(graph.events):
        for nid in (ev.subject, ev.object):
            deg[nid] = deg.get(nid, 0) + 1
    return deg


def entity_event_counts(stats):
    """CorpusStats' nonzero per-entity event counts, keyed by node id."""
    return {stats.ids[v]: int(stats.entity_counts[v])
            for v in np.flatnonzero(stats.entity_counts).tolist()}


def corpus_stats_counts(stats):
    """What CorpusStats counts, whatever the node numbering: the total, the
    per-entity counts by id and the per-syscall counts by name."""
    return (stats.total_events, entity_event_counts(stats),
            dict(stats.per_syscall_count))


def same_graph(a, b):
    """Whether graphs a and b hold the same nodes and events, whatever their
    numbering: node records by ascending id, then events in order."""
    return (list(map(a.table.__getitem__, a.order.tolist()))
            == list(map(b.table.__getitem__, b.order.tolist()))
            and event_records(a.events) == event_records(b.events))


def reference_corpus_stats(events, nodes):
    """Per-event tallies, one dict increment at a time.

    Returns (total_events, per_entity_event_count, per_syscall_count,
    cmdline_frequency); command lines are keyed with whitespace runs
    collapsed, one count per event whose subject is a declared process with
    a command line that is not empty once collapsed.
    """
    by_id = {n.id: n for n in nodes}
    per_entity, per_syscall, cmdlines = {}, {}, {}
    for ev in events:
        per_syscall[ev.syscall] = per_syscall.get(ev.syscall, 0) + 1
        for nid in {ev.subject, ev.object}:
            per_entity[nid] = per_entity.get(nid, 0) + 1
        subject = by_id.get(ev.subject)
        if subject is not None and subject.kind == "process":
            key = " ".join(subject.cmdline.split())
            if key:
                cmdlines[key] = cmdlines.get(key, 0) + 1
    return len(events), per_entity, per_syscall, cmdlines


def reference_ioc_matches(graph, iocs):
    """The ids of the nodes whose attribute text contains some IoC, plus the
    IoCs no node's text contains; every node scans the whole IoC list."""
    matched = sorted(node_id for node_id, node in graph.nodes.items()
                     if any(ioc and ioc in node.attr_text() for ioc in iocs))
    unmatched = [ioc for ioc in dict.fromkeys(iocs)
                 if not any(ioc and ioc in node.attr_text()
                            for node in graph.nodes.values())]
    return matched, unmatched


def _reference_port(value):
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    if not 0 <= value <= 65535:
        return None
    return value


def _reference_ts(value):
    """A record's timestamp: 0 when absent, None unless an int in int64."""
    if value is None:
        return 0
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    if not -2 ** 63 <= value <= 2 ** 63 - 1:
        return None
    return value


def _surrogate_pair(text):
    """Whether a high surrogate directly precedes a low one in text: its
    JSON escapes would read back as one character."""
    return any("\ud800" <= high <= "\udbff" and "\udc00" <= low <= "\udfff"
               for high, low in zip(text, text[1:]))


def _reference_node(obj):
    node_id = obj.get("id")
    if not isinstance(node_id, str) or not node_id:
        return None
    ts = _reference_ts(obj.get("ts"))
    if ts is None:
        return None
    kind = obj["kind"]
    if kind == "process":
        cmdline = obj.get("cmdline", "")
        if not isinstance(cmdline, str):
            return None
        return NodeRecord(id=node_id, kind=kind, cmdline=cmdline, first_seen=ts)
    if kind == "file":
        path = obj.get("path", "")
        if not isinstance(path, str):
            return None
        return NodeRecord(id=node_id, kind=kind, path=path, first_seen=ts)
    raddr = obj.get("raddr", "")
    laddr = obj.get("laddr", "")
    rport = _reference_port(obj.get("rport", 0))
    lport = _reference_port(obj.get("lport", 0))
    if not isinstance(raddr, str) or not isinstance(laddr, str):
        return None
    if rport is None or lport is None:
        return None
    return NodeRecord(id=node_id, kind=kind, remote_addr=raddr, remote_port=rport,
                      local_addr=laddr, local_port=lport, first_seen=ts)


def reference_parse_stream(lines, synthesize_dangling=False):
    """The record-at-a-time parser: json.loads, isinstance checks, one helper
    per node record, and a second pass that checks endpoints.

    Takes str lines only. Lines json.loads cannot turn into a value (bad
    JSON, an integer too long to convert, nesting too deep) and records whose
    kind is neither "event" nor a node kind are malformed lines. A node or
    event whose id or text holds a high surrogate directly followed by a low
    one is malformed.
    An undeclared endpoint gets one placeholder, the subject's first, so a
    self-loop on an undeclared id mints one process.
    """
    nodes = {}
    pending = []
    stats = ParseStats()

    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            stats.malformed_lines += 1
            continue
        if not isinstance(obj, dict):
            stats.malformed_lines += 1
            continue
        kind = obj.get("kind")
        if kind == "event":
            syscall = obj.get("syscall")
            subject = obj.get("subject")
            target = obj.get("object")
            ts = obj.get("ts")
            if (not isinstance(syscall, str) or not isinstance(subject, str)
                    or not isinstance(target, str) or not subject or not target
                    or isinstance(ts, bool) or not isinstance(ts, int)
                    or not -2 ** 63 <= ts <= 2 ** 63 - 1
                    or _surrogate_pair(subject) or _surrogate_pair(target)):
                stats.malformed_events += 1
                continue
            if syscall not in SYSCALL_OBJECT_KIND:
                stats.dropped_events += 1
                continue
            pending.append((subject, target, syscall, ts))
        elif kind in ("process", "file", "netflow"):
            record = _reference_node(obj)
            if record is None or any(map(_surrogate_pair, (
                    record.id, record.attr_text(), record.local_addr))):
                stats.malformed_nodes += 1
            elif record.id in nodes:
                stats.duplicate_nodes += 1
            else:
                nodes[record.id] = record
                stats.accepted_nodes += 1
        else:
            stats.malformed_lines += 1

    events = []
    for subject, target, syscall, ts in pending:
        want_kind = SYSCALL_OBJECT_KIND[syscall]
        subj_rec = nodes.get(subject)
        obj_rec = nodes.get(target)
        if subj_rec is None or obj_rec is None:
            if not synthesize_dangling:
                stats.dangling_events += 1
                continue
            if subj_rec is None:
                subj_rec = NodeRecord(id=subject, kind=KIND_PROCESS)
                nodes[subject] = subj_rec
                stats.synthesized_nodes += 1
            obj_rec = nodes.get(target)
            if obj_rec is None:
                obj_rec = NodeRecord(id=target, kind=want_kind)
                nodes[target] = obj_rec
                stats.synthesized_nodes += 1
        if subj_rec.kind != KIND_PROCESS or obj_rec.kind != want_kind:
            stats.malformed_events += 1
            continue
        events.append(Event(subject=subject, object=target, syscall=syscall, ts=ts))
        stats.accepted_events += 1

    return list(nodes.values()), events, stats


def total_event_records(stats):
    """Event records the parser saw, whatever became of them."""
    return (stats.accepted_events + stats.dropped_events
            + stats.malformed_events + stats.dangling_events)


def record_lines(nodes, events, ensure_ascii=True):
    """Input lines declaring ``nodes`` then ``events``, in list order;
    non-ASCII, lone surrogates included, is left unescaped unless
    ensure_ascii."""
    lines = []
    for n in nodes:
        obj = {"kind": n.kind, "id": n.id, "ts": n.first_seen}
        if n.kind == "process":
            obj["cmdline"] = n.cmdline
        elif n.kind == "file":
            obj["path"] = n.path
        else:
            obj.update(raddr=n.remote_addr, rport=n.remote_port,
                       laddr=n.local_addr, lport=n.local_port)
        lines.append(json.dumps(obj, ensure_ascii=ensure_ascii))
    lines.extend(json.dumps({"kind": "event", "subject": ev.subject,
                             "object": ev.object, "syscall": ev.syscall,
                             "ts": ev.ts}, ensure_ascii=ensure_ascii)
                 for ev in events)
    return lines


def graph_of(nodes, events):
    """The graph of the records: their lines through parse_stream, then
    build_graph. The parser keeps the first of nodes sharing an id and
    drops events it counts as malformed or dangling."""
    return build_graph(*parse_stream(record_lines(nodes, events))[:2])


def reference_graph_lines(nodes, events):
    """The JSONL export of node records and events in their order, built as
    dicts and encoded one json.dumps at a time."""
    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    lines = []
    for n in sorted(nodes, key=lambda n: n.id):
        if n.kind == "process":
            obj = {"kind": n.kind, "id": n.id, "cmdline": n.cmdline,
                   "ts": n.first_seen}
        elif n.kind == "file":
            obj = {"kind": n.kind, "id": n.id, "path": n.path,
                   "ts": n.first_seen}
        else:
            obj = {"kind": n.kind, "id": n.id, "laddr": n.local_addr,
                   "lport": n.local_port, "raddr": n.remote_addr,
                   "rport": n.remote_port, "ts": n.first_seen}
        lines.append(dumps(obj))
    for ev in events:
        lines.append(dumps({"kind": "event", "syscall": ev.syscall,
                            "subject": ev.subject, "object": ev.object,
                            "ts": ev.ts}))
    return lines


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


def reference_embed_text(text, dim, seed):
    """The hashing embedder written out: one blake2b and one += per gram."""
    vec = np.zeros(dim, dtype=np.float64)
    if not text:
        vec[0] = 1.0
        return vec
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    padded = "<" + text + ">"
    grams = [b"\x00" + padded.encode("utf-8", "surrogatepass")]
    for n in (3, 4, 5):
        grams.extend(padded[i:i + n].encode("utf-8", "surrogatepass")
                     for i in range(len(padded) - n + 1))
    for gram in grams:
        h = int.from_bytes(
            hashlib.blake2b(gram, digest_size=8, key=key).digest(), "little")
        vec[h % dim] += 1.0 if h >> 63 else -1.0
    norm = math.sqrt(float(np.dot(vec, vec)))
    if norm == 0.0:
        vec[:] = 0.0
        vec[0] = 1.0
        return vec
    return vec / norm


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


def removed_ids(graph, report):
    """The ids of the nodes that report's mask removes from graph."""
    ids = graph.table.ids
    return {ids[v] for v in np.flatnonzero(report.removed).tolist()}


def reference_match_ranks(features, reps, cutoff):
    """Per feature row, the lowest rank of a rep it scores at or above
    cutoff with, or -1: every row against every rep, in scalar arithmetic."""
    reps = [list(map(float, rep)) for rep in reps]
    ranks = []
    for feature in features:
        feature = list(map(float, feature))
        ranks.append(next((k for k, rep in enumerate(reps)
                           if python_cosine(feature, rep) >= cutoff), -1))
    return ranks


def sequential_labels(sets, malicious_ids, cutoff):
    """Label one chain at a time: one gemv against every earlier label.

    A chain joins the first most similar label at or above the cutoff, or
    mints a label whose polarity comes from its own nodes. Zero vectors mint
    and keep a zero row, so they compare as 0 with every later chain.
    """
    table = LabelTable()
    founding, rows = [], []
    for node_set in sets:
        feature = node_set.feature
        norm = float(np.linalg.norm(feature))
        normalized = feature / norm if norm != 0.0 else None
        if normalized is not None and rows:
            sims = np.array(rows) @ normalized
            best = int(np.argmax(sims))
            if float(sims[best]) >= cutoff:
                table.member_count[best] += 1
                table.assignment.append(best)
                continue
        table.assignment.append(len(founding))
        table.polarity.append(MALICIOUS if set(node_set.node_ids)
                              & malicious_ids else BENIGN)
        table.member_count.append(1)
        founding.append(np.array(feature, dtype=np.float64))
        table.zero_vector_sets += normalized is None
        rows.append(np.zeros(feature.shape[0]) if normalized is None
                    else normalized)
    if founding:
        table.representatives = np.stack(founding)
    return table


def weights_by_id(nodes, weights):
    """A weight column (compute_weights) keyed by the ids of the node table
    it is a column of."""
    assert len(weights) == len(nodes.ids)
    return dict(zip(nodes.ids, weights.tolist()))


def weight_for(weights, node):
    """A node record's weight in reference_weights, or in weights_by_id of
    a weight column. Every node has one."""
    return weights[node.id]


def compose_feature(chain, weights, embedder):
    """Weighted sum of the chain's node vectors, one numpy add per node.

    featurize_sets must equal this bit for bit.
    """
    total = np.zeros(embedder.dim, dtype=np.float64)
    for node in chain:
        total = total + weight_for(weights, node) * embedder.node_vector(node)
    return total


def sum_feature_by_hand(chain, weights, embedder):
    """Term-by-term Eq-style composition using plain Python lists."""
    dim = embedder.dim
    total = [0.0] * dim
    for node in chain:
        w = weight_for(weights, node)
        vec = embedder.node_vector(node)
        for i in range(dim):
            total[i] += w * float(vec[i])
    return total


def window_edge_features(rng, count, dim, threshold):
    """Rows that stress the candidate window of the cosine scans.

    Unit rows come in clusters: members sit 1e-12 to 1e-5 apart, or about
    as far apart as two rows scoring exactly the cutoff (just inside and
    just outside). A member lies off its cluster's first row in a random
    direction, across the window's direction (so at nearly the same
    projection), or along it (so its projection moves the most). Zero rows
    and scaled copies are mixed in.
    """
    cutoff = effective_threshold(threshold)
    direction, _ = candidate_window(cutoff, dim)
    at_cutoff = math.sqrt(2.0 * (1.0 - cutoff))
    gaps = [1e-12, 1e-10, 1e-8, 1e-6, 1e-5] + [
        at_cutoff * k for k in (0.98, 0.9999, 1.0001, 1.02)]

    def unit(vec):
        return vec / np.linalg.norm(vec)

    def across(vec, *against):
        """vec made unit and orthogonal to every vector of against."""
        basis = []
        for away in against:
            basis.append(unit(away - sum((away @ b) * b for b in basis)))
        return unit(vec - sum((vec @ b) * b for b in basis))

    rows = []
    while len(rows) < count:
        roll = rng.random()
        if rows and roll < 0.1:
            rows.append(np.zeros(dim))
        elif rows and roll < 0.2:
            rows.append(rng.choice([3.0, 1e-3]) * rows[rng.randrange(len(rows))])
        else:
            base = unit(np.array([rng.gauss(0, 1) for _ in range(dim)]))
            rows.append(base)
            for _ in range(rng.randrange(1, 5)):
                noise = np.array([rng.gauss(0, 1) for _ in range(dim)])
                way = rng.choice([across(noise, base),
                                  across(noise, base, direction),
                                  across(direction, base)])
                rows.append(unit(base + rng.choice(gaps) * way))
    rows = rows[:count]
    rng.shuffle(rows)
    return rows


def underflowing_twin(rng, dim):
    """A feature whose norm loses bits to underflow, so that it normalizes
    to a row over 1e-4 longer than unit, and a unit row at cosine 1 - 1e-5
    with its direction, turned toward the candidate window's direction so
    their projections lie far apart: the two score over 1 in float64. rng
    is a numpy Generator."""
    while True:
        tiny = rng.normal(size=dim) * 1e-160
        row = tiny / math.sqrt(float(tiny @ tiny))
        if float(row @ row) > 1.0 + 1e-4:
            break
    way = row / np.linalg.norm(row)
    side, _ = candidate_window(1.0, dim)
    side = side - (side @ way) * way
    side /= np.linalg.norm(side)
    cos = 1.0 - 1e-5
    return tiny, cos * way + math.sqrt(1.0 - cos * cos) * side


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


def multigraph_records(rng, max_processes=7, max_events=40):
    """A small corpus of repeated events: few nodes and many events, most
    of them parallel to another, between processes in both directions, plus
    self-loops and timestamps from a small range, so ties are common."""
    procs = [NodeRecord(id=f"p{i}", kind="process", cmdline=f"cmd-{i}")
             for i in range(rng.randint(2, max_processes))]
    files = [NodeRecord(id=f"f{i}", kind="file", path=f"/data/{i}")
             for i in range(rng.randint(0, 2))]
    pairs = [(rng.choice(procs), rng.choice(procs + files))
             for _ in range(rng.randint(1, len(procs) + len(files)))]
    top = rng.choice([0, 2, 5])
    events = []
    for _ in range(rng.randint(1, max_events)):
        subject, target = rng.choice(pairs)
        if target.kind == "process":
            if rng.random() < 0.5:
                subject, target = target, subject
            syscall = rng.choice(["clone", "execve"])
        else:
            syscall = rng.choice(["read", "write"])
        events.append(Event(subject=subject.id, object=target.id,
                            syscall=syscall, ts=rng.randint(0, top)))
    return procs + files, events


# Strings and ints at the edges of the JSON encoding: quotes, backslashes,
# control characters, non-ASCII, lone surrogates, whitespace runs, empties.
EDGE_TEXTS = ["", '"', "\\", "\x00\x1f\x7f", "\n\r\t\x0b\x0c", "caf\u00e9",
              "\u2028\u2029", "\U0001f600", json.loads('"\\ud800"'),
              json.loads('"\\udfff"'), "  ls \t -la  ", "\\u0041", "a b"]
EDGE_TS = [0, -1, -(2 ** 63), 2 ** 63 - 1]
# Timestamps past either end of int64: the parser counts their records as
# malformed, so no graph holds one.
WIDE_TS = [2 ** 63, -(2 ** 63) - 1, 2 ** 64 + 7, 10 ** 30]
EDGE_PORTS = [0, 65535]


def edge_graph_records(rng, max_nodes=24, max_events=40, wide=True):
    """A random corpus of all three node kinds built from EDGE_* values, and
    WIDE_TS timestamps unless wide is False.

    Events honor the syscall/object-kind pairing; clone and execve may loop
    a process onto itself.
    """
    stamps = EDGE_TS + WIDE_TS if wide else EDGE_TS

    def text():
        return rng.choice(EDGE_TEXTS) + rng.choice(EDGE_TEXTS)

    def ts():
        return rng.choice(stamps + [rng.randint(-50, 50)])

    def port():
        return rng.choice(EDGE_PORTS + [rng.randint(1, 65534)])

    nodes = [NodeRecord(id=f"p0:{text()}", kind="process", cmdline=text(),
                        first_seen=ts())]
    for i in range(1, rng.randint(1, max_nodes)):
        kind = rng.choice(("process", "file", "netflow"))
        node_id = f"{kind[0]}{i}:{text()}"
        if kind == "process":
            nodes.append(NodeRecord(id=node_id, kind=kind, cmdline=text(),
                                    first_seen=ts()))
        elif kind == "file":
            nodes.append(NodeRecord(id=node_id, kind=kind, path=text(),
                                    first_seen=ts()))
        else:
            nodes.append(NodeRecord(id=node_id, kind=kind,
                                    remote_addr=text(), remote_port=port(),
                                    local_addr=text(), local_port=port(),
                                    first_seen=ts()))
    by_kind = {}
    for n in nodes:
        by_kind.setdefault(n.kind, []).append(n.id)
    syscalls = [s for s, kind in SYSCALL_OBJECT_KIND.items()
                if kind in by_kind]
    events = []
    for _ in range(rng.randint(0, max_events)):
        syscall = rng.choice(syscalls)
        target = rng.choice(by_kind[SYSCALL_OBJECT_KIND[syscall]])
        events.append(Event(subject=rng.choice(by_kind["process"]),
                            object=target, syscall=syscall, ts=ts()))
    return nodes, events


def make_rng(seed):
    return random.Random(seed)


def synth_lines(scale=1):
    """The lines of a fixed two-shape synthgen corpus with an attack chain:
    5,000 nodes and 3,696 events at scale 1, about scale times that above."""
    from provprune.synthgen import AttackSpec, PatternSpec, SynthSpec, generate

    shapes = [("boot net probe", "mount scratch", "start workers",
               "warm cache", "announce ready"),
              ("poll job queue", "claim next job", "exec job payload",
               "ack job done", "idle wait")]
    spec = SynthSpec(
        seed=5, target_benign_share=0.3, attack=AttackSpec(),
        benign_patterns=[PatternSpec(kinds=("process",) * 5, texts=texts,
                                     repetitions=reps * scale)
                         for texts, reps in zip(shapes, (200, 100))])
    return generate(spec)[0]


def synth_graph(scale=1):
    """The graph of synth_lines(scale)."""
    nodes, events, _ = parse_stream(synth_lines(scale))
    return build_graph(nodes, events)


def traced_memory(fn, *args, **kwargs):
    """fn's result, then the memory tracemalloc saw it still hold when it
    returned and the most it held, both above what was held when it
    started, in bytes; numpy reports its buffers too."""
    import tracemalloc

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - start, peak - start


def traced_peak(fn, *args, **kwargs):
    """fn's result and the most memory tracemalloc saw it hold above what
    was held when it started, in bytes."""
    result, _, peak = traced_memory(fn, *args, **kwargs)
    return result, peak


def export_graph(graph, fmt="jsonl"):
    """The whole text write_graph writes, as one string."""
    buf = io.StringIO()
    write_graph(graph, buf, fmt)
    return buf.getvalue()


def table_json(table):
    """The JSON text LabelTable.save writes to labels.json, before its
    newline, as one string."""
    return b"".join(table._json_chunks()).decode()


def rewritten_sidecar(path, **members):
    """Rewrite the sidecar at path with some members replaced, or left out
    when given as None; an object array is stored as a pickle, which a load
    must refuse."""
    with zipfile.ZipFile(path) as zf:
        data = {info.filename: zf.read(info) for info in zf.infolist()}
    for name, array in members.items():
        if array is None:
            del data[f"{name}.npy"]
            continue
        buf = io.BytesIO()
        np.save(buf, array, allow_pickle=True)
        data[f"{name}.npy"] = buf.getvalue()
    with zipfile.ZipFile(path, "w") as zf:
        for member, payload in data.items():
            zf.writestr(member, payload)


def chain_batch(sets, dim=None):
    """A ChainBatch whose rows are the given NodeSets, in order.

    Nodes are numbered in sorted id order.
    Features are stacked when every set has one (dim gives the width of an
    empty batch), else left unset.
    """
    ids = sorted({nid for s in sets for nid in s.node_ids})
    number = {nid: v for v, nid in enumerate(ids)}
    size = len(sets[0].node_ids) if sets else 2
    features = None
    if all(s.feature is not None for s in sets):
        features = np.array([s.feature for s in sets], dtype=np.float64)
        features = features.reshape(len(sets), -1 if sets else dim or 0)
    return ChainBatch(
        ids=ids,
        nodes=np.array([[number[nid] for nid in s.node_ids] for s in sets],
                       dtype=np.intp).reshape(-1, size),
        edges=np.array([s.edge_indices for s in sets],
                       dtype=np.intp).reshape(-1, size - 1),
        features=features)


def reference_table_json(table):
    """labels.json's text as one json.dumps of the whole payload: label i is
    row i of each column, its id and its creation order."""
    payload = {
        "labels": [{"label_id": i, "polarity": kind, "member_count": members,
                    "created_seq": i,
                    "representative": [float(x) for x in rep]}
                   for i, (kind, members, rep) in enumerate(zip(
                       table.polarity, table.member_count,
                       table.representatives, strict=True))],
        "assignment": table.assignment,
        "zero_vector_sets": table.zero_vector_sets,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def reference_weights(events, nodes_by_id):
    """Every node id's weight: ln(P / P_f) for a file or netflow (0 if it is
    in no event), and for a process the mean of the file and netflow
    values of the entities in events."""
    counts = recount_entity_events(events)
    total = len(events)
    logs = {nid: math.log(total / count) for nid, count in counts.items()
            if nodes_by_id[nid].kind in ("file", "netflow")}
    pool = list(logs.values())
    process = math.fsum(pool) / len(pool) if pool else 0.0
    return {nid: process if node.kind == "process" else logs.get(nid, 0.0)
            for nid, node in nodes_by_id.items()}


class _ReferenceEmbedder:
    """reference_embed_text on each node's attribute text, nothing cached."""

    def __init__(self, dim, seed):
        self.dim, self.seed = dim, seed

    def node_vector(self, node):
        return reference_embed_text(node.attr_text(), self.dim, self.seed)


class _Chain:
    def __init__(self, node_ids, feature):
        self.node_ids, self.feature = node_ids, feature


def _reference_corpus(lines, iocs, cfg):
    """Parse, order, weigh and flag one corpus; None when it has no events."""
    nodes, events, _ = reference_parse_stream(
        lines, synthesize_dangling=cfg.synthesize_dangling)
    if not events:
        return None
    by_id = {n.id: n for n in nodes}
    events = sorted(events, key=lambda e: (e.ts, e.subject, e.object,
                                           e.syscall))
    substrings, explicit = iocs
    matched = {}
    for node_id in sorted(by_id):
        text = by_id[node_id].attr_text()
        hit = next((ioc for ioc in substrings if ioc and ioc in text), None)
        if hit is not None:
            matched[node_id] = hit
    malicious = set(matched) | {nid for nid in explicit if nid in by_id}
    for ev in events:
        if ev.subject in matched and ev.object not in matched:
            malicious.add(ev.object)
        if ev.object in matched and ev.subject not in matched:
            malicious.add(ev.subject)
    weights = reference_weights(events, by_id)
    embedder = _ReferenceEmbedder(cfg.dim, cfg.seed)
    chains = [_Chain(node_ids, compose_feature([by_id[n] for n in node_ids],
                                               weights, embedder))
              for node_ids, _ in ordered_chains(events, cfg.set_size,
                                                cfg.cap_per_anchor)]
    return by_id, events, malicious, chains


def reference_run(labeled_lines, eval_lines, iocs, cfg):
    """`label` then `reduce --top-n --emit-removed-ids --emit-graph`, composed
    from the per-stage references.

    iocs is (substrings, explicit ids), read for both corpora; cfg holds
    both commands' settings as attributes. Returns None when either corpus
    has no accepted event (the CLI refuses it), else (labels.json text, the
    report dicts without per_stage_seconds, {n: reduced graph lines}, the
    evaluation corpus's chain count).
    """
    cutoff = min(cfg.threshold, 1.0 - 1e-9)
    labeled = _reference_corpus(labeled_lines, iocs, cfg)
    evaluation = _reference_corpus(eval_lines, iocs, cfg)
    if labeled is None or evaluation is None:
        return None
    _, _, lab_malicious, lab_chains = labeled
    table = sequential_labels(lab_chains, lab_malicious, cutoff)
    labels_text = reference_table_json(table) + "\n"

    ranked = sorted((i for i, kind in enumerate(table.polarity)
                     if kind == BENIGN),
                    key=lambda i: (-table.member_count[i], i))
    by_id, events, malicious, chains = evaluation
    population = (set(by_id) if cfg.include_isolated_nodes
                  else {nid for ev in events for nid in (ev.subject, ev.object)})
    reports, graphs = [], {}
    for n in sorted(set(cfg.top_n)):
        use = min(n, len(ranked))
        removed = exhaustive_removed_nodes(
            chains, [table.representatives[i] for i in ranked[:use]], cutoff)
        after = len(population) - len(removed)
        reports.append({
            "n_requested": n,
            "labels_used": use,
            "total_nodes_before": len(population),
            "nodes_removed": len(removed),
            "nodes_after": after,
            "reduction_rate": (100.0 * len(removed) / len(population)
                               if population else 0.0),
            "fn_count": len(removed & malicious),
            "fp_count": after - len((malicious & population) - removed),
            "declared_nodes_total": len(by_id),
            "note": (f"requested top-{n} but only {len(ranked)} benign "
                     f"labels exist" if n > len(ranked) else ""),
            "removed_node_ids": sorted(removed),
        })

        graphs[n] = reference_graph_lines(
            [node for nid, node in by_id.items() if nid not in removed],
            [ev for ev in events
             if ev.subject not in removed and ev.object not in removed])
    return labels_text, reports, graphs, len(chains)
