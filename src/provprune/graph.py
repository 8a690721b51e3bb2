"""In-memory provenance graph: entities plus time-ordered syscall events."""

from __future__ import annotations

from collections import Counter
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .ingest import (
    KIND_FILE,
    KIND_NETFLOW,
    KIND_PROCESS,
    Event,
    NodeRecord,
)


class NodeIndex(NamedTuple):
    """Dense integer numbering of a graph's nodes, in `Graph.nodes` order.

    ids[v] is node v's id; src[i] and dst[i] number the subject and object
    of event i. The id-to-number map is not kept: it would hold one dict
    entry and one int per node for as long as the index lives.
    """

    ids: list[str]
    src: np.ndarray
    dst: np.ndarray

    @classmethod
    def of(cls, graph: Graph) -> NodeIndex:
        """Number graph's nodes and the endpoints of its events."""
        ids = list(graph.nodes)
        number = dict(zip(ids, range(len(ids)))).__getitem__
        count = len(graph.events)
        return cls(ids,
                   np.fromiter(map(number, map(_subject, graph.events)),
                               dtype=np.intp, count=count),
                   np.fromiter(map(number, map(_object, graph.events)),
                               dtype=np.intp, count=count))

    def mask(self, members: AbstractSet[str]) -> np.ndarray:
        """Per node, whether its id is among members; others are ignored.

        Any other iterable is made a set first, so each test is a hash
        lookup rather than a scan of members.
        """
        if not isinstance(members, AbstractSet):
            members = set(members)
        return np.fromiter(map(members.__contains__, self.ids), dtype=bool,
                           count=len(self.ids))

    def incident(self) -> np.ndarray:
        """Per node, whether it is the subject or object of some event."""
        out = np.zeros(len(self.ids), dtype=bool)
        out[self.src] = out[self.dst] = True
        return out


_subject = itemgetter(0)
_object = itemgetter(1)


@dataclass
class Graph:
    """Nodes keyed by id and events held in global temporal order."""

    nodes: dict[str, NodeRecord] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    # Bookkeeping only; two graphs with equal content compare equal.
    rejected_events: int = field(default=0, compare=False)
    ignored_removals: int = field(default=0, compare=False)


# Global temporal order: (ts, subject, object, syscall).
_temporal_order = itemgetter(3, 0, 1, 2)


def build_graph(nodes: Iterable[NodeRecord], events: Iterable[Event]) -> Graph:
    """Assemble a graph, sorting events into their global temporal order.

    Duplicate node ids keep the first record seen. Events referencing an
    undeclared endpoint are dropped and counted on the returned graph; the
    parser normally leaves none behind.
    """
    node_map: dict[str, NodeRecord] = {}
    for n in nodes:
        if n.id not in node_map:
            node_map[n.id] = n
    kept = []
    rejected = 0
    for ev in events:
        if ev.subject in node_map and ev.object in node_map:
            kept.append(ev)
        else:
            rejected += 1
    kept.sort(key=_temporal_order)
    return Graph(nodes=node_map, events=kept, rejected_events=rejected)


def remove_nodes(graph: Graph, node_ids: Iterable[str]) -> Graph:
    """Drop the given nodes and every event incident to any of them.

    Ids not present in the graph are ignored and counted.
    """
    gone = set(node_ids)
    ignored = len(gone - graph.nodes.keys())
    kept_nodes = {nid: n for nid, n in graph.nodes.items() if nid not in gone}
    kept_events = [ev for ev in graph.events
                   if ev.subject not in gone and ev.object not in gone]
    return Graph(nodes=kept_nodes, events=kept_events, ignored_removals=ignored)


# One f-string per record kind writes the text json.dumps(obj, sort_keys=True,
# separators=(",", ":")) gives: keys in sorted order, strings through the
# encoder's own ASCII escaper, ints as their repr.
def _node_line(node: NodeRecord) -> str:
    if node.kind == KIND_PROCESS:
        return (f'{{"cmdline":{_quote(node.cmdline)},"id":{_quote(node.id)},'
                f'"kind":"process","ts":{node.first_seen}}}')
    if node.kind == KIND_FILE:
        return (f'{{"id":{_quote(node.id)},"kind":"file",'
                f'"path":{_quote(node.path)},"ts":{node.first_seen}}}')
    return (f'{{"id":{_quote(node.id)},"kind":{_quote(node.kind)},'
            f'"laddr":{_quote(node.local_addr)},"lport":{node.local_port},'
            f'"raddr":{_quote(node.remote_addr)},"rport":{node.remote_port},'
            f'"ts":{node.first_seen}}}')


def graph_lines(graph: Graph) -> Iterator[str]:
    """Canonical line-delimited form: nodes sorted by id, then ordered events."""
    yield from map(_node_line, map(graph.nodes.__getitem__,
                                   sorted(graph.nodes)))
    for ev in graph.events:
        yield (f'{{"kind":"event","object":{_quote(ev.object)},'
               f'"subject":{_quote(ev.subject)},'
               f'"syscall":{_quote(ev.syscall)},"ts":{ev.ts}}}')


def _dot_escape(text: str) -> str:
    """Quote-safe DOT text. A lone surrogate, which UTF-8 cannot carry,
    becomes a \\udXXX escape; a backslash of the text itself is doubled, so
    the escape stays distinct from text that spells it out."""
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .encode("utf-8", "backslashreplace").decode("utf-8"))


def dot_lines(graph: Graph) -> Iterator[str]:
    """Graphviz form with `kind:attribute` node labels and `syscall@ts` edges."""
    yield "digraph provenance {"
    for n in map(graph.nodes.__getitem__, sorted(graph.nodes)):
        label = _dot_escape(f"{n.kind}:{n.attr_text()[:40]}")
        yield f'  "{_dot_escape(n.id)}" [label="{label}"];'
    for ev in graph.events:
        yield (f'  "{_dot_escape(ev.subject)}" -> "{_dot_escape(ev.object)}"'
               f' [label="{ev.syscall}@{ev.ts}"];')
    yield "}"


def _format_lines(graph: Graph, fmt: str) -> Iterator[str]:
    if fmt == "jsonl":
        return graph_lines(graph)
    if fmt == "dot":
        return dot_lines(graph)
    raise ValueError(f"unknown export format: {fmt!r}")


def write_graph(graph: Graph, sink: IO[str], fmt: str = "jsonl") -> None:
    """Write the graph as 'jsonl' (round-trips through the parser) or 'dot'
    to sink, each line as it is made; the text is never held whole."""
    sink.writelines(line + "\n" for line in _format_lines(graph, fmt))


def save_graph(graph: Graph, path, fmt: str = "jsonl") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_graph(graph, fh, fmt)


def summarize(graph: Graph) -> dict:
    """Counts used by the command-line info report."""
    kinds = Counter(n.kind for n in graph.nodes.values())
    syscalls = Counter(ev.syscall for ev in graph.events)
    return {
        "nodes": len(graph.nodes),
        "processes": kinds.get(KIND_PROCESS, 0),
        "files": kinds.get(KIND_FILE, 0),
        "netflows": kinds.get(KIND_NETFLOW, 0),
        "events": len(graph.events),
        "event_nodes": int(NodeIndex.of(graph).incident().sum()),
        "per_syscall": dict(sorted(syscalls.items())),
    }
