"""In-memory provenance graph: entities plus time-ordered syscall events."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import IO, Iterable, NamedTuple

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

    ids[v] is node v's id and position its inverse; src[i] and dst[i] number
    the subject and object of event i.
    """

    ids: list[str]
    position: dict[str, int]
    src: np.ndarray
    dst: np.ndarray

    def mask(self, members: Iterable[str]) -> np.ndarray:
        """Per node, whether its id is among members; others are ignored."""
        out = np.zeros(len(self.ids), dtype=bool)
        out[[self.position[nid] for nid in members
             if nid in self.position]] = True
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
    # The index with the events it was built over; see `index`.
    _indexed: tuple[list[Event], NodeIndex] | None = field(
        default=None, init=False, repr=False, compare=False)

    def event_node_ids(self) -> set[str]:
        """Ids of nodes incident to at least one event."""
        incident: set[str] = set()
        for ev in self.events:
            incident.add(ev.subject)
            incident.add(ev.object)
        return incident

    @property
    def index(self) -> NodeIndex:
        """The node numbering, built on first use and kept while the node ids
        and events stay as they were; a changed graph gets a new one."""
        ids = list(self.nodes)
        if self._indexed is not None:
            events, index = self._indexed
            if index.ids == ids and events == self.events:
                return index
        position = dict(zip(ids, range(len(ids))))
        number = position.__getitem__
        count = len(self.events)
        index = NodeIndex(
            ids=ids, position=position,
            src=np.fromiter(map(number, map(_subject, self.events)),
                            dtype=np.intp, count=count),
            dst=np.fromiter(map(number, map(_object, self.events)),
                            dtype=np.intp, count=count))
        self._indexed = (self.events[:], index)
        return index


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


def graph_lines(graph: Graph) -> list[str]:
    """Canonical line-delimited form: nodes sorted by id, then ordered events."""
    lines = [_node_line(n)
             for n in sorted(graph.nodes.values(), key=lambda n: n.id)]
    lines.extend(f'{{"kind":"event","object":{_quote(ev.object)},'
                 f'"subject":{_quote(ev.subject)},'
                 f'"syscall":{_quote(ev.syscall)},"ts":{ev.ts}}}'
                 for ev in graph.events)
    return lines


def _dot_escape(text: str) -> str:
    """Quote-safe DOT text. A lone surrogate, which UTF-8 cannot carry,
    becomes a \\udXXX escape; a backslash of the text itself is doubled, so
    the escape stays distinct from text that spells it out."""
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .encode("utf-8", "backslashreplace").decode("utf-8"))


def dot_lines(graph: Graph) -> list[str]:
    """Graphviz form with `kind:attribute` node labels and `syscall@ts` edges."""
    lines = ["digraph provenance {"]
    for n in sorted(graph.nodes.values(), key=lambda n: n.id):
        label = _dot_escape(f"{n.kind}:{n.attr_text()[:40]}")
        lines.append(f'  "{_dot_escape(n.id)}" [label="{label}"];')
    for ev in graph.events:
        lines.append(f'  "{_dot_escape(ev.subject)}" -> "{_dot_escape(ev.object)}"'
                     f' [label="{ev.syscall}@{ev.ts}"];')
    lines.append("}")
    return lines


def _format_lines(graph: Graph, fmt: str) -> list[str]:
    if fmt == "jsonl":
        return graph_lines(graph)
    if fmt == "dot":
        return dot_lines(graph)
    raise ValueError(f"unknown export format: {fmt!r}")


def write_graph(graph: Graph, sink: IO[str], fmt: str = "jsonl") -> None:
    """Write the graph as 'jsonl' (round-trips through the parser) or 'dot'
    to sink, a line at a time."""
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
        "event_nodes": len(graph.event_node_ids()),
        "per_syscall": dict(sorted(syscalls.items())),
    }
