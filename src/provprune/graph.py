"""In-memory provenance graph: node columns plus time-ordered event columns.

A Graph holds the NodeTable and EventTable that parse_stream produces, its
events sorted into global temporal order. `Graph.nodes` reads as a mapping
of id to NodeRecord, each record a view built on access; the pipeline
stages read the columns.
"""

from __future__ import annotations

from collections.abc import Mapping
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from typing import IO, Iterable, Iterator

import numpy as np

from .ingest import (
    FILE,
    NETFLOW,
    NODE_KINDS,
    PROCESS,
    SYSCALL_NAMES,
    EventTable,
    NodeRecord,
    NodeTable,
    check_numbering,
)

# Rows formatted, and lines written, per block by the exporters: column
# values become Python objects a block at a time, never for the whole graph.
EXPORT_CHUNK = 4096


def node_mask(ids: list[str], members: Iterable[str]) -> np.ndarray:
    """Per row of ids, whether its id is among members; others are ignored.

    Any other iterable is made a set first, so each test is a hash lookup
    rather than a scan of members.
    """
    if not isinstance(members, AbstractSet):
        members = set(members)
    return np.fromiter(map(members.__contains__, ids), dtype=bool,
                       count=len(ids))


class _NodeMap(Mapping):
    """A node table by id, each NodeRecord built on access. The id lookup
    behind `[id]` and `in` is made on first use; iteration and len need
    none."""

    def __init__(self, table: NodeTable):
        self._table = table
        self._number: dict[str, int] | None = None

    def __getitem__(self, node_id: str) -> NodeRecord:
        if self._number is None:
            ids = self._table.ids
            self._number = dict(zip(ids, range(len(ids))))
        return self._table[self._number[node_id]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._table.ids)

    def __len__(self) -> int:
        return len(self._table)

    def values(self) -> NodeTable:
        return self._table


@dataclass(eq=False)
class Graph:
    """Node columns and event columns held in global temporal order.

    order lists the node numbers by ascending id.
    """

    table: NodeTable
    events: EventTable
    order: np.ndarray

    @cached_property
    def nodes(self) -> Mapping[str, NodeRecord]:
        return _NodeMap(self.table)

    def incident(self) -> np.ndarray:
        """Per node, whether it is the subject or object of some event."""
        out = np.zeros(len(self.table), dtype=bool)
        out[self.events.src] = out[self.events.dst] = True
        return out


def build_graph(nodes: NodeTable, events: EventTable) -> Graph:
    """Assemble a graph from parse_stream's tables, sorting events into
    their global temporal order: timestamp, subject id, object id, syscall
    name, ties in the order given."""
    ids = nodes.ids
    check_numbering(ids, events.ids, "the events")
    # Ids compare in code-point order, lone surrogates included, and equal
    # ids are one node, so ranks order events as their id strings do.
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__),
                     dtype=np.int32)
    rank = np.empty(len(ids), dtype=np.int32)
    rank[order] = np.arange(len(ids), dtype=np.int32)
    temporal = np.lexsort((events.syscall, rank[events.dst],
                           rank[events.src], events.ts))
    return Graph(nodes, events.take(temporal), order)


def remove_nodes(graph: Graph, removed: np.ndarray) -> Graph:
    """Drop the nodes removed marks, one bool per row of the graph's node
    table, and every event incident to any of them."""
    removed = np.asarray(removed)
    if removed.dtype != bool or removed.shape != (len(graph.table),):
        raise ValueError(f"a removal mask holds one bool per node, "
                         f"{len(graph.table)} here, got {removed.dtype} "
                         f"of shape {removed.shape}")
    keep = ~removed
    renumber = np.cumsum(keep, dtype=np.int32) - 1
    table = graph.table.take(keep)
    events = graph.events
    kept = keep[events.src] & keep[events.dst]
    return Graph(table,
                 EventTable(table.ids, renumber[events.src[kept]],
                            renumber[events.dst[kept]], events.syscall[kept],
                            events.ts[kept]),
                 renumber[graph.order[keep[graph.order]]])


def _node_rows(graph: Graph) -> Iterator[tuple]:
    """(id, kind code, attribute text, first_seen, laddr, lport) per node, by
    ascending id, read from the columns a block at a time."""
    table = graph.table
    ids, texts = table.ids, table.texts
    for lo in range(0, len(graph.order), EXPORT_CHUNK):
        rows = graph.order[lo:lo + EXPORT_CHUNK]
        for v, kind, text, first, laddr, lport in zip(
                rows.tolist(), table.kind[rows].tolist(),
                table.text[rows].tolist(), table.first_seen[rows].tolist(),
                table.laddr[rows].tolist(), table.lport[rows].tolist()):
            yield ids[v], kind, texts[text], first, texts[laddr], lport


def _event_rows(graph: Graph) -> Iterator[tuple]:
    """(subject id, object id, syscall code, ts) per event, in order, read
    from the columns a block at a time."""
    events = graph.events
    ids = events.ids
    for lo in range(0, len(events), EXPORT_CHUNK):
        hi = lo + EXPORT_CHUNK
        for s, d, call, ts in zip(events.src[lo:hi].tolist(),
                                  events.dst[lo:hi].tolist(),
                                  events.syscall[lo:hi].tolist(),
                                  events.ts[lo:hi].tolist()):
            yield ids[s], ids[d], call, ts


# One f-string per record kind writes the text json.dumps(obj, sort_keys=True,
# separators=(",", ":")) gives: keys in sorted order, strings through the
# encoder's own ASCII escaper, ints as their repr.
def graph_lines(graph: Graph) -> Iterator[str]:
    """Canonical line-delimited form: nodes sorted by id, then ordered events."""
    for node_id, kind, text, first, laddr, lport in _node_rows(graph):
        if kind == PROCESS:
            yield (f'{{"cmdline":{_quote(text)},"id":{_quote(node_id)},'
                   f'"kind":"process","ts":{first}}}')
        elif kind == FILE:
            yield (f'{{"id":{_quote(node_id)},"kind":"file",'
                   f'"path":{_quote(text)},"ts":{first}}}')
        else:
            raddr, _, rport = text.rpartition(":")
            yield (f'{{"id":{_quote(node_id)},"kind":"netflow",'
                   f'"laddr":{_quote(laddr)},"lport":{lport},'
                   f'"raddr":{_quote(raddr)},"rport":{rport},'
                   f'"ts":{first}}}')
    for subject, target, call, ts in _event_rows(graph):
        yield (f'{{"kind":"event","object":{_quote(target)},'
               f'"subject":{_quote(subject)},'
               f'"syscall":"{SYSCALL_NAMES[call]}","ts":{ts}}}')


def _dot_escape(text: str) -> str:
    """Quote-safe DOT text. A lone surrogate, which UTF-8 cannot carry,
    becomes a \\udXXX escape; a backslash of the text itself is doubled, so
    the escape stays distinct from text that spells it out."""
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .encode("utf-8", "backslashreplace").decode("utf-8"))


def dot_lines(graph: Graph) -> Iterator[str]:
    """Graphviz form with `kind:attribute` node labels and `syscall@ts` edges."""
    yield "digraph provenance {"
    for node_id, kind, text, _, _, _ in _node_rows(graph):
        label = _dot_escape(f"{NODE_KINDS[kind]}:{text[:40]}")
        yield f'  "{_dot_escape(node_id)}" [label="{label}"];'
    for subject, target, call, ts in _event_rows(graph):
        yield (f'  "{_dot_escape(subject)}" -> "{_dot_escape(target)}"'
               f' [label="{SYSCALL_NAMES[call]}@{ts}"];')
    yield "}"


def _format_lines(graph: Graph, fmt: str) -> Iterator[str]:
    """graph's lines in export format fmt, each made as it is read. An
    unknown fmt is refused at the call."""
    if fmt == "jsonl":
        return graph_lines(graph)
    if fmt == "dot":
        return dot_lines(graph)
    raise ValueError(f"unknown export format: {fmt!r}")


def write_graph(graph: Graph, sink: IO[str], fmt: str = "jsonl") -> None:
    """Write the graph as 'jsonl' (round-trips through the parser) or 'dot'
    to sink, EXPORT_CHUNK lines at a time; the text is never held whole."""
    lines = _format_lines(graph, fmt)
    while chunk := list(islice(lines, EXPORT_CHUNK)):
        sink.write("\n".join(chunk) + "\n")


def save_graph(graph: Graph, path, fmt: str = "jsonl") -> None:
    """write_graph to the file at path. The format is checked first, so an
    unknown one makes no file."""
    _format_lines(graph, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        write_graph(graph, fh, fmt)


def summarize(graph: Graph) -> dict:
    """Counts used by the command-line info report."""
    kinds = np.bincount(graph.table.kind, minlength=len(NODE_KINDS)).tolist()
    syscalls = np.bincount(graph.events.syscall,
                           minlength=len(SYSCALL_NAMES)).tolist()
    return {
        "nodes": len(graph.table),
        "processes": kinds[PROCESS],
        "files": kinds[FILE],
        "netflows": kinds[NETFLOW],
        "events": len(graph.events),
        "event_nodes": int(graph.incident().sum()),
        "per_syscall": {name: count for name, count
                        in zip(SYSCALL_NAMES, syscalls) if count},
    }
