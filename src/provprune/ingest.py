"""Audit-log record parsing, node and event columns, and corpus statistics.

Reads line-delimited JSON records (one node or event per line), keeps only
events whose system call belongs to the analyzed set, and tallies everything
it rejects instead of failing. What it keeps is held as columns: a node gets
a number at its first declaration, and an event holds its endpoints'
numbers, a syscall code and its timestamp. A NodeTable reads as a sequence
of NodeRecord and an EventTable as a sequence of Event, each record built on
access.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import eq
from typing import IO, Iterable, NamedTuple

import numpy as np

KIND_PROCESS = "process"
KIND_FILE = "file"
KIND_NETFLOW = "netflow"

# A tuple, so `kind in NODE_KINDS` never hashes a decoded JSON list or dict.
# A node's kind code is the kind's position here.
NODE_KINDS = (KIND_PROCESS, KIND_FILE, KIND_NETFLOW)
PROCESS, FILE, NETFLOW = range(len(NODE_KINDS))

# Analyzed system calls, keyed to the object kind they operate on.
SYSCALL_OBJECT_KIND = {
    "open": KIND_FILE,
    "read": KIND_FILE,
    "write": KIND_FILE,
    "chmod": KIND_FILE,
    "pipe": KIND_FILE,
    "execve": KIND_PROCESS,
    "clone": KIND_PROCESS,
    "recvfrom": KIND_NETFLOW,
    "sendto": KIND_NETFLOW,
    "recvmsg": KIND_NETFLOW,
    "sendmsg": KIND_NETFLOW,
}

ANALYZED_SYSCALLS = frozenset(SYSCALL_OBJECT_KIND)
# An event's syscall code is the name's position here, so codes sort as the
# names do.
SYSCALL_NAMES = tuple(sorted(SYSCALL_OBJECT_KIND))
_SYSCALL_CODE = {name: code for code, name in enumerate(SYSCALL_NAMES)}
# Per syscall code, the kind code its object must have.
_OBJECT_KIND = np.array([NODE_KINDS.index(SYSCALL_OBJECT_KIND[name])
                         for name in SYSCALL_NAMES], dtype=np.int8)
# Accepted timestamps, node and event alike: the int64 range.
TS_MIN = -2 ** 63
TS_MAX = 2 ** 63 - 1


class NodeRecord(NamedTuple):
    """A process, file, or netflow entity. Only the fields for its kind are set.

    An immutable named tuple: equal by value, hashable, and ``._replace(...)``
    gives a variant.
    """

    id: str
    kind: str
    cmdline: str = ""
    path: str = ""
    remote_addr: str = ""
    remote_port: int = 0
    local_addr: str = ""
    local_port: int = 0
    first_seen: int = 0

    def attr_text(self) -> str:
        """The natural-language attribute for this node (feeds the embedder)."""
        if self.kind == KIND_PROCESS:
            return self.cmdline
        if self.kind == KIND_FILE:
            return self.path
        return f"{self.remote_addr}:{self.remote_port}"


class Event(NamedTuple):
    """A syscall-typed edge: subject is always a process."""

    subject: str
    object: str
    syscall: str
    ts: int


@dataclass
class ParseStats:
    """Per-record tallies; no record-level problem is ever fatal."""

    accepted_nodes: int = 0
    duplicate_nodes: int = 0
    malformed_nodes: int = 0
    accepted_events: int = 0
    dropped_events: int = 0      # valid event record, syscall not analyzed
    malformed_events: int = 0    # event record with missing/ill-typed/mismatched fields
    dangling_events: int = 0     # event referencing an undeclared node id
    synthesized_nodes: int = 0   # placeholders minted when synthesize_dangling is on
    malformed_lines: int = 0     # undecodable line, or unknown/missing kind

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _int_column(values, dtype) -> np.ndarray:
    """values as a dtype column, or as an object column of the same ints
    when one does not fit; only records handed in directly hold such."""
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        return np.array(values, dtype=object)


class _Columns(Sequence):
    """A sequence of records built on access from the columns its subclass
    declares, set in that order by the constructor and not reassigned.

    Equal, as a list is, to any sequence holding equal records in the same
    order. A plain slotted class, not a dataclass: making one costs the
    import about a millisecond.
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, *columns):
        for name, column in zip(self.__slots__, columns, strict=True):
            setattr(self, name, column)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class NodeTable(_Columns):
    """Node columns, row v for node v; reads as a sequence of NodeRecord.

    texts holds each distinct string once. text[v] is the position there of
    node v's attribute text (NodeRecord.attr_text): its command line, its
    path, or for a netflow "raddr:rport", which its remote address and port
    are read back from, split at the last colon. laddr[v] (a position in
    texts) and lport[v] are a netflow's local address and port, "" and 0 for
    other kinds. kind[v] is the kind's position in NODE_KINDS. Only the
    fields of a node's kind are kept.
    """

    ids: list[str]
    kind: np.ndarray        # int8
    text: np.ndarray        # int32
    laddr: np.ndarray       # int32
    lport: np.ndarray       # uint16
    first_seen: np.ndarray  # int64
    texts: list[str]
    __slots__ = ("ids", "kind", "text", "laddr", "lport", "first_seen",
                 "texts")

    @classmethod
    def from_records(cls, records: Iterable[NodeRecord]) -> NodeTable:
        """The first record of each id, in the order given."""
        number: dict[str, int] = {}
        codes = {"": 0}
        kind, text, laddr, lport, first = [], [], [], [], []
        for node in records:
            if node.id in number:
                continue
            if node.kind not in NODE_KINDS:
                raise ValueError(f"unknown node kind {node.kind!r}")
            number[node.id] = len(number)
            code = NODE_KINDS.index(node.kind)
            kind.append(code)
            text.append(codes.setdefault(node.attr_text(), len(codes)))
            netflow = code == NETFLOW
            laddr.append(codes.setdefault(node.local_addr, len(codes))
                         if netflow else 0)
            lport.append(node.local_port if netflow else 0)
            first.append(node.first_seen)
        return cls(list(number), np.array(kind, dtype=np.int8),
                   np.array(text, dtype=np.int32),
                   np.array(laddr, dtype=np.int32),
                   _int_column(lport, np.uint16),
                   _int_column(first, np.int64), list(codes))

    @classmethod
    def of(cls, nodes) -> NodeTable:
        """nodes as a table: a table (or a mapping whose values are one) as
        it is, records through from_records."""
        if isinstance(nodes, Mapping):
            nodes = nodes.values()
        return nodes if isinstance(nodes, NodeTable) else cls.from_records(nodes)

    def take(self, keep: np.ndarray) -> NodeTable:
        """The rows where the boolean keep is set, numbered in order."""
        return NodeTable(list(compress(self.ids, keep.tolist())),
                         self.kind[keep], self.text[keep], self.laddr[keep],
                         self.lport[keep], self.first_seen[keep], self.texts)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, v: int) -> NodeRecord:
        node_id = self.ids[v]
        kind = self.kind[v]
        text = self.texts[self.text[v]]
        first = int(self.first_seen[v])
        if kind == PROCESS:
            return NodeRecord(node_id, KIND_PROCESS, cmdline=text,
                              first_seen=first)
        if kind == FILE:
            return NodeRecord(node_id, KIND_FILE, path=text, first_seen=first)
        raddr, _, rport = text.rpartition(":")
        return NodeRecord(node_id, KIND_NETFLOW, remote_addr=raddr,
                          remote_port=int(rport),
                          local_addr=self.texts[self.laddr[v]],
                          local_port=int(self.lport[v]), first_seen=first)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


class EventTable(_Columns):
    """Event columns, row i for event i; reads as a sequence of Event.

    src[i] and dst[i] number the subject and object in ids, syscall[i] is
    the position of the syscall's name in SYSCALL_NAMES, and ts[i] the
    timestamp.
    """

    ids: list[str]
    src: np.ndarray      # int32
    dst: np.ndarray      # int32
    syscall: np.ndarray  # uint8
    ts: np.ndarray       # int64
    __slots__ = ("ids", "src", "dst", "syscall", "ts")

    def take(self, rows: np.ndarray) -> EventTable:
        """The given rows (indices or a boolean mask), in that order."""
        return EventTable(self.ids, self.src[rows], self.dst[rows],
                          self.syscall[rows], self.ts[rows])

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Event(self.ids[self.src[i]], self.ids[self.dst[i]],
                     SYSCALL_NAMES[self.syscall[i]], int(self.ts[i]))

    def __iter__(self):
        ids = self.ids
        return map(Event._make, zip(
            map(ids.__getitem__, self.src.tolist()),
            map(ids.__getitem__, self.dst.tolist()),
            map(SYSCALL_NAMES.__getitem__, self.syscall.tolist()),
            self.ts.tolist()))


def numbered_events(events, ids: Sequence[str] | None = None) -> EventTable:
    """events as a table whose numbering starts with ids.

    A table is returned as it is when ids is None or its own ids. Records,
    or a table over other ids, are numbered anew: an endpoint among ids
    takes its position there, any other a number after them, in order of
    first appearance.
    """
    if isinstance(events, EventTable) and (ids is None or events.ids is ids):
        return events
    number = dict(zip(ids or (), range(len(ids or ()))))
    src, dst, calls, stamps = [], [], [], []
    for subject, target, syscall, ts in events:
        if syscall not in _SYSCALL_CODE:
            raise ValueError(f"not an analyzed syscall: {syscall!r}")
        src.append(number.setdefault(subject, len(number)))
        dst.append(number.setdefault(target, len(number)))
        calls.append(_SYSCALL_CODE[syscall])
        stamps.append(ts)
    return EventTable(list(number), np.array(src, dtype=np.int32),
                      np.array(dst, dtype=np.int32),
                      np.array(calls, dtype=np.uint8),
                      _int_column(stamps, np.int64))


class CorpusStats:
    """Event totals feeding the entity weights and the dataset characterization.

    entity_counts[v] counts the events entity ids[v] takes part in, once per
    event whether it is the subject, the object, or both; syscall_counts[c]
    counts the events of SYSCALL_NAMES[c].
    """

    __slots__ = ("total_events", "ids", "entity_counts", "syscall_counts")

    def __init__(self, total_events: int, ids: list[str],
                 entity_counts: np.ndarray, syscall_counts: np.ndarray):
        self.total_events = total_events
        self.ids = ids
        self.entity_counts = entity_counts
        self.syscall_counts = syscall_counts

    @property
    def per_entity_event_count(self) -> Counter:
        return Counter({self.ids[v]: int(self.entity_counts[v])
                        for v in np.flatnonzero(self.entity_counts).tolist()})

    @property
    def per_syscall_count(self) -> Counter:
        return Counter({name: count for name, count in
                        zip(SYSCALL_NAMES, self.syscall_counts.tolist())
                        if count})

    def __eq__(self, other):
        if not isinstance(other, CorpusStats):
            return NotImplemented
        return ((self.total_events, self.per_entity_event_count,
                 self.per_syscall_count)
                == (other.total_events, other.per_entity_event_count,
                    other.per_syscall_count))

    __hash__ = None


def normalize_cmdline(text: str) -> str:
    """Collapse whitespace runs so frequency keys are stable; nothing else."""
    return " ".join(text.split())


# json.loads without its Python-level wrappers: the decoder's scanner reads
# one value at an index and returns where the value ended (StopIteration: no
# value starts there). On a stripped line, "ends at len(line)" is exactly
# json.loads's test, which allows only whitespace after the value; a leading
# BOM, which json.loads rejects, starts no value.
_scan_value = json.JSONDecoder().scan_once


def parse_stream(
    source: Iterable[str | bytes] | IO[str] | IO[bytes],
    synthesize_dangling: bool = False,
) -> tuple[NodeTable, EventTable, ParseStats]:
    """Parse a line-delimited record stream into node and event columns, and
    tallies.

    Lines are str, or bytes decoded as UTF-8. A timestamp outside int64
    makes its record malformed. Events with unanalyzed syscalls
    are dropped and counted; structurally bad records and undecodable lines
    are counted; events whose endpoints were never declared are counted as
    dangling and excluded unless ``synthesize_dangling`` is set, in which case
    placeholder nodes of the kind implied by the syscall are minted so the
    event can be kept. Nodes are numbered in order of declaration and the
    placeholders after them, in the order they are minted; events stay in
    file order.
    """
    number: dict[str, int] = {}
    # Every distinct string a node holds, numbered; "" is 0.
    codes = {"": 0}
    code = codes.setdefault
    kinds, texts, laddrs = array("b"), array("i"), array("i")
    lports, firsts = array("H"), array("q")
    src, dst, calls, stamps = array("i"), array("i"), array("B"), array("q")
    # (row, subject, object) of each event with an endpoint not declared
    # when it was read; its row holds -1 until the end of the file.
    late = []
    duplicate_nodes = malformed_nodes = 0
    dropped_events = malformed_events = malformed_lines = 0

    # Every JSON value is exactly one of dict, list, str, int, float, bool or
    # None, so `type(x) is int` is "an int and not a bool".
    for line in source:
        try:
            if type(line) is bytes:
                line = line.decode()
            line = line.strip()
            if not line:
                continue
            obj, end = _scan_value(line, 0)
        except (ValueError, StopIteration, RecursionError):
            # Bad UTF-8, bad JSON, an integer too long to convert, or nesting
            # deeper than the interpreter allows.
            malformed_lines += 1
            continue
        if end != len(line) or type(obj) is not dict:
            malformed_lines += 1
            continue
        kind = obj.get("kind")
        if kind == "event":
            subject = obj.get("subject")
            target = obj.get("object")
            syscall = obj.get("syscall")
            ts = obj.get("ts")
            if (type(subject) is not str or not subject
                    or type(target) is not str or not target
                    or type(syscall) is not str or type(ts) is not int
                    or not TS_MIN <= ts <= TS_MAX):
                malformed_events += 1
                continue
            call = _SYSCALL_CODE.get(syscall)
            if call is None:
                dropped_events += 1
                continue
            s = number.get(subject)
            t = number.get(target)
            if s is None or t is None:
                late.append((len(calls), subject, target))
                s = t = -1
            src.append(s)
            dst.append(t)
            calls.append(call)
            stamps.append(ts)
            continue
        if kind not in NODE_KINDS:
            malformed_lines += 1
            continue
        node_id = obj.get("id")
        ts = obj.get("ts")
        if ts is None:
            ts = 0
        text = None
        laddr, lport = "", 0
        if (type(node_id) is str and node_id and type(ts) is int
                and TS_MIN <= ts <= TS_MAX):
            if kind == KIND_PROCESS:
                text = obj.get("cmdline", "")
                kind = PROCESS
            elif kind == KIND_FILE:
                text = obj.get("path", "")
                kind = FILE
            else:
                raddr = obj.get("raddr", "")
                rport = obj.get("rport", 0)
                laddr = obj.get("laddr", "")
                lport = obj.get("lport", 0)
                if (type(raddr) is str and type(laddr) is str
                        and type(rport) is int and 0 <= rport <= 65535
                        and type(lport) is int and 0 <= lport <= 65535):
                    text = f"{raddr}:{rport}"
                kind = NETFLOW
        if type(text) is not str:
            malformed_nodes += 1
        elif node_id in number:
            duplicate_nodes += 1
        else:
            number[node_id] = len(number)
            kinds.append(kind)
            texts.append(code(text, len(codes)))
            laddrs.append(code(laddr, len(codes)))
            lports.append(lport)
            firsts.append(ts)

    accepted_nodes = len(number)

    def mint(node_id: str, kind: int, text: int) -> int:
        """A placeholder node's number, as NodeRecord(node_id, kind) has it."""
        number[node_id] = len(number)
        kinds.append(kind)
        texts.append(text)
        laddrs.append(0)
        lports.append(0)
        firsts.append(0)
        return number[node_id]

    synthesized_nodes = dangling_events = 0
    dangling = []
    for row, subject, target in late:
        s = number.get(subject)
        t = number.get(target)
        if s is None or t is None:
            if not synthesize_dangling:
                dangling_events += 1
                dangling.append(row)
                continue
            if s is None:
                s = mint(subject, PROCESS, 0)
                synthesized_nodes += 1
            # A self-loop's object is the subject just minted.
            t = number.get(target)
            if t is None:
                kind = int(_OBJECT_KIND[calls[row]])
                # A placeholder netflow's attribute text is ":0".
                t = mint(target, kind,
                         code(":0", len(codes)) if kind == NETFLOW else 0)
                synthesized_nodes += 1
        src[row] = s
        dst[row] = t
    del late

    ids = list(number)
    del number
    kind_of = np.array(kinds, dtype=np.int8)
    nodes = NodeTable(ids, kind_of, np.array(texts, dtype=np.int32),
                      np.array(laddrs, dtype=np.int32),
                      np.array(lports, dtype=np.uint16),
                      np.array(firsts, dtype=np.int64), list(codes))
    events = EventTable(ids, np.array(src, dtype=np.int32),
                        np.array(dst, dtype=np.int32),
                        np.array(calls, dtype=np.uint8),
                        np.array(stamps, dtype=np.int64))
    del kinds, texts, laddrs, lports, firsts, src, dst, calls, stamps
    # An event whose endpoints are not of the kinds its syscall takes is
    # malformed; a dangling one is only dangling.
    keep = np.ones(len(events), dtype=bool)
    keep[dangling] = False
    rows = np.flatnonzero(keep)
    fits = ((kind_of[events.src[rows]] == PROCESS)
            & (kind_of[events.dst[rows]] == _OBJECT_KIND[events.syscall[rows]]))
    keep[rows[~fits]] = False
    malformed_events += len(rows) - int(fits.sum())
    if not keep.all():
        events = events.take(keep)

    stats = ParseStats(
        accepted_nodes=accepted_nodes, duplicate_nodes=duplicate_nodes,
        malformed_nodes=malformed_nodes, accepted_events=len(events),
        dropped_events=dropped_events, malformed_events=malformed_events,
        dangling_events=dangling_events, synthesized_nodes=synthesized_nodes,
        malformed_lines=malformed_lines)
    return nodes, events, stats


def parse_file(path, synthesize_dangling: bool = False):
    """parse_stream over a file on disk, each line decoded as UTF-8."""
    with open(path, "rb") as fh:
        return parse_stream(fh, synthesize_dangling=synthesize_dangling)


def compute_corpus_stats(events, nodes: Iterable[NodeRecord] = ()
                         ) -> CorpusStats:
    """Count events per entity and per syscall.

    events is an EventTable or Event records. An entity appearing in an
    event is counted once per event, whether it is the subject, the object,
    or both. The counts come from events alone; ``nodes`` is not read and
    stays only so two-argument calls keep working.
    """
    events = numbered_events(events)
    size = len(events.ids)
    counts = np.bincount(events.src, minlength=size)
    counts += np.bincount(events.dst[events.dst != events.src], minlength=size)
    return CorpusStats(len(events), events.ids, counts,
                       np.bincount(events.syscall,
                                   minlength=len(SYSCALL_NAMES)))


def cmdline_frequency(events, nodes) -> Counter:
    """Events per normalized command line of the acting process.

    Each event counts once, keyed by its subject's command line; subjects
    that are not declared processes are skipped. Of nodes sharing an id,
    the first counts.
    """
    table = NodeTable.of(nodes)
    events = numbered_events(events, table.ids)
    acts = np.bincount(events.src, minlength=len(events.ids))[:len(table)]
    frequency: Counter = Counter()
    for v in np.flatnonzero(acts * (table.kind == PROCESS)).tolist():
        frequency[normalize_cmdline(table.texts[table.text[v]])] += int(acts[v])
    return frequency


def top_commands(frequency: Counter, k: int) -> list[tuple[str, int, float]]:
    """Top-k command lines by count with their share of all occurrences.

    Ties are broken lexicographically so the ranking is reproducible.
    """
    total = sum(frequency.values())
    ranked = sorted(frequency.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(cmd, count, count / total) for cmd, count in ranked[:k]]
