"""Audit-log record parsing, node and event columns, and corpus statistics.

Reads line-delimited JSON records (one node or event per line), keeps only
events whose system call belongs to the analyzed set, and tallies everything
it rejects instead of failing. What it keeps is held as columns: a node gets
a number at its first declaration, and an event holds its endpoints'
numbers, a syscall code and its timestamp. parse_stream is the only way
records become columns: the two tables it returns share one ids list, and
every later stage takes them as they are. A NodeTable's row reads as a
NodeRecord, a view built on access; an event is read from its columns.

A binary io stream is read in blocks of whole lines. A block whose lines are
all canonical (the form synth, the JSONL export and json.dumps with sorted
keys and no spaces write, strings without escapes) is taken apart by two
patterns; any other block goes line by line through the JSON scanner. The
results are the same either way: the patterns match only lines the scanner
reads as the record they capture.
"""

from __future__ import annotations

import io
import json
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import IO, Iterable, NamedTuple

import numpy as np

from .constants import (KIND_FILE, KIND_NETFLOW, KIND_PROCESS,
                        SYSCALL_OBJECT_KIND)

# A tuple, so `kind in NODE_KINDS` never hashes a decoded JSON list or dict.
# A node's kind code is the kind's position here.
NODE_KINDS = (KIND_PROCESS, KIND_FILE, KIND_NETFLOW)
PROCESS, FILE, NETFLOW = range(len(NODE_KINDS))

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

    A view of a NodeTable row; no function builds columns from one. An
    immutable named tuple: equal by value, hashable, and ``._replace(...)``
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
    # Non-blank lines read by the JSON scanner rather than the canonical-line
    # patterns: which path a parse took, not what it found.
    scanned_lines: int = field(default=0, compare=False)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class _Columns:
    """The columns its subclass declares, set in that order by the
    constructor and not reassigned. A plain slotted class, not a dataclass:
    making one costs the import about a millisecond.
    """

    __slots__ = ()

    def __init__(self, *columns):
        for name, column in zip(self.__slots__, columns, strict=True):
            setattr(self, name, column)


class NodeTable(_Columns):
    """Node columns, row v for node v; table[v] reads it as a NodeRecord.

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


class EventTable(_Columns):
    """Event columns, row i for event i.

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


@dataclass(eq=False)
class CorpusStats:
    """Event totals feeding the entity weights and the dataset characterization.

    entity_counts[v] counts the events entity ids[v] takes part in, once per
    event whether it is the subject, the object, or both; syscall_counts[c]
    counts the events of SYSCALL_NAMES[c].
    """

    total_events: int
    ids: list[str]
    entity_counts: np.ndarray
    syscall_counts: np.ndarray

    @property
    def per_syscall_count(self) -> Counter:
        return Counter({name: count for name, count in
                        zip(SYSCALL_NAMES, self.syscall_counts.tolist())
                        if count})


def normalize_cmdline(text: str) -> str:
    """Collapse whitespace runs so frequency keys are stable; nothing else."""
    return " ".join(text.split())


# json.loads without its Python-level wrappers: the decoder's scanner reads
# one value at an index and returns where the value ended (StopIteration: no
# value starts there). On a stripped line, "ends at len(line)" is exactly
# json.loads's test, which allows only whitespace after the value; a leading
# BOM, which json.loads rejects, starts no value.
_scan_value = json.JSONDecoder().scan_once

# Canonical record lines, each led by the "\n" that ends the line before:
# json.dumps(record, sort_keys=True, separators=(",", ":")) of a record with
# every field of its kind. A string holds no quote, backslash or control
# character, so the text between its quotes is its value and no line end
# falls inside it; an id is not empty. An integer is JSON's (no leading
# zero, "-0" allowed) of at most 19 digits, a port at most 65535; a ts past
# int64 is caught when its block's column is built. Whitespace, escapes,
# another key order, a repeated or missing key fail to match, and the block
# holding such a line goes to the scanner.
_STR = r'"([^"\\\x00-\x1f]*)"'
_ID = r'"([^"\\\x00-\x1f]+)"'
_INT = r'(-?(?:0|[1-9][0-9]{0,18}))'
_PORT = (r'(0|[1-9][0-9]{0,3}|[1-5][0-9]{4}|6[0-4][0-9]{3}|65[0-4][0-9]{2}'
         r'|655[0-2][0-9]|6553[0-5])')
# Groups: object, subject, syscall, ts.
_EVENT_LINE = re.compile(
    rf'\n\{{"kind":"event","object":{_ID},"subject":{_ID},'
    rf'"syscall":{_STR},"ts":{_INT}\}}(?=\n)')
# Groups: cmdline, process id, file id, path, netflow id, laddr, lport,
# raddr, rport, ts; those of the other kinds are "".
_NODE_LINE = re.compile(
    rf'\n\{{(?:"cmdline":{_STR},"id":{_ID},"kind":"process"'
    rf'|"id":{_ID},"kind":"file","path":{_STR}'
    rf'|"id":{_ID},"kind":"netflow","laddr":{_STR},"lport":{_PORT},'
    rf'"raddr":{_STR},"rport":{_PORT}),"ts":{_INT}\}}(?=\n)')

# A high surrogate directly followed by a low one (see parse_stream).
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]").search

# Bytes read from a binary stream at a time. Blocks of 1 MB were no faster
# and raised the peak RSS of parsing a 237k-line corpus from 56 to 67 MB.
BLOCK_BYTES = 1 << 16


def _decoded(block: bytes):
    """(text, None) when block decodes as UTF-8, else (None, its lines)."""
    try:
        return block.decode(), None
    except UnicodeDecodeError:
        return None, block.split(b"\n")


def _blocks(read):
    """The whole lines of a binary stream a block at a time, as _decoded
    gives them. Each block starts with a line end, as the patterns above
    need; a last line without one gets one."""
    size = BLOCK_BYTES
    pending = [b"\n"]
    while chunk := read(size):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        yield _decoded(b"".join(pending))
        pending = [b"\n", chunk[cut:]]
    tail = b"".join(pending[1:])
    if tail:
        yield _decoded(b"\n" + tail + b"\n")


def _canonical_block(text: str):
    """A block's node rows with their ts column and its event columns
    (subjects, objects, syscalls, ts), when every line is canonical and
    every ts fits int64; else None, at once when the first line is not."""
    if not (_EVENT_LINE.match(text) or _NODE_LINE.match(text)):
        return None
    events = _EVENT_LINE.findall(text)
    nodes = _NODE_LINE.findall(text)
    if len(events) + len(nodes) != text.count("\n") - 1:
        return None
    objects, subjects, names, stamps = zip(*events) if events else ((),) * 4
    try:
        return (nodes, array("q", map(int, map(itemgetter(-1), nodes))),
                subjects, objects, names, array("q", map(int, stamps)))
    except OverflowError:
        return None


def parse_stream(
    source: Iterable[str | bytes] | IO[str] | IO[bytes],
    synthesize_dangling: bool = False,
) -> tuple[NodeTable, EventTable, ParseStats]:
    """Parse a line-delimited record stream into node and event columns, and
    tallies.

    Lines are str, or bytes decoded as UTF-8. A timestamp outside int64
    makes its record malformed, and so does an id or text holding a high
    surrogate directly followed by a low one, which JSON escapes as a pair
    that reads back as one character (only str lines can hold it). Events
    with unanalyzed syscalls are dropped and counted; structurally bad
    records and undecodable lines are counted; events whose endpoints were
    never declared are counted as dangling and excluded unless
    ``synthesize_dangling`` is set, in which case placeholder nodes of the
    kind implied by the syscall are minted so the event can be kept. Nodes
    are numbered in order of declaration and the placeholders after them,
    in the order they are minted; events stay in file order. A binary io
    stream is read a block at a time, and canonical lines skip the JSON
    scanner (see the module docstring).
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
    dropped_events = malformed_events = malformed_lines = scanned_lines = 0

    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        batches = _blocks(source.read)
    else:
        batches = ((None, source),)
    for decoded, lines in batches:
        block = decoded and _canonical_block(decoded)
        if block:
            rows, node_ts, subjects, objects, names, event_ts = block
            # The block's nodes are numbered before its events: an event
            # read before its endpoints' declarations would resolve to the
            # same numbers at the end of the file, and placeholders are
            # minted in event order either way.
            for (cmdline, pid, fid, path, nid, laddr, lport, raddr, rport,
                 _), ts in zip(rows, node_ts):
                if pid:
                    node_id, kind, attr = pid, PROCESS, cmdline
                elif fid:
                    node_id, kind, attr = fid, FILE, path
                else:
                    node_id, kind = nid, NETFLOW
                    attr = f"{raddr}:{rport}"
                if node_id in number:
                    duplicate_nodes += 1
                    continue
                number[node_id] = len(number)
                kinds.append(kind)
                texts.append(code(attr, len(codes)))
                laddrs.append(code(laddr, len(codes)))
                lports.append(int(lport) if lport else 0)
                firsts.append(ts)
            block_calls = list(map(_SYSCALL_CODE.get, names))
            if None in block_calls:
                keep = [call is not None for call in block_calls]
                dropped_events += keep.count(False)
                subjects = list(compress(subjects, keep))
                objects = list(compress(objects, keep))
                block_calls = list(compress(block_calls, keep))
                event_ts = compress(event_ts, keep)
            block_src = list(map(number.get, subjects))
            block_dst = list(map(number.get, objects))
            if None in block_src or None in block_dst:
                row = len(calls)
                for i, (s, t) in enumerate(zip(block_src, block_dst)):
                    if s is None or t is None:
                        late.append((row + i, subjects[i], objects[i]))
                        block_src[i] = block_dst[i] = -1
            src.extend(block_src)
            dst.extend(block_dst)
            calls.extend(block_calls)
            stamps.extend(event_ts)
            continue
        if decoded is not None:
            lines = decoded.split("\n")
        # Every JSON value is exactly one of dict, list, str, int, float,
        # bool or None, so `type(x) is int` is "an int and not a bool".
        for line in lines:
            try:
                if type(line) is bytes:
                    line = line.decode()
                line = line.strip()
                if not line:
                    continue
                scanned_lines += 1
                obj, end = _scan_value(line, 0)
            except (ValueError, StopIteration, RecursionError):
                # Bad UTF-8, bad JSON, an integer too long to convert, or
                # nesting deeper than the interpreter allows.
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
                        or not TS_MIN <= ts <= TS_MAX
                        or _SURROGATE_PAIR(subject) or _SURROGATE_PAIR(target)):
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
            if (type(text) is not str or _SURROGATE_PAIR(node_id)
                    or _SURROGATE_PAIR(text) or _SURROGATE_PAIR(laddr)):
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
        malformed_lines=malformed_lines, scanned_lines=scanned_lines)
    return nodes, events, stats


def parse_file(path, synthesize_dangling: bool = False):
    """parse_stream over a file on disk, each line decoded as UTF-8."""
    with open(path, "rb") as fh:
        return parse_stream(fh, synthesize_dangling=synthesize_dangling)


def check_numbering(ids: list[str], other: list[str], what: str) -> None:
    """Refuse columns that number nodes other than as the node table does:
    both must hold the same ids list, as parse_stream's two tables do."""
    if other is ids or other == ids:
        return
    at = next((v for v, (a, b) in enumerate(zip(ids, other)) if a != b),
              min(len(ids), len(other)))
    raise ValueError(f"{what} number {len(other)} node ids and the node "
                     f"table {len(ids)}; they differ from position {at}")


def compute_corpus_stats(events: EventTable, nodes=()) -> CorpusStats:
    """Count events per entity and per syscall.

    An entity appearing in an event is counted once per event, whether it
    is the subject, the object, or both. The counts come from events alone;
    ``nodes`` is not read and stays only so two-argument calls keep working.
    """
    size = len(events.ids)
    counts = np.bincount(events.src, minlength=size)
    counts += np.bincount(events.dst[events.dst != events.src], minlength=size)
    return CorpusStats(len(events), events.ids, counts,
                       np.bincount(events.syscall,
                                   minlength=len(SYSCALL_NAMES)))


def cmdline_frequency(events: EventTable, nodes: NodeTable) -> Counter:
    """Events per normalized command line of the acting process.

    Each event counts once, keyed by its subject's command line; subjects
    that are not processes, or whose command line is empty once normalized
    (a placeholder's, or a process declared without one), are skipped.
    """
    check_numbering(nodes.ids, events.ids, "the events")
    acts = np.bincount(events.src, minlength=len(nodes))
    frequency: Counter = Counter()
    for v in np.flatnonzero(acts * (nodes.kind == PROCESS)).tolist():
        frequency[normalize_cmdline(nodes.texts[nodes.text[v]])] += int(acts[v])
    del frequency[""]
    return frequency


def top_commands(frequency: Counter, k: int) -> list[tuple[str, int, float]]:
    """Top-k command lines by count with their share of all occurrences.

    Ties are broken lexicographically so the ranking is reproducible.
    """
    total = sum(frequency.values())
    ranked = sorted(frequency.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(cmd, count, count / total) for cmd, count in ranked[:k]]
