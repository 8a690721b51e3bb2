"""Audit-log record parsing and corpus statistics.

Reads line-delimited JSON records (one node or event per line), keeps only
events whose system call belongs to the analyzed set, and tallies everything
it rejects instead of failing.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import IO, Iterable, NamedTuple

KIND_PROCESS = "process"
KIND_FILE = "file"
KIND_NETFLOW = "netflow"

# A tuple, so `kind in NODE_KINDS` never hashes a decoded JSON list or dict.
NODE_KINDS = (KIND_PROCESS, KIND_FILE, KIND_NETFLOW)

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
# Decoded syscall name -> (the module's own string for it, its object kind).
_SYSCALLS = {name: (name, kind) for name, kind in SYSCALL_OBJECT_KIND.items()}


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


@dataclass
class CorpusStats:
    """Event totals feeding the entity weights and the dataset characterization."""

    total_events: int = 0
    per_entity_event_count: Counter = field(default_factory=Counter)
    per_syscall_count: Counter = field(default_factory=Counter)


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
) -> tuple[list[NodeRecord], list[Event], ParseStats]:
    """Parse a line-delimited record stream into nodes, filtered events, and tallies.

    Lines are str, or bytes decoded as UTF-8. Events with unanalyzed syscalls
    are dropped and counted; structurally bad records and undecodable lines
    are counted; events whose endpoints were never declared are counted as
    dangling and excluded unless ``synthesize_dangling`` is set, in which case
    placeholder nodes of the kind implied by the syscall are minted so the
    event can be kept.
    """
    nodes: dict[str, NodeRecord] = {}
    pending: list = []
    duplicate_nodes = malformed_nodes = 0
    dropped_events = malformed_events = malformed_lines = 0
    new = tuple.__new__
    # The first object seen for each value; no str equals an int, so
    # attribute texts and numbers share the one memo.
    share = {}.setdefault

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
                    or type(syscall) is not str or type(ts) is not int):
                malformed_events += 1
            elif syscall in ANALYZED_SYSCALLS:
                # An endpoint declared already is its record's id object
                # from here on, so the decoded copy is freed with the line.
                record = nodes.get(subject)
                if record is not None:
                    subject = record.id
                record = nodes.get(target)
                if record is not None:
                    target = record.id
                pending.append((subject, target, syscall, ts))
            else:
                dropped_events += 1
            continue
        if kind not in NODE_KINDS:
            malformed_lines += 1
            continue
        node_id = obj.get("id")
        ts = obj.get("ts")
        if ts is None:
            ts = 0
        # Records hold the module's kind strings, and one object per distinct
        # attribute value and timestamp, not one decoded copy each.
        fields = None
        if type(node_id) is str and node_id and type(ts) is int:
            if kind == KIND_PROCESS:
                cmdline = obj.get("cmdline", "")
                if type(cmdline) is str:
                    fields = (node_id, KIND_PROCESS, share(cmdline, cmdline),
                              "", "", 0, "", 0, share(ts, ts))
            elif kind == KIND_FILE:
                path = obj.get("path", "")
                if type(path) is str:
                    fields = (node_id, KIND_FILE, "", share(path, path), "", 0,
                              "", 0, share(ts, ts))
            else:
                raddr = obj.get("raddr", "")
                rport = obj.get("rport", 0)
                laddr = obj.get("laddr", "")
                lport = obj.get("lport", 0)
                if (type(raddr) is str and type(laddr) is str
                        and type(rport) is int and 0 <= rport <= 65535
                        and type(lport) is int and 0 <= lport <= 65535):
                    fields = (node_id, KIND_NETFLOW, "", "",
                              share(raddr, raddr), share(rport, rport),
                              share(laddr, laddr), share(lport, lport),
                              share(ts, ts))
        if fields is None:
            malformed_nodes += 1
        elif node_id in nodes:
            duplicate_nodes += 1
        else:
            nodes[node_id] = new(NodeRecord, fields)

    accepted_nodes = len(nodes)
    synthesized_nodes = dangling_events = 0
    # Accepted events hold the node records' id strings and the module's
    # syscall names, not one decoded copy each. Each one takes the list slot
    # of an entry already read, so decoded copies are freed as it goes.
    kept = 0
    for subject, target, syscall, ts in pending:
        syscall, want_kind = _SYSCALLS[syscall]
        subj_rec = nodes.get(subject)
        obj_rec = nodes.get(target)
        if subj_rec is None or obj_rec is None:
            if not synthesize_dangling:
                dangling_events += 1
                continue
            if subj_rec is None:
                subj_rec = nodes[subject] = NodeRecord(subject, KIND_PROCESS)
                synthesized_nodes += 1
            if target == subject:
                obj_rec = subj_rec  # one placeholder, never re-minted
            elif obj_rec is None:
                obj_rec = nodes[target] = NodeRecord(target, want_kind)
                synthesized_nodes += 1
        if subj_rec.kind != KIND_PROCESS or obj_rec.kind != want_kind:
            malformed_events += 1
            continue
        pending[kept] = new(Event, (subj_rec.id, obj_rec.id, syscall, ts))
        kept += 1
    del pending[kept:]
    events: list[Event] = pending

    stats = ParseStats(
        accepted_nodes=accepted_nodes, duplicate_nodes=duplicate_nodes,
        malformed_nodes=malformed_nodes, accepted_events=len(events),
        dropped_events=dropped_events, malformed_events=malformed_events,
        dangling_events=dangling_events, synthesized_nodes=synthesized_nodes,
        malformed_lines=malformed_lines)
    return list(nodes.values()), events, stats


def parse_file(path, synthesize_dangling: bool = False):
    """parse_stream over a file on disk, each line decoded as UTF-8."""
    with open(path, "rb") as fh:
        return parse_stream(fh, synthesize_dangling=synthesize_dangling)


_subject = attrgetter("subject")
_syscall = attrgetter("syscall")


def compute_corpus_stats(events: Iterable[Event],
                         nodes: Iterable[NodeRecord] = ()) -> CorpusStats:
    """Count events per entity and per syscall.

    An entity appearing in an event is counted once per event, whether it is
    the subject, the object, or both. The counts come from events alone;
    ``nodes`` is not read and stays only so two-argument calls keep working.
    """
    events = list(events)
    per_entity = Counter(map(_subject, events))
    per_entity.update(ev.object for ev in events if ev.object != ev.subject)
    return CorpusStats(total_events=len(events),
                       per_entity_event_count=per_entity,
                       per_syscall_count=Counter(map(_syscall, events)))


def cmdline_frequency(events: Iterable[Event],
                      nodes: Iterable[NodeRecord]) -> Counter:
    """Events per normalized command line of the acting process.

    Each event counts once, keyed by its subject's command line; subjects
    that are not declared processes are skipped.
    """
    by_id = {n.id: n for n in nodes}
    frequency: Counter = Counter()
    for subject, count in Counter(map(_subject, events)).items():
        node = by_id.get(subject)
        if node is not None and node.kind == KIND_PROCESS:
            frequency[normalize_cmdline(node.cmdline)] += count
    return frequency


def top_commands(frequency: Counter, k: int) -> list[tuple[str, int, float]]:
    """Top-k command lines by count with their share of all occurrences.

    Ties are broken lexicographically so the ranking is reproducible.
    """
    total = sum(frequency.values())
    ranked = sorted(frequency.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(cmd, count, count / total) for cmd, count in ranked[:k]]
