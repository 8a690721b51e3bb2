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
from typing import IO, Iterable

KIND_PROCESS = "process"
KIND_FILE = "file"
KIND_NETFLOW = "netflow"

NODE_KINDS = frozenset({KIND_PROCESS, KIND_FILE, KIND_NETFLOW})

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


@dataclass(frozen=True)
class NodeRecord:
    """A process, file, or netflow entity. Only the fields for its kind are set."""

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


@dataclass(frozen=True)
class Event:
    """A syscall-typed edge: subject is always a process."""

    subject: str
    object: str
    syscall: str
    ts: int

    def sort_key(self):
        return (self.ts, self.subject, self.object, self.syscall)


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

    def total_event_records(self) -> int:
        return (self.accepted_events + self.dropped_events
                + self.malformed_events + self.dangling_events)

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


def _coerce_port(value) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    if not 0 <= value <= 65535:
        return None
    return value


def _coerce_ts(value) -> int | None:
    if value is None:
        return 0
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


def _node_from_obj(obj: dict) -> NodeRecord | None:
    node_id = obj.get("id")
    if not isinstance(node_id, str) or not node_id:
        return None
    ts = _coerce_ts(obj.get("ts"))
    if ts is None:
        return None
    kind = obj["kind"]
    if kind == KIND_PROCESS:
        cmdline = obj.get("cmdline", "")
        if not isinstance(cmdline, str):
            return None
        return NodeRecord(id=node_id, kind=kind, cmdline=cmdline, first_seen=ts)
    if kind == KIND_FILE:
        path = obj.get("path", "")
        if not isinstance(path, str):
            return None
        return NodeRecord(id=node_id, kind=kind, path=path, first_seen=ts)
    raddr = obj.get("raddr", "")
    laddr = obj.get("laddr", "")
    rport = _coerce_port(obj.get("rport", 0))
    lport = _coerce_port(obj.get("lport", 0))
    if not isinstance(raddr, str) or not isinstance(laddr, str):
        return None
    if rport is None or lport is None:
        return None
    return NodeRecord(id=node_id, kind=kind, remote_addr=raddr, remote_port=rport,
                      local_addr=laddr, local_port=lport, first_seen=ts)


def _placeholder_node(node_id: str, kind: str) -> NodeRecord:
    return NodeRecord(id=node_id, kind=kind)


def parse_stream(
    source: Iterable[str] | IO[str],
    synthesize_dangling: bool = False,
) -> tuple[list[NodeRecord], list[Event], ParseStats]:
    """Parse a line-delimited record stream into nodes, filtered events, and tallies.

    Events with unanalyzed syscalls are dropped and counted; structurally bad
    records and undecodable lines are counted; events whose endpoints were never
    declared are counted as dangling and excluded unless ``synthesize_dangling``
    is set, in which case placeholder nodes of the kind implied by the syscall
    are minted so the event can be kept.
    """
    nodes: dict[str, NodeRecord] = {}
    pending: list[tuple[str, str, str, int]] = []
    stats = ParseStats()

    for line in source:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
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
                    or isinstance(ts, bool) or not isinstance(ts, int)):
                stats.malformed_events += 1
                continue
            if syscall not in ANALYZED_SYSCALLS:
                stats.dropped_events += 1
                continue
            pending.append((subject, target, syscall, ts))
        elif kind in NODE_KINDS:
            record = _node_from_obj(obj)
            if record is None:
                stats.malformed_nodes += 1
            elif record.id in nodes:
                stats.duplicate_nodes += 1
            else:
                nodes[record.id] = record
                stats.accepted_nodes += 1
        else:
            stats.malformed_lines += 1

    events: list[Event] = []
    for subject, target, syscall, ts in pending:
        want_kind = SYSCALL_OBJECT_KIND[syscall]
        subj_rec = nodes.get(subject)
        obj_rec = nodes.get(target)
        if subj_rec is None or obj_rec is None:
            if not synthesize_dangling:
                stats.dangling_events += 1
                continue
            if subj_rec is None:
                subj_rec = _placeholder_node(subject, KIND_PROCESS)
                nodes[subject] = subj_rec
                stats.synthesized_nodes += 1
            if obj_rec is None:
                obj_rec = _placeholder_node(target, want_kind)
                nodes[target] = obj_rec
                stats.synthesized_nodes += 1
        if subj_rec.kind != KIND_PROCESS or obj_rec.kind != want_kind:
            stats.malformed_events += 1
            continue
        events.append(Event(subject=subject, object=target, syscall=syscall, ts=ts))
        stats.accepted_events += 1

    return list(nodes.values()), events, stats


def parse_file(path, synthesize_dangling: bool = False):
    """parse_stream over a UTF-8 file on disk."""
    with open(path, "r", encoding="utf-8") as fh:
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
