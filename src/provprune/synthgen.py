"""Deterministic synthetic audit-log corpora with known ground truth.

Plants repeated benign activity chains (fresh node ids, reused attribute
texts), filler noise chains, and one isolated attack chain whose texts carry
IoC markers, so end-to-end runs can be scored exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .constants import (KIND_FILE, KIND_NETFLOW, KIND_PROCESS,
                        SYSCALL_OBJECT_KIND)
from .settings import from_json

# Per object kind, the syscalls an event on it draws from, in table order.
_SYSCALLS_BY_KIND = {
    kind: tuple(name for name, of in SYSCALL_OBJECT_KIND.items() if of == kind)
    for kind in dict.fromkeys(SYSCALL_OBJECT_KIND.values())
}

DEFAULT_ATTACK_KINDS = (
    KIND_PROCESS, KIND_FILE, KIND_PROCESS, KIND_NETFLOW, KIND_PROCESS,
    KIND_FILE, KIND_PROCESS, KIND_NETFLOW, KIND_PROCESS,
)
DEFAULT_ATTACK_TEXTS = (
    "zz-dropper --fetch stage1",
    "/tmp/.zz-implant.bin",
    "zz-implant --persist",
    "203.0.113.66:4444",
    "zz-beacon --interval 30",
    "/tmp/.zz-loot.tgz",
    "zz-exfil --pack",
    "203.0.113.67:8443",
    "zz-cleaner --wipe-logs",
)
# generate() holds every line in memory, so a spec that plans more records
# than this is refused before any line is built. eval-100k's evaluation
# corpus is 237,890 lines, and four times its patterns give 951,205.
MAX_RECORDS = 10_000_000


@dataclass
class PatternSpec:
    """One benign activity template; every repetition reuses its texts."""

    kinds: tuple[str, ...]
    texts: tuple[str, ...]
    repetitions: int


@dataclass
class AttackSpec:
    kinds: tuple[str, ...] = DEFAULT_ATTACK_KINDS
    texts: tuple[str, ...] = DEFAULT_ATTACK_TEXTS


@dataclass
class SynthSpec:
    seed: int = 1
    hosts: int = 1
    benign_patterns: list[PatternSpec] = field(default_factory=list)
    noise_events: int = 0
    attack: AttackSpec | None = None
    target_benign_share: float | None = None
    disjoint_mode: bool = True


@dataclass
class GroundTruth:
    malicious_ids: list[str] = field(default_factory=list)
    pattern_node_ids: list[str] = field(default_factory=list)
    planted_share: float = 0.0
    total_nodes: int = 0
    total_events: int = 0
    ioc_texts: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, separators=(",", ":"))


def _validate_chain(kinds, texts, what: str) -> None:
    if len(kinds) != len(texts):
        raise ValueError(f"{what}: kinds and texts lengths differ")
    if len(kinds) < 2:
        raise ValueError(f"{what}: a chain needs at least 2 nodes")
    for k in kinds:
        if k not in _SYSCALLS_BY_KIND:
            raise ValueError(f"{what}: unknown kind {k!r}")
    for a, b in zip(kinds, kinds[1:]):
        if KIND_PROCESS not in (a, b):
            raise ValueError(f"{what}: consecutive kinds {a}/{b} leave no "
                             f"process to act as event subject")


def validate_spec(spec: SynthSpec) -> None:
    if spec.hosts < 1:
        raise ValueError("hosts must be at least 1")
    if not spec.benign_patterns and spec.target_benign_share:
        raise ValueError("a benign share target needs at least one pattern")
    for i, pat in enumerate(spec.benign_patterns):
        _validate_chain(pat.kinds, pat.texts, f"pattern {i}")
        if pat.repetitions < 1:
            raise ValueError(f"pattern {i}: repetitions must be >= 1")
    if spec.attack is not None:
        _validate_chain(spec.attack.kinds, spec.attack.texts, "attack chain")
    share = spec.target_benign_share
    if share is not None and not 0.0 < share <= 1.0:
        raise ValueError(f"target_benign_share must be in (0, 1], got {share}")
    planned = planned_records(spec)
    if planned > MAX_RECORDS:
        raise ValueError(f"the spec plans up to {planned:.4g} records, over "
                         f"the limit of {MAX_RECORDS:,}")
    if spec.disjoint_mode and spec.attack is not None:
        benign_texts = [t for pat in spec.benign_patterns for t in pat.texts]
        benign_texts += list(_noise_vocabulary(spec.seed))
        for attack_text in spec.attack.texts:
            for benign_text in benign_texts:
                if attack_text in benign_text or benign_text in attack_text:
                    raise ValueError(
                        f"attack text {attack_text!r} overlaps benign "
                        f"vocabulary entry {benign_text!r}")


def planned_records(spec: SynthSpec) -> float:
    """An upper bound on the lines generate(spec) writes, from the spec alone.

    A chain of k nodes is k node lines and k - 1 event lines. Noise made to
    a count of events is at most 3 lines per event (chains of 2 nodes), and
    noise made to a share is under 2 lines per node.
    """
    pattern_nodes = sum(len(p.kinds) * p.repetitions
                        for p in spec.benign_patterns)
    records = 2 * pattern_nodes - sum(p.repetitions
                                      for p in spec.benign_patterns)
    attack_nodes = len(spec.attack.kinds) if spec.attack else 0
    records += max(2 * attack_nodes - 1, 0)
    share = spec.target_benign_share
    if share is None:
        return records + 3 * max(spec.noise_events, 0)
    # In floats, where a share near 0 plans inf nodes and is refused; the
    # + 1 covers generate's rounding of pattern_nodes / share.
    noise_nodes = pattern_nodes / share + 1 - pattern_nodes - attack_nodes
    return records + 2 * max(noise_nodes, 0)


def _noise_vocabulary(seed: int) -> tuple[str, ...]:
    rng = random.Random(seed ^ 0x6E6F6973)
    cmdlines = [f"svc-worker-{rng.randrange(100):02d} --queue {rng.randrange(8)}"
                for _ in range(40)]
    paths = [f"/var/lib/noise/shard{rng.randrange(1000):03d}.dat"
             for _ in range(160)]
    addrs = [f"10.{rng.randrange(256)}.{rng.randrange(256)}."
             f"{rng.randrange(1, 255)}:{rng.randrange(1024, 65535)}"
             for _ in range(40)]
    return tuple(cmdlines + paths + addrs)


class _Emitter:
    """Accumulates record lines with one monotonically increasing clock."""

    def __init__(self, hosts: int):
        self.lines: list[str] = []
        self.hosts = hosts
        self.ts = 1_000_000_000
        self.counter = 0
        self.nodes = 0
        self.events = 0

    def _tick(self) -> int:
        self.ts += 1000
        return self.ts

    def fresh_id(self, host: int, kind: str) -> str:
        self.counter += 1
        return f"h{host % self.hosts}:{kind[0]}{self.counter}"

    def emit(self, obj: dict) -> None:
        self.lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))

    def node_line(self, node_id: str, kind: str, text: str, ts: int) -> None:
        obj: dict = {"kind": kind, "id": node_id, "ts": ts}
        if kind == KIND_PROCESS:
            obj["cmdline"] = text
        elif kind == KIND_FILE:
            obj["path"] = text
        else:
            addr, _, port = text.rpartition(":")
            obj["raddr"] = addr
            obj["rport"] = int(port)
            obj["laddr"] = "10.0.0.2"
            obj["lport"] = 38000 + (self.counter % 8000)
        self.emit(obj)
        self.nodes += 1

    def event_line(self, subject: str, obj_id: str, syscall: str, ts: int) -> None:
        self.emit({"kind": "event", "syscall": syscall, "subject": subject,
                   "object": obj_id, "ts": ts})
        self.events += 1


def _emit_chain(em: _Emitter, rng: random.Random, host: int,
                kinds, texts) -> list[str]:
    """One fresh chain instance; returns its node ids in chain order."""
    base_ts = em._tick()
    ids = []
    for kind, text in zip(kinds, texts):
        node_id = em.fresh_id(host, kind)
        em.node_line(node_id, kind, text, base_ts)
        ids.append(node_id)
    for i in range(len(ids) - 1):
        a_kind, b_kind = kinds[i], kinds[i + 1]
        if a_kind == KIND_PROCESS:
            subject, target, target_kind = ids[i], ids[i + 1], b_kind
        else:
            subject, target, target_kind = ids[i + 1], ids[i], a_kind
        syscall = rng.choice(_SYSCALLS_BY_KIND[target_kind])
        em.event_line(subject, target, syscall, em._tick())
    return ids


def _noise_chain_kinds(rng: random.Random, length: int) -> list[str]:
    kinds = [rng.choice((KIND_PROCESS, KIND_FILE, KIND_NETFLOW))]
    for _ in range(length - 1):
        if kinds[-1] == KIND_PROCESS:
            kinds.append(rng.choice((KIND_PROCESS, KIND_FILE, KIND_NETFLOW)))
        else:
            kinds.append(KIND_PROCESS)
    return kinds


def _noise_text(rng: random.Random, vocab, kind: str) -> str:
    # Vocabulary layout: 40 cmdlines, 160 paths, 40 addresses.
    if kind == KIND_PROCESS:
        return vocab[rng.randrange(40)]
    if kind == KIND_FILE:
        return vocab[40 + rng.randrange(160)]
    return vocab[200 + rng.randrange(40)]


def _plan_noise_nodes(spec: SynthSpec, pattern_nodes: int,
                      attack_nodes: int) -> int | None:
    share = spec.target_benign_share
    if share is None:
        return None
    total_needed = round(pattern_nodes / share)
    budget = total_needed - pattern_nodes - attack_nodes
    if budget < 0:
        raise ValueError(
            f"target share {share} is infeasible: {pattern_nodes} pattern "
            f"nodes cannot reach it with {attack_nodes} attack nodes present")
    return budget


def generate(spec: SynthSpec) -> tuple[list[str], GroundTruth]:
    """Emit the record stream and ground truth for one corpus."""
    validate_spec(spec)
    rng = random.Random(spec.seed)
    em = _Emitter(spec.hosts)
    vocab = _noise_vocabulary(spec.seed)
    truth = GroundTruth()

    host = 0
    for pat in spec.benign_patterns:
        for _ in range(pat.repetitions):
            ids = _emit_chain(em, rng, host, pat.kinds, pat.texts)
            truth.pattern_node_ids.extend(ids)
            host += 1

    pattern_nodes = len(truth.pattern_node_ids)
    attack_nodes = len(spec.attack.kinds) if spec.attack else 0
    noise_budget = _plan_noise_nodes(spec, pattern_nodes, attack_nodes)

    if noise_budget is None:
        remaining_events = spec.noise_events
        while remaining_events > 0:
            length = min(rng.randint(2, 5), remaining_events + 1)
            kinds = _noise_chain_kinds(rng, length)
            texts = [_noise_text(rng, vocab, k) for k in kinds]
            _emit_chain(em, rng, host, kinds, texts)
            remaining_events -= length - 1
            host += 1
    else:
        while noise_budget >= 2:
            length = min(rng.randint(2, 5), noise_budget)
            if noise_budget - length == 1:
                length = length + 1 if length < 5 else length - 1
            kinds = _noise_chain_kinds(rng, length)
            texts = [_noise_text(rng, vocab, k) for k in kinds]
            _emit_chain(em, rng, host, kinds, texts)
            noise_budget -= length
            host += 1

    if spec.attack is not None:
        ids = _emit_chain(em, rng, host, spec.attack.kinds, spec.attack.texts)
        truth.malicious_ids.extend(ids)
        truth.ioc_texts = sorted(set(spec.attack.texts))

    truth.total_nodes = em.nodes
    truth.total_events = em.events
    truth.planted_share = pattern_nodes / em.nodes if em.nodes else 0.0
    return em.lines, truth


def ioc_file_lines(truth: GroundTruth) -> list[str]:
    """IoC directives covering every attack text in the ground truth."""
    lines = ["# indicators for the planted attack chain"]
    lines.extend(f"ioc\t{text}" for text in truth.ioc_texts)
    return lines


def spec_from_json(text: str) -> SynthSpec:
    """Build a SynthSpec from its JSON file form, read by
    settings.from_json; "attack": true stands for the default attack chain
    and false for none."""
    obj = json.loads(text)
    if type(obj) is dict and type(obj.get("attack")) is bool:
        obj["attack"] = ({"kinds": list(DEFAULT_ATTACK_KINDS),
                          "texts": list(DEFAULT_ATTACK_TEXTS)}
                         if obj["attack"] else None)
    return from_json(SynthSpec, obj)


def sample_spec_json() -> str:
    """A ready-to-edit spec file body with three benign process chains."""
    spec = {
        "seed": 7,
        "hosts": 4,
        "benign_patterns": [
            {
                "kinds": [KIND_PROCESS] * 5,
                "texts": ["/usr/sbin/cron -f", "/bin/sh -c run-parts",
                          "run-parts /etc/cron.hourly", "logrotate status",
                          "gzip -9 rotate"],
                "repetitions": 40,
            },
            {
                "kinds": [KIND_PROCESS] * 5,
                "texts": ["systemd --user", "sshd: session", "bash -l",
                          "ls --color=auto", "git status"],
                "repetitions": 25,
            },
            {
                "kinds": [KIND_PROCESS] * 5,
                "texts": ["pkg-refresh --sync", "gpg --verify release",
                          "tar -xf bundle", "install-hook post", "ldconfig"],
                "repetitions": 15,
            },
        ],
        "target_benign_share": 0.3,
        "attack": True,
    }
    return json.dumps(spec, indent=2, sort_keys=True)
