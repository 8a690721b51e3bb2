"""Seeded input corpora for the three benchmark workloads.

`provprune.synthgen` makes the planted-pattern corpora. It cannot make hub
processes or dense shared-file activity, so those generators live here. Every
generator is a pure function of the benchmark seed, and every corpus it
writes uses the record format `provprune` ingests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# The three all-process activity shapes of the acceptance criterion-2 pair.
SHAPES = (
    ("boot net probe", "mount scratch", "start workers", "warm cache",
     "announce ready"),
    ("poll job queue", "claim next job", "exec job payload",
     "ack job done", "idle wait"),
    ("rotate app logs", "compress rotated", "prune old archives",
     "verify checksums", "sync to store"),
)
LABEL_REPS = (50, 40, 30)
EVAL_100K_REPS = (4000, 2500, 1700)
HUB_EVAL_REPS = (400, 250, 170)

HUBS = 3
HUB_READS = 2000

DENSE_PROCESSES = 200
DENSE_FILES = 1000
DENSE_EVENTS = 3000
# The evaluation corpus replays the labeled activity this much later.
DENSE_REPLAY_SHIFT = 86_400_000


@dataclass
class Corpus:
    """One generated corpus: its record lines plus what the generator knows."""

    lines: list[str]
    iocs: list[str] = field(default_factory=list)
    pattern_ids: set[str] = field(default_factory=set)
    malicious_ids: set[str] = field(default_factory=set)


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def synth_corpus(seed: int, reps) -> Corpus:
    """A synthgen corpus of the three shapes, an attack chain and noise."""
    from provprune.synthgen import (
        AttackSpec,
        PatternSpec,
        SynthSpec,
        generate,
        ioc_file_lines,
    )

    spec = SynthSpec(
        seed=seed,
        benign_patterns=[PatternSpec(kinds=("process",) * len(s), texts=s,
                                     repetitions=r)
                         for s, r in zip(SHAPES, reps)],
        target_benign_share=0.3,
        attack=AttackSpec(),
    )
    lines, truth = generate(spec)
    return Corpus(lines=lines, iocs=ioc_file_lines(truth),
                  pattern_ids=set(truth.pattern_node_ids),
                  malicious_ids=set(truth.malicious_ids))


def eval_100k(seed: int) -> tuple[Corpus, Corpus]:
    """The criterion-2 corpus pair, with synthgen seeds drawn from `seed`."""
    label_seed, eval_seed = _seeds("eval-100k", seed, 2)
    return (synth_corpus(label_seed, LABEL_REPS),
            synth_corpus(eval_seed, EVAL_100K_REPS))


def add_hubs(corpus: Corpus, seed: int, hubs: int = HUBS,
             reads: int = HUB_READS) -> Corpus:
    """Append backup-style hub processes, each reading `reads` distinct files.

    A hub and its files form a star: no path through it reaches five nodes,
    so the hubs add enumeration work but no chain.
    """
    rng = random.Random(seed)
    lines = list(corpus.lines)
    base_ts = 2_000_000_000
    for h in range(hubs):
        hub_id = f"bk{h}:p"
        user = f"u{rng.randrange(1000):03d}"
        lines.append(_dumps({"kind": "process", "id": hub_id, "ts": base_ts,
                             "cmdline": f"backup-agent --sweep /home/{user}"}))
        order = list(range(reads))
        rng.shuffle(order)
        for j in order:
            lines.append(_dumps({"kind": "file", "id": f"bk{h}:f{j}",
                                 "ts": base_ts,
                                 "path": f"/home/{user}/docs/d{j // 50:02d}/"
                                         f"f{j:05d}.txt"}))
        for j in order:
            lines.append(_dumps({"kind": "event", "syscall": "read",
                                 "subject": hub_id, "object": f"bk{h}:f{j}",
                                 "ts": base_ts + 1000 * (j * hubs + h + 1)}))
    return Corpus(lines=lines, iocs=corpus.iocs,
                  pattern_ids=corpus.pattern_ids,
                  malicious_ids=corpus.malicious_ids)


def hub_fanout(seed: int) -> tuple[Corpus, Corpus]:
    """Criterion-2 labeled corpus; a tenth-size eval corpus plus hubs."""
    label_seed, eval_seed, hub_seed = _seeds("hub-fanout", seed, 3)
    return (synth_corpus(label_seed, LABEL_REPS),
            add_hubs(synth_corpus(eval_seed, HUB_EVAL_REPS), hub_seed))


def dense_activity(seed: int, processes: int = DENSE_PROCESSES,
                   files: int = DENSE_FILES, events: int = DENSE_EVENTS):
    """Nodes (kind, id, text) and events of a dense read-write graph."""
    rng = random.Random(seed)
    nodes = [("process", f"p{i}", f"svc-{i:03d} --tenant t{rng.randrange(50)}")
             for i in range(processes)]
    nodes += [("file", f"f{i}", f"/srv/pool/s{rng.randrange(40):02d}/"
                                f"obj{i:04d}.bin")
              for i in range(files)]
    edges = [(f"p{rng.randrange(processes)}", f"f{rng.randrange(files)}",
              rng.choice(("read", "write")), 1_000_000_000 + 1000 * (k + 1))
             for k in range(events)]
    return nodes, edges


def dense_lines(activity, prefix: str, shift: int) -> list[str]:
    """Record lines of `activity` with ids prefixed and times shifted."""
    nodes, edges = activity
    lines = []
    for kind, node_id, text in nodes:
        attr = "cmdline" if kind == "process" else "path"
        lines.append(_dumps({"kind": kind, "id": prefix + node_id,
                             "ts": 1_000_000_000 + shift, attr: text}))
    for subject, obj, syscall, ts in edges:
        lines.append(_dumps({"kind": "event", "syscall": syscall,
                             "subject": prefix + subject,
                             "object": prefix + obj, "ts": ts + shift}))
    return lines


def label_dense(seed: int) -> tuple[Corpus, Corpus]:
    """Dense activity, and the same activity replayed a day later.

    The replay renames every node and shifts every timestamp, so it shares
    all activity shapes and entity weights with the labeled corpus without
    sharing a node id.
    """
    (dense_seed,) = _seeds("label-dense", seed, 1)
    activity = dense_activity(dense_seed)
    return (Corpus(lines=dense_lines(activity, "a:", 0)),
            Corpus(lines=dense_lines(activity, "b:", DENSE_REPLAY_SHIFT)))
