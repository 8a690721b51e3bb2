"""Benign-label ranking, activity matching, and graph reduction metrics.

The top-ranked benign representatives are compared against every node-set of
the evaluation graph; nodes covered by any matching set are removed. Reports
carry the node accounting, false-negative and false-positive counts, and
per-stage timings.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .embed import WeightTable, effective_threshold
from .graph import Graph, remove_nodes
from .label import BENIGN, LabelTable, MaliciousNodeList
from .nodeset import (
    DEFAULT_CAP_PER_ANCHOR,
    DEFAULT_SET_SIZE,
    NodeSet,
    enumerate_node_sets,
    featurize_sets,
)

MATCH_CHUNK = 4096
# Elements of one chunk's similarity block (8 MB of float64), so a long
# representative list shortens the chunk instead of growing the block.
MATCH_BUDGET = 1 << 20


@dataclass
class ReductionReport:
    """Node accounting for one reduction run at a fixed top-n."""

    n_requested: int
    labels_used: int
    total_nodes_before: int
    nodes_removed: int
    nodes_after: int
    reduction_rate: float
    fn_count: int
    fp_count: int
    declared_nodes_total: int = 0
    per_stage_seconds: dict = field(default_factory=dict)
    removed_node_ids: list[str] | None = None
    note: str = ""

    def to_dict(self, include_removed_ids: bool = False) -> dict:
        out = {
            "n_requested": self.n_requested,
            "labels_used": self.labels_used,
            "total_nodes_before": self.total_nodes_before,
            "nodes_removed": self.nodes_removed,
            "nodes_after": self.nodes_after,
            "reduction_rate": self.reduction_rate,
            "fn_count": self.fn_count,
            "fp_count": self.fp_count,
            "declared_nodes_total": self.declared_nodes_total,
            "per_stage_seconds": dict(self.per_stage_seconds),
            "note": self.note,
        }
        if include_removed_ids and self.removed_node_ids is not None:
            out["removed_node_ids"] = sorted(self.removed_node_ids)
        return out


def assemble_report(n_requested: int, labels_used: int, incident_nodes: int,
                    removed_ids: set[str], malicious_ids: set[str],
                    incident_ids: set[str] | None = None,
                    declared_total: int = 0) -> ReductionReport:
    """Compute the accounting identities for one removal outcome.

    fn counts malicious nodes that were removed; fp counts benign nodes left
    behind (remaining minus remaining-malicious).
    """
    removed = len(removed_ids)
    after = incident_nodes - removed
    rate = 100.0 * removed / incident_nodes if incident_nodes else 0.0
    fn = len(removed_ids & malicious_ids)
    if incident_ids is None:
        remaining_malicious = len(malicious_ids - removed_ids)
    else:
        remaining_malicious = len((malicious_ids & incident_ids) - removed_ids)
    return ReductionReport(
        n_requested=n_requested,
        labels_used=labels_used,
        total_nodes_before=incident_nodes,
        nodes_removed=removed,
        nodes_after=after,
        reduction_rate=rate,
        fn_count=fn,
        fp_count=after - remaining_malicious,
        declared_nodes_total=declared_total,
    )


def rank_benign_labels(table: LabelTable) -> list[int]:
    """Benign label ids, most members first, creation order breaking ties."""
    benign = [lb for lb in table.labels if lb.polarity == BENIGN]
    benign.sort(key=lambda lb: (-lb.member_count, lb.created_seq))
    return [lb.label_id for lb in benign]


def representatives(table: LabelTable, ranked_ids: list[int]) -> np.ndarray:
    """Representative matrix in ranking order, rows L2-normalized.

    Zero representatives stay zero rows: cosine against a zero vector counts
    as 0 in every comparison.
    """
    by_id = {lb.label_id: lb for lb in table.labels}
    if not ranked_ids:
        return np.zeros((0, 0))
    rows = []
    for label_id in ranked_ids:
        rep = by_id[label_id].representative
        norm = float(np.linalg.norm(rep))
        rows.append(rep / norm if norm > 0.0 else np.zeros_like(rep))
    return np.stack(rows)


def _min_match_ranks(sets: list[NodeSet], reps: np.ndarray,
                     threshold: float) -> np.ndarray:
    """For each node-set, the lowest rep rank that matches it, or -1."""
    cutoff = effective_threshold(threshold)
    ranks = np.full(len(sets), -1, dtype=np.int64)
    if reps.size == 0 or not sets:
        return ranks
    features = np.stack([s.feature for s in sets])
    norms = np.linalg.norm(features, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    normalized = features / safe[:, None]
    chunk = max(1, min(MATCH_CHUNK, MATCH_BUDGET // reps.shape[0]))
    for lo in range(0, normalized.shape[0], chunk):
        block = normalized[lo:lo + chunk]
        sims = block @ reps.T
        hits = sims >= cutoff
        any_hit = hits.any(axis=1)
        first = hits.argmax(axis=1)
        ranks[lo:lo + block.shape[0]] = np.where(any_hit, first, -1)
    return ranks


def reduce_graph(g_eval: Graph, reps: np.ndarray, w_eval: WeightTable,
                 embedder, malicious: MaliciousNodeList,
                 threshold: float = 1.0, size: int = DEFAULT_SET_SIZE,
                 cap_per_anchor: int = DEFAULT_CAP_PER_ANCHOR,
                 keep_removed_ids: bool = True) -> tuple[Graph, ReductionReport]:
    """Remove every node covered by a node-set matching any representative."""
    t0 = time.perf_counter()
    sets = enumerate_node_sets(g_eval, size=size, cap_per_anchor=cap_per_anchor)
    t1 = time.perf_counter()
    sets = featurize_sets(sets, g_eval, w_eval, embedder)
    t2 = time.perf_counter()
    ranks = _min_match_ranks(sets, reps, threshold)
    removed_ids: set[str] = set()
    for node_set, rank in zip(sets, ranks):
        if rank >= 0:
            removed_ids.update(node_set.node_ids)
    t3 = time.perf_counter()

    incident = g_eval.event_node_ids()
    n = reps.shape[0] if reps.size else 0
    report = assemble_report(n_requested=n, labels_used=n,
                             incident_nodes=len(incident),
                             removed_ids=removed_ids,
                             malicious_ids=malicious.ids,
                             incident_ids=incident,
                             declared_total=len(g_eval.nodes))
    report.per_stage_seconds = {
        "enumerate": t1 - t0,
        "featurize": t2 - t1,
        "match": t3 - t2,
        "total": t3 - t0,
    }
    if keep_removed_ids:
        report.removed_node_ids = sorted(removed_ids)
    reduced = remove_nodes(g_eval, removed_ids)
    return reduced, report


def sweep_top_n(g_eval: Graph, table: LabelTable, w_eval: WeightTable,
                embedder, malicious: MaliciousNodeList, ns: list[int],
                threshold: float = 1.0, size: int = DEFAULT_SET_SIZE,
                cap_per_anchor: int = DEFAULT_CAP_PER_ANCHOR,
                keep_removed_ids: bool = False,
                population: set[str] | None = None) -> list[ReductionReport]:
    """One reduction report per requested top-n, sharing a single match pass.

    Representative prefixes are nested, so each node-set only needs the lowest
    rank that matches it; sweeping n is then a threshold walk over that array.
    population is the node set the reduction rate is taken over; by default
    the nodes incident to at least one event.
    """
    if sorted(ns) != list(ns):
        raise ValueError("top-n list must be ascending")
    ranked = rank_benign_labels(table)
    reps = representatives(table, ranked[: max(ns)] if ns else [])

    t0 = time.perf_counter()
    sets = enumerate_node_sets(g_eval, size=size, cap_per_anchor=cap_per_anchor)
    t1 = time.perf_counter()
    sets = featurize_sets(sets, g_eval, w_eval, embedder)
    t2 = time.perf_counter()
    ranks = _min_match_ranks(sets, reps, threshold)
    t3 = time.perf_counter()
    shared = {"enumerate": t1 - t0, "featurize": t2 - t1, "match": t3 - t2}

    if population is None:
        population = g_eval.event_node_ids()
    by_rank: dict[int, list[NodeSet]] = {}
    for node_set, rank in zip(sets, ranks):
        if rank >= 0:
            by_rank.setdefault(int(rank), []).append(node_set)

    reports = []
    removed_ids: set[str] = set()
    done = 0
    for n in ns:
        t4 = time.perf_counter()
        use = min(n, len(ranked))
        while done < use:
            for node_set in by_rank.get(done, ()):
                removed_ids.update(node_set.node_ids)
            done += 1
        report = assemble_report(n_requested=n, labels_used=use,
                                 incident_nodes=len(population),
                                 removed_ids=removed_ids,
                                 malicious_ids=malicious.ids,
                                 incident_ids=population,
                                 declared_total=len(g_eval.nodes))
        report.per_stage_seconds = dict(shared)
        report.per_stage_seconds["select"] = time.perf_counter() - t4
        report.per_stage_seconds["total"] = (
            sum(shared.values()) + report.per_stage_seconds["select"])
        if n > len(ranked):
            report.note = (f"requested top-{n} but only {len(ranked)} "
                           f"benign labels exist")
        if keep_removed_ids:
            report.removed_node_ids = sorted(removed_ids)
        reports.append(report)
    return reports


def write_sweep_csv(reports: list[ReductionReport], path) -> None:
    """Sweep table with one row per n: remaining nodes, FN, FP, rate, seconds."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "node_count", "fn", "fp",
                         "reduction_rate", "seconds"])
        for report in reports:
            writer.writerow([
                report.n_requested,
                report.nodes_after,
                report.fn_count,
                report.fp_count,
                f"{report.reduction_rate:.2f}",
                f"{report.per_stage_seconds.get('total', 0.0):.3f}",
            ])
