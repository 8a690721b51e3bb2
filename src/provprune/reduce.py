"""Benign-label ranking, activity matching, and graph reduction metrics.

The top-ranked benign representatives are compared against every node-set of
the evaluation graph; nodes covered by any matching set are removed
(`graph.remove_nodes` builds the reduced graph from a report's ids). Reports
carry the node accounting, false-negative and false-positive counts, and
per-stage timings.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .embed import (
    WeightTable,
    candidate_window,
    effective_threshold,
    window_holds,
)
from .graph import Graph
from .label import BENIGN, LabelTable, MaliciousNodeList
from .nodeset import (
    DEFAULT_CAP_PER_ANCHOR,
    DEFAULT_SET_SIZE,
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


def assemble_report(n_requested: int, labels_used: int, total: int,
                    removed: int, fn: int, remaining_malicious: int,
                    declared_total: int = 0) -> ReductionReport:
    """Compute the accounting identities for one removal outcome.

    total counts the population, the nodes the rate is reported on, and
    removed the nodes taken out. fn counts malicious nodes that were removed;
    fp counts benign nodes left behind: the nodes remaining minus
    remaining_malicious, the malicious nodes of the population still there.
    """
    after = total - removed
    return ReductionReport(
        n_requested=n_requested,
        labels_used=labels_used,
        total_nodes_before=total,
        nodes_removed=removed,
        nodes_after=after,
        reduction_rate=100.0 * removed / total if total else 0.0,
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


def _min_match_ranks(features: np.ndarray, reps: np.ndarray,
                     threshold: float) -> np.ndarray:
    """For each feature row, the lowest rep rank that matches it, or -1.

    When reps reach under half of one another on average, rows go in
    ascending projection onto the candidate window's direction
    (embed.candidate_window), a chunk at a time, each against the reps, in
    rank order, within reach of the chunk's projections: a rep out of reach
    scores below the cutoff. A chunk holding a row the window's bound does
    not hold for, or reaching over half the reps, meets every rep.
    """
    cutoff = effective_threshold(threshold)
    ranks = np.full(features.shape[0], -1, dtype=np.int64)
    if reps.size == 0 or not features.shape[0]:
        return ranks
    norms = np.linalg.norm(features, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    direction, radius = candidate_window(cutoff, reps.shape[1])
    rep_proj = reps @ direction
    every_rank = np.arange(reps.shape[0])
    ordered = np.sort(rep_proj)
    reach = (np.searchsorted(ordered, ordered + radius, side="right")
             - np.searchsorted(ordered, ordered - radius, side="left"))
    windowed = 2 * int(reach.sum()) < every_rank.size ** 2
    if windowed:
        everywhere = ~window_holds(reps)
        proj = (features @ direction) / safe
        # argsort puts NaN projections last.
        order = np.argsort(proj, kind="stable")
    chunk = max(1, min(MATCH_CHUNK, MATCH_BUDGET // reps.shape[0]))
    for lo in range(0, features.shape[0], chunk):
        rows = order[lo:lo + chunk] if windowed else slice(lo, lo + chunk)
        block = features[rows] / safe[rows, None]
        ids = every_rank
        if (windowed and not np.isnan(proj[rows[-1]])
                and window_holds(block).all()):
            ids = np.flatnonzero(everywhere | (
                (rep_proj >= proj[rows[0]] - radius)
                & (rep_proj <= proj[rows[-1]] + radius)))
            if not ids.size:
                continue
            if 2 * ids.size > every_rank.size:
                ids = every_rank
        sims = block @ (reps if ids is every_rank else reps[ids]).T
        hits = sims >= cutoff
        ranks[rows] = np.where(hits.any(axis=1), ids[hits.argmax(axis=1)], -1)
    return ranks


def sweep_top_n(g_eval: Graph, table: LabelTable, w_eval: WeightTable,
                embedder, malicious: MaliciousNodeList, ns: list[int],
                threshold: float = 1.0, size: int = DEFAULT_SET_SIZE,
                cap_per_anchor: int = DEFAULT_CAP_PER_ANCHOR,
                keep_removed_ids: bool = False,
                population: set[str] | None = None) -> list[ReductionReport]:
    """One reduction report per requested top-n, sharing a single match pass.

    Representative prefixes are nested, so each node only needs the lowest
    rank of any matching chain that holds it; the nodes removed at n are
    those whose rank is below n. population is the node set the reduction
    rate is taken over; by default the nodes incident to at least one event.
    A single-n reduction is `ns=[n], keep_removed_ids=True`, then
    `graph.remove_nodes` on the ids.
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
    ranks = _min_match_ranks(sets.features, reps, threshold)
    t3 = time.perf_counter()
    shared = {"enumerate": t1 - t0, "featurize": t2 - t1, "match": t3 - t2}

    index = g_eval.index
    flagged = index.mask(malicious.ids)
    if population is None:
        in_population = np.zeros(len(index.ids), dtype=bool)
        in_population[index.src] = in_population[index.dst] = True
        population_total = int(in_population.sum())
        malicious_total = int((flagged & in_population).sum())
    else:
        in_population = index.mask(population)
        population_total = len(population)
        malicious_total = len(malicious.ids & population)
    # Per node, the lowest rank of a matching chain holding it.
    node_rank = np.full(len(index.ids), len(reps), dtype=np.int64)
    matched = ranks >= 0
    np.minimum.at(node_rank, sets.nodes[matched], ranks[matched][:, None])

    reports = []
    for n in ns:
        t4 = time.perf_counter()
        use = min(n, len(ranked))
        removed = node_rank < use
        removed_malicious = removed & flagged
        report = assemble_report(
            n, use, population_total, int(removed.sum()),
            int(removed_malicious.sum()),
            malicious_total - int((removed_malicious & in_population).sum()),
            len(g_eval.nodes))
        report.per_stage_seconds = dict(shared)
        report.per_stage_seconds["select"] = time.perf_counter() - t4
        report.per_stage_seconds["total"] = (
            sum(shared.values()) + report.per_stage_seconds["select"])
        if n > len(ranked):
            report.note = (f"requested top-{n} but only {len(ranked)} "
                           f"benign labels exist")
        if keep_removed_ids:
            report.removed_node_ids = sorted(
                [index.ids[v] for v in np.flatnonzero(removed).tolist()])
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
