"""Benign-label ranking, activity matching, and graph reduction metrics.

The top-ranked benign labels' representatives, rows of the label table's
matrix, are compared against every node-set of the evaluation graph; nodes
covered by any matching set are removed (`graph.remove_nodes` builds the
reduced graph from a report's mask). A node is its row of the evaluation
graph's node table, and every per-node count (removed, malicious,
population) is taken over those rows. Reports carry the node accounting,
false-negative and false-positive counts, per-stage timings and the removal
mask.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .embed import candidate_window, effective_threshold, window_holds
from .graph import Graph, node_mask
from .label import BENIGN, LabelTable, MaliciousNodeList
from .nodeset import (
    DEFAULT_CAP_PER_ANCHOR,
    DEFAULT_SET_SIZE,
    chain_counts,
    enumerate_node_sets,
    featurize_sets,
)

# Feature rows normalized and matched at a time. At 512 a chunk's copies
# and similarity block stay small (eval-100k's match peaks at 1.2 MB of
# temporaries, 5.9 MB at 4096 rows) and each chunk's candidate window meets
# fewer reps, which also makes the pass faster there.
MATCH_CHUNK = 512
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
    note: str = ""
    # Per node of the evaluation graph, whether this run removed it.
    removed: np.ndarray | None = field(default=None, repr=False,
                                       compare=False)

    def to_dict(self, ids: list[str] | None = None) -> dict:
        """The report's fields; given the evaluation graph's node ids, also
        the removed nodes' ids, sorted."""
        out = dict(vars(self), per_stage_seconds=dict(self.per_stage_seconds))
        removed = out.pop("removed")
        if ids is not None and removed is not None:
            out["removed_node_ids"] = sorted(
                [ids[v] for v in np.flatnonzero(removed).tolist()])
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
    benign = [i for i, kind in enumerate(table.polarity) if kind == BENIGN]
    # The sort is stable, and ids ascend in creation order.
    return sorted(benign, key=lambda i: -table.member_count[i])


def representatives(table: LabelTable, ranked_ids: list[int]) -> np.ndarray:
    """Representative matrix in ranking order, rows L2-normalized.

    Zero representatives stay zero rows: cosine against a zero vector counts
    as 0 in every comparison.
    """
    if not ranked_ids:
        return np.zeros((0, 0))
    rows = table.representatives[ranked_ids]
    # A norm per row, the bits of np.linalg.norm on the row alone.
    for row in rows:
        norm = float(np.linalg.norm(row))
        if norm > 0.0:
            row /= norm
        else:
            row[:] = 0.0
    return rows


def _min_match_ranks(features: np.ndarray, reps: np.ndarray,
                     threshold: float) -> np.ndarray:
    """For each feature row, the lowest rep rank that matches it, or -1.

    Rows go in ascending projection onto the candidate window's direction
    (embed.candidate_window), a chunk at a time, each against the reps, in
    rank order, within reach of the chunk's projections: a rep out of reach
    scores below the cutoff. A chunk holding a row the window's bound does
    not hold for, or reaching over half the reps, meets every rep.
    """
    cutoff = effective_threshold(threshold)
    ranks = np.full(features.shape[0], -1, dtype=np.int64)
    if reps.size == 0 or not features.shape[0]:
        return ranks
    # A block of rows at a time, so the squares never span the whole matrix;
    # each row's norm is its own reduction, the same bits in any block.
    norms = np.empty(features.shape[0])
    for lo in range(0, features.shape[0], MATCH_CHUNK):
        norms[lo:lo + MATCH_CHUNK] = np.linalg.norm(
            features[lo:lo + MATCH_CHUNK], axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    direction, radius = candidate_window(cutoff, reps.shape[1])
    rep_proj = reps @ direction
    every_rank = np.arange(reps.shape[0])
    everywhere = ~window_holds(reps)
    proj = (features @ direction) / safe
    # argsort puts NaN projections last.
    order = np.argsort(proj, kind="stable")
    chunk = max(1, min(MATCH_CHUNK, MATCH_BUDGET // reps.shape[0]))
    for lo in range(0, features.shape[0], chunk):
        rows = order[lo:lo + chunk]
        # A copy of the chunk's rows, normalized in place.
        block = features[rows]
        block /= safe[rows, None]
        ids = every_rank
        if not np.isnan(proj[rows[-1]]) and window_holds(block).all():
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


def sweep_top_n(g_eval: Graph, table: LabelTable, w_eval: np.ndarray,
                embedder, malicious: MaliciousNodeList, ns: list[int],
                threshold: float = 1.0, size: int = DEFAULT_SET_SIZE,
                cap_per_anchor: int = DEFAULT_CAP_PER_ANCHOR,
                include_isolated_nodes: bool = False,
                counts: dict | None = None) -> list[ReductionReport]:
    """One reduction report per requested top-n, sharing a single match pass.

    Representative prefixes are nested, so each node only needs the lowest
    rank of any matching chain that holds it; the nodes removed at n are
    those whose rank is below n. The reduction rate is taken over the nodes
    incident to at least one event, or over every node when
    include_isolated_nodes is set. Each report carries its removal mask;
    `graph.remove_nodes(g_eval, report.removed)` gives its reduced graph. A
    counts dict, when given, receives the enumeration's
    `nodeset.chain_counts`.
    """
    if sorted(ns) != list(ns):
        raise ValueError("top-n list must be ascending")
    ranked = rank_benign_labels(table)
    reps = representatives(table, ranked[: max(ns)] if ns else [])
    if reps.size and reps.shape[1] != embedder.dim:
        raise ValueError(f"label table representatives have width "
                         f"{reps.shape[1]}, but features have width "
                         f"{embedder.dim}")

    t0 = time.perf_counter()
    sets = enumerate_node_sets(g_eval, size=size, cap_per_anchor=cap_per_anchor)
    t1 = time.perf_counter()
    sets = featurize_sets(sets, g_eval, w_eval, embedder)
    t2 = time.perf_counter()
    ranks = _min_match_ranks(sets.features, reps, threshold)
    t3 = time.perf_counter()
    shared = {"enumerate": t1 - t0, "featurize": t2 - t1, "match": t3 - t2}
    if counts is not None:
        counts.update(chain_counts(sets, cap_per_anchor))

    flagged = node_mask(sets.ids, malicious.ids)
    if include_isolated_nodes:
        in_population = np.ones(len(sets.ids), dtype=bool)
    else:
        in_population = g_eval.incident()
    population_total = int(in_population.sum())
    malicious_total = int((flagged & in_population).sum())
    # Per node, the lowest rank of a matching chain holding it.
    node_rank = np.full(len(sets.ids), len(reps), dtype=np.int64)
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
            len(g_eval.table))
        report.removed = removed
        report.per_stage_seconds = dict(shared)
        report.per_stage_seconds["select"] = time.perf_counter() - t4
        report.per_stage_seconds["total"] = (
            sum(shared.values()) + report.per_stage_seconds["select"])
        if n > len(ranked):
            report.note = (f"requested top-{n} but only {len(ranked)} "
                           f"benign labels exist")
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
