import csv
import random

import numpy as np
import pytest

from provprune.embed import HashNgramEmbedder, compute_weights, effective_threshold
from provprune.graph import build_graph
from provprune.ingest import NodeRecord, compute_corpus_stats, parse_stream
from provprune.label import (
    BENIGN,
    Label,
    LabelTable,
    MaliciousNodeList,
    build_malicious_list,
    label_node_sets,
    parse_ioc_file,
)
from provprune.nodeset import NodeSet, enumerate_node_sets, featurize_sets
from provprune import reduce
from provprune.reduce import (
    _min_match_ranks,
    assemble_report,
    rank_benign_labels,
    reduce_graph,
    representatives,
    sweep_top_n,
    write_sweep_csv,
)
from provprune.synthgen import (
    AttackSpec,
    PatternSpec,
    SynthSpec,
    generate,
    ioc_file_lines,
)

from oracles import exhaustive_removed_nodes


def label_of(seq, polarity, members, rep=None):
    vec = rep if rep is not None else np.eye(8)[seq % 8]
    return Label(label_id=seq, polarity=polarity, representative=vec,
                 member_count=members, created_seq=seq)


def test_rank_excludes_malicious():
    table = LabelTable(labels=[
        label_of(0, BENIGN, 5), label_of(1, BENIGN, 2),
        label_of(2, "malicious", 9),
    ])
    assert rank_benign_labels(table) == [0, 1]


def test_rank_tiebreak_by_creation():
    table = LabelTable(labels=[
        label_of(0, BENIGN, 3), label_of(1, BENIGN, 3), label_of(2, BENIGN, 7),
    ])
    assert rank_benign_labels(table) == [2, 0, 1]


def test_rank_matches_sort_oracle():
    rng = random.Random(17)
    for _ in range(30):
        labels = [label_of(i, rng.choice([BENIGN, "malicious"]),
                           rng.randint(1, 9)) for i in range(rng.randint(0, 25))]
        table = LabelTable(labels=labels)
        naive = sorted((lb for lb in labels if lb.polarity == BENIGN),
                       key=lambda lb: (-lb.member_count, lb.created_seq))
        assert rank_benign_labels(table) == [lb.label_id for lb in naive]


def test_report_accounting_identities():
    removed = {f"r{i}" for i in range(30)}
    malicious = {"r1", "r2", "keep1"}
    incident = removed | {f"k{i}" for i in range(70)} | {"keep1"}
    report = assemble_report(5, 5, len(incident), removed, malicious, incident)
    assert report.nodes_after + report.nodes_removed == report.total_nodes_before
    assert report.fn_count == 2
    assert report.fp_count == report.nodes_after - 1
    assert report.reduction_rate == pytest.approx(100.0 * 30 / 101)


def test_report_zero_denominator():
    report = assemble_report(3, 0, 0, set(), set(), set())
    assert report.reduction_rate == 0.0
    assert report.nodes_after == 0


def pipeline_pieces(spec):
    lines, truth = generate(spec)
    nodes, events, _ = parse_stream(lines)
    g = build_graph(nodes, events)
    stats = compute_corpus_stats(g.events, g.nodes.values())
    weights = compute_weights(stats, g.nodes)
    emb = HashNgramEmbedder()
    sets = featurize_sets(enumerate_node_sets(g), g, weights, emb)
    malicious = MaliciousNodeList(ids=set(truth.malicious_ids))
    table = label_node_sets(sets, malicious)
    return g, weights, emb, malicious, table, truth


def small_spec(seed, reps=(6, 4), attack=True):
    patterns = [
        PatternSpec(kinds=("process",) * 5,
                    texts=("init worker", "spawn shard", "run batch",
                           "flush cache", "report done"),
                    repetitions=reps[0]),
        PatternSpec(kinds=("process",) * 5,
                    texts=("cron tick", "rotate logs", "compress old",
                           "prune tmp", "sync clock"),
                    repetitions=reps[1]),
    ]
    return SynthSpec(seed=seed, benign_patterns=patterns, noise_events=60,
                     attack=AttackSpec() if attack else None)


def test_empty_reps_removes_nothing():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(3))
    reps = representatives(table, [])
    reduced, report = reduce_graph(g, reps, weights, emb, malicious)
    assert report.nodes_removed == 0
    assert report.fn_count == 0
    assert report.reduction_rate == 0.0
    assert len(reduced.nodes) == len(g.nodes)


def test_reduce_graph_removes_pattern_nodes():
    g, weights, emb, malicious, table, truth = pipeline_pieces(small_spec(4))
    ranked = rank_benign_labels(table)
    reps = representatives(table, ranked[:2])
    reduced, report = reduce_graph(g, reps, weights, emb, malicious)
    removed = set(report.removed_node_ids)
    assert set(truth.pattern_node_ids) <= removed
    assert not removed & set(truth.malicious_ids)
    assert report.fn_count == 0
    assert report.nodes_after == report.total_nodes_before - len(removed)
    for nid in removed:
        assert nid not in reduced.nodes


def test_reduce_matches_exhaustive_matcher():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(5))
    ranked = rank_benign_labels(table)
    reps = representatives(table, ranked[:4])
    _, report = reduce_graph(g, reps, weights, emb, malicious)
    sets = featurize_sets(enumerate_node_sets(g), g, weights, emb)
    want = exhaustive_removed_nodes(sets, list(reps),
                                    effective_threshold(1.0))
    assert set(report.removed_node_ids) == want


def test_sweep_reports_consistent_with_single_runs():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(6))
    ns = [1, 2, 5]
    reports = sweep_top_n(g, table, weights, emb, malicious, ns=ns,
                          keep_removed_ids=True)
    ranked = rank_benign_labels(table)
    for n, via_sweep in zip(ns, reports):
        reps = representatives(table, ranked[:n])
        _, alone = reduce_graph(g, reps, weights, emb, malicious)
        assert via_sweep.nodes_removed == alone.nodes_removed
        assert set(via_sweep.removed_node_ids) == set(alone.removed_node_ids)
        assert via_sweep.fn_count == alone.fn_count
        assert via_sweep.fp_count == alone.fp_count


def test_sweep_monotone_and_accounted():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(7))
    ns = [0, 1, 2, 3, 10]
    reports = sweep_top_n(g, table, weights, emb, malicious, ns=ns)
    removed = [r.nodes_removed for r in reports]
    assert removed == sorted(removed)
    for r in reports:
        assert r.nodes_after + r.nodes_removed == r.total_nodes_before


def test_sweep_requires_ascending_ns():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(8))
    with pytest.raises(ValueError):
        sweep_top_n(g, table, weights, emb, malicious, ns=[5, 1])


def test_sweep_n_zero_removes_nothing():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(9))
    reports = sweep_top_n(g, table, weights, emb, malicious, ns=[0])
    assert reports[0].nodes_removed == 0
    assert reports[0].labels_used == 0


def test_sweep_n_beyond_labels_noted():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(10))
    total_benign = len(rank_benign_labels(table))
    reports = sweep_top_n(g, table, weights, emb, malicious,
                          ns=[total_benign + 50])
    assert reports[0].labels_used == total_benign
    assert "only" in reports[0].note


def test_sweep_population_sets_rate_denominator():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(12))
    g.nodes["lonely"] = NodeRecord(id="lonely", kind="file", path="/island")
    default, = sweep_top_n(g, table, weights, emb, malicious, ns=[3])
    declared, = sweep_top_n(g, table, weights, emb, malicious, ns=[3],
                            population=set(g.nodes))
    assert default.total_nodes_before == len(g.event_node_ids())
    assert declared.total_nodes_before == len(g.nodes) == \
        default.total_nodes_before + 1
    assert declared.nodes_removed == default.nodes_removed > 0
    assert declared.reduction_rate == \
        100.0 * declared.nodes_removed / len(g.nodes)
    assert declared.fp_count == default.fp_count + 1


def test_fn_matches_independent_recount():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(11))
    reports = sweep_top_n(g, table, weights, emb, malicious, ns=[5],
                          keep_removed_ids=True)
    report = reports[0]
    recount = sum(1 for nid in report.removed_node_ids if nid in malicious.ids)
    assert report.fn_count == recount


def test_csv_schema(tmp_path):
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(12))
    reports = sweep_top_n(g, table, weights, emb, malicious, ns=[1, 2])
    out = tmp_path / "sweep.csv"
    write_sweep_csv(reports, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "node_count", "fn", "fp", "reduction_rate",
                       "seconds"]
    assert len(rows) == 3
    assert rows[1][0] == "1"
    assert int(rows[1][1]) == reports[0].nodes_after


def test_malicious_list_from_generated_iocs(tmp_path):
    """IoC directives emitted with a corpus flag exactly the attack chain."""
    spec = small_spec(13)
    lines, truth = generate(spec)
    nodes, events, _ = parse_stream(lines)
    g = build_graph(nodes, events)
    path = tmp_path / "iocs.tsv"
    path.write_text("".join(line + "\n" for line in ioc_file_lines(truth)))
    iocs, explicit = parse_ioc_file(path)
    mal = build_malicious_list(g, iocs, explicit)
    assert mal.ids == set(truth.malicious_ids)


def test_match_ranks_independent_of_chunk_budget(monkeypatch):
    rng = np.random.default_rng(616)
    reps = rng.normal(size=(7, 8))
    reps /= np.linalg.norm(reps, axis=1)[:, None]
    feats = np.concatenate([rng.normal(size=(40, 8)),
                            reps[rng.integers(0, 7, size=30)] * 2.5,
                            np.zeros((3, 8))])
    rng.shuffle(feats)
    sets = [NodeSet(node_ids=(f"a{i}", f"b{i}"), edge_indices=(i,),
                    anchor_ts=i, feature=feat) for i, feat in enumerate(feats)]
    for threshold in (1.0, 0.5):
        want = _min_match_ranks(sets, reps, threshold)
        assert (want >= 0).sum() >= 30
        for budget in (1, 10, 29):
            monkeypatch.setattr(reduce, "MATCH_BUDGET", budget)
            assert _min_match_ranks(sets, reps, threshold).tolist() == \
                want.tolist()
        monkeypatch.undo()
