import csv
import gc
import io
import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from provprune.embed import HashNgramEmbedder, compute_weights, effective_threshold
from provprune.graph import build_graph, remove_nodes, write_graph
from provprune.ingest import NodeRecord, compute_corpus_stats, parse_stream
from provprune.label import (
    BENIGN,
    LabelTable,
    MaliciousNodeList,
    build_malicious_list,
    label_node_sets,
    label_table_from_json,
    parse_ioc_file,
    sidecar_path,
)
from provprune.nodeset import NodeSet, enumerate_node_sets, featurize_sets
from provprune import reduce
from provprune.reduce import (
    _min_match_ranks,
    assemble_report,
    rank_benign_labels,
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

from oracles import (
    event_node_ids,
    event_records,
    exhaustive_removed_nodes,
    graph_of,
    reference_match_ranks,
    removed_ids,
    underflowing_twin,
    weights_by_id,
    window_edge_features,
)


def table_of(*labels):
    """A LabelTable of (polarity, member count) rows; label i's
    representative is e_(i mod 8)."""
    return LabelTable(polarity=[kind for kind, _ in labels],
                      member_count=[members for _, members in labels],
                      representatives=np.eye(8)[np.arange(len(labels)) % 8])


def test_rank_excludes_malicious():
    table = table_of((BENIGN, 5), (BENIGN, 2), ("malicious", 9))
    assert rank_benign_labels(table) == [0, 1]


def test_rank_tiebreak_by_creation():
    table = table_of((BENIGN, 3), (BENIGN, 3), (BENIGN, 7))
    assert rank_benign_labels(table) == [2, 0, 1]


def test_rank_matches_sort_oracle():
    rng = random.Random(17)
    for _ in range(30):
        labels = [(rng.choice([BENIGN, "malicious"]), rng.randint(1, 9))
                  for _ in range(rng.randint(0, 25))]
        naive = sorted((i for i, (kind, _) in enumerate(labels)
                        if kind == BENIGN),
                       key=lambda i: (-labels[i][1], i))
        assert rank_benign_labels(table_of(*labels)) == naive


def test_representatives_are_normalized_rows_of_a_copy():
    """Rows come in the order asked for, each divided by its own norm; a
    zero row stays zero, and the table's matrix is left as it was."""
    table = table_of((BENIGN, 1), (BENIGN, 1), (BENIGN, 1))
    table.representatives[0] *= 3.0
    table.representatives[2] = 0.0
    before = table.representatives.copy()
    reps = representatives(table, [2, 0, 1])
    assert reps.tolist() == [[0.0] * 8, np.eye(8)[0].tolist(),
                             np.eye(8)[1].tolist()]
    assert np.array_equal(table.representatives, before)
    assert not np.shares_memory(reps, table.representatives)


def test_report_accounting_identities():
    removed = {f"r{i}" for i in range(30)}
    malicious = {"r1", "r2", "keep1"}
    incident = removed | {f"k{i}" for i in range(70)} | {"keep1"}
    report = assemble_report(5, 5, len(incident), len(removed),
                             len(removed & malicious),
                             len((malicious & incident) - removed))
    assert report.nodes_after + report.nodes_removed == report.total_nodes_before
    assert report.fn_count == 2
    assert report.fp_count == report.nodes_after - 1
    assert report.reduction_rate == pytest.approx(100.0 * 30 / 101)


def test_report_zero_denominator():
    report = assemble_report(3, 0, 0, 0, 0, 0)
    assert report.reduction_rate == 0.0
    assert report.nodes_after == 0


def pipeline_pieces(spec):
    lines, truth = generate(spec)
    nodes, events, _ = parse_stream(lines)
    g = build_graph(nodes, events)
    weights = compute_weights(compute_corpus_stats(g.events), g.table)
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


def reduce_top(g, table, weights, emb, malicious, n):
    """A single-n reduction: a one-entry sweep, then node removal."""
    report, = sweep_top_n(g, table, weights, emb, malicious, ns=[n])
    return remove_nodes(g, report.removed), report


def test_empty_reps_removes_nothing():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(3))
    reduced, report = reduce_top(g, table, weights, emb, malicious, 0)
    assert report.nodes_removed == 0
    assert report.fn_count == 0
    assert report.reduction_rate == 0.0
    assert len(reduced.nodes) == len(g.nodes)


def test_single_n_reduction_removes_pattern_nodes():
    g, weights, emb, malicious, table, truth = pipeline_pieces(small_spec(4))
    reduced, report = reduce_top(g, table, weights, emb, malicious, 2)
    removed = removed_ids(g, report)
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
    _, report = reduce_top(g, table, weights, emb, malicious, 4)
    sets = featurize_sets(enumerate_node_sets(g), g, weights, emb)
    want = exhaustive_removed_nodes(sets, list(reps),
                                    effective_threshold(1.0))
    assert removed_ids(g, report) == want


def test_sweep_reports_consistent_with_single_runs():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(6))
    ns = [1, 2, 5]
    reports = sweep_top_n(g, table, weights, emb, malicious, ns=ns)
    ranked = rank_benign_labels(table)
    sets = featurize_sets(enumerate_node_sets(g), g, weights, emb)
    incident = event_node_ids(g)
    for n, report in zip(ns, reports):
        reps = representatives(table, ranked[:n])
        want = exhaustive_removed_nodes(sets, list(reps),
                                        effective_threshold(1.0))
        kept = incident - want
        assert removed_ids(g, report) == want
        # Listed in id order, which is not the node table's.
        assert report.to_dict(g.table.ids)["removed_node_ids"] == \
            sorted(want) != [nid for nid in g.table.ids if nid in want]
        assert report.nodes_removed == len(want)
        assert report.fn_count == len(want & malicious.ids)
        assert report.fp_count == len(kept - malicious.ids)


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


def test_sweep_refuses_table_of_another_width_before_enumerating():
    g, weights, _, malicious, table, _ = pipeline_pieces(small_spec(8))
    bare = graph_of(g.nodes.values(), [])
    with pytest.raises(ValueError, match=r"width 64\b.*width 32\b"):
        sweep_top_n(bare, table, weights, HashNgramEmbedder(dim=32),
                    malicious, ns=[3])


def test_report_dict_copies_fields_and_lists_ids_on_request():
    report = assemble_report(3, 2, 10, 2, 0, 1, 12)
    report.per_stage_seconds = {"match": 0.5}
    report.removed = np.array([False, True, False, True])
    ids = ["p9", "p1", "p5", "p0"]
    plain = report.to_dict()
    assert sorted(plain) == sorted(
        ["n_requested", "labels_used", "total_nodes_before", "nodes_removed",
         "nodes_after", "reduction_rate", "fn_count", "fp_count",
         "declared_nodes_total", "per_stage_seconds", "note"])
    assert plain["per_stage_seconds"] == report.per_stage_seconds
    assert plain["per_stage_seconds"] is not report.per_stage_seconds
    assert report.to_dict(ids)["removed_node_ids"] == ["p0", "p1"]
    assert " removed=" not in repr(report)
    assert report == replace(report, removed=None)
    report.removed = None
    assert "removed_node_ids" not in report.to_dict(ids)


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


def weights_over(weights, old, new):
    """A weight column over graph old's rows, taken over graph new's rows by
    node id; a node new to it weighs 0."""
    by_id = weights_by_id(old.table, weights)
    return np.array([by_id.get(nid, 0.0) for nid in new.table.ids])


def test_sweep_population_sets_rate_denominator():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(12))
    lonely = NodeRecord(id="lonely", kind="file", path="/island")
    old, g = g, graph_of([*g.nodes.values(), lonely], event_records(g.events))
    weights = weights_over(weights, old, g)
    default, = sweep_top_n(g, table, weights, emb, malicious, ns=[3])
    declared, = sweep_top_n(g, table, weights, emb, malicious, ns=[3],
                            include_isolated_nodes=True)
    assert default.total_nodes_before == len(event_node_ids(g))
    assert declared.total_nodes_before == len(g.nodes) == \
        default.total_nodes_before + 1
    assert declared.nodes_removed == default.nodes_removed > 0
    assert declared.reduction_rate == \
        100.0 * declared.nodes_removed / len(g.nodes)
    assert declared.fp_count == default.fp_count + 1


def test_sweep_follows_changes_made_after_indexing():
    """A graph is never changed in place: one built from another's nodes
    and part of its events, after the first was enumerated, is enumerated
    and swept as a fresh copy of its records is."""
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(12))
    first = g

    def outcome(graph):
        chains = [(s.node_ids, s.edge_indices)
                  for s in enumerate_node_sets(graph)]
        reports = sweep_top_n(graph, table,
                              weights_over(weights, first, graph), emb,
                              malicious,
                              ns=[1, 3], include_isolated_nodes=True)
        return chains, [(r.total_nodes_before, removed_ids(graph, r),
                         r.fn_count, r.fp_count) for r in reports]

    def fresh(graph):
        return graph_of(list(graph.nodes.values()),
                        event_records(graph.events))

    whole = outcome(g)
    events = event_records(g.events)
    half = len(events) // 2
    later = events[half:]
    g = graph_of(g.nodes.values(), events[:half])
    shortened = outcome(g)
    assert shortened == outcome(fresh(g))
    lonely = NodeRecord(id="lonely", kind="file", path="/island")
    g = graph_of([*g.nodes.values(), lonely],
                 [*event_records(g.events), *later])
    restored = outcome(g)
    assert restored == outcome(fresh(g))
    assert restored[0] == whole[0]
    assert len(restored[0]) > len(shortened[0]) > 0
    assert restored[1][0][0] == shortened[1][0][0] + 1


def test_fn_matches_independent_recount():
    g, weights, emb, malicious, table, _ = pipeline_pieces(small_spec(11))
    reports = sweep_top_n(g, table, weights, emb, malicious, ns=[5])
    report = reports[0]
    recount = len(removed_ids(g, report) & malicious.ids)
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_match_ranks_independent_of_chunk_budget(monkeypatch):
    """Ranks equal the scalar reference at every threshold and chunk size,
    on random rows and on rows at the edge of the candidate window."""
    rng = np.random.default_rng(616)
    reps = rng.normal(size=(7, 8))
    reps /= np.linalg.norm(reps, axis=1)[:, None]
    feats = np.concatenate([rng.normal(size=(40, 8)),
                            reps[rng.integers(0, 7, size=30)] * 2.5,
                            np.zeros((3, 8))])
    rng.shuffle(feats)
    for threshold in (1.0, 0.999, 0.99, 0.9, 0.0, -1.0):
        edge = window_edge_features(random.Random(620), 160, 8, threshold)
        # Ranked reps as representatives() gives them: zero rows stay zero.
        edge_reps = np.array([row / np.linalg.norm(row) if row.any() else row
                              for row in edge[:50]])
        cutoff = effective_threshold(threshold)
        for rows, ranked in ((feats, reps), (np.array(edge), edge_reps)):
            want = reference_match_ranks(rows, ranked, cutoff)
            sets = [NodeSet(node_ids=(f"r{i}",), edge_indices=(),
                            feature=row)
                    for i, row in enumerate(rows)]
            assert {f"r{i}" for i, rank in enumerate(want) if rank >= 0} \
                == exhaustive_removed_nodes(sets, ranked, cutoff)
            # A row with a NaN, or normalized to one, scores NaN throughout.
            with_nan = np.vstack([rows, [np.nan] + [0.0] * 7,
                                  [np.inf] + [1.0] * 7])
            for chunk, budget in itertools.product(
                    (1, 7, 512), (1, 10, 29, 200, reduce.MATCH_BUDGET)):
                monkeypatch.setattr(reduce, "MATCH_CHUNK", chunk)
                monkeypatch.setattr(reduce, "MATCH_BUDGET", budget)
                assert _min_match_ranks(rows, ranked, threshold).tolist() \
                    == want
                assert _min_match_ranks(with_nan, ranked,
                                        threshold).tolist() == want + [-1, -1]
            monkeypatch.undo()


def test_underflowing_norms_meet_every_rep(monkeypatch):
    """A row or rep longer than unit can reach the cutoff from far outside
    the candidate window, so it is scored against every rep or row."""
    # One row per chunk, so each window is a row's own.
    monkeypatch.setattr(reduce, "MATCH_BUDGET", 31)
    rng = np.random.default_rng(621)
    tiny, twin = underflowing_twin(rng, 8)
    spread = rng.normal(size=(30, 8))
    spread /= np.linalg.norm(spread, axis=1)[:, None]
    long_rep = tiny / np.linalg.norm(tiny)
    for feats, reps in ((np.vstack([spread, tiny]), np.vstack([spread, twin])),
                        (np.vstack([spread, twin]),
                         np.vstack([spread, long_rep]))):
        sims = (feats / np.linalg.norm(feats, axis=1)[:, None]) @ reps.T
        assert sims[30, 30] >= effective_threshold(1.0)
        ranks = _min_match_ranks(feats, reps, 1.0)
        assert ranks.tolist() == list(range(31))


def test_match_work_at_threshold_one_stays_near_linear(monkeypatch):
    """Distinct random rows and reps at threshold 1.0: the similarities
    computed grow with the chunk size times the row count, not with rows
    times reps."""
    products = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            out = getattr(ufunc, method)(
                *(np.asarray(x) for x in inputs), **kwargs)
            if ufunc is np.matmul:
                products.append(np.size(out))
            return out

    monkeypatch.setattr(reduce, "MATCH_CHUNK", 16)
    rng = np.random.default_rng(622)
    for count in (1000, 4000):
        products.clear()
        reps = rng.normal(size=(count, 16))
        reps /= np.linalg.norm(reps, axis=1)[:, None]
        feats = np.vstack([rng.normal(size=(count, 16)), reps * 3.0])
        ranks = _min_match_ranks(feats, reps.view(Counted), 1.0)
        assert ranks.tolist() == [-1] * count + list(range(count))
        assert sum(products) <= 40 * len(feats)


# Lines the parser rejects, one of each kind: not JSON, a bare value, an
# unknown kind, an ill-typed node, an event with a field missing, an event
# with an undeclared endpoint.
MALFORMED_LINES = [
    '{"kind": "process", "id": ',
    '[1, 2, 3]',
    '{"kind": "socket", "id": "s1"}',
    '{"kind": "file", "id": 7, "path": "/x"}',
    '{"kind": "event", "subject": "p1", "syscall": "read", "ts": 5}',
    '{"kind": "event", "subject": "nowhere", "object": "nobody", '
    '"syscall": "read", "ts": 5}',
]


def test_pipeline_leaves_no_cyclic_garbage(tmp_path):
    """With the collector off, as the CLI runs, no stage from parsing to
    writing the reduced graph leaves a reference cycle behind; a cycle per
    record, chain or anchor would pile up with the corpus."""
    def garbage_per_stage(spec):
        lines, truth = generate(spec)
        # One rejected line after every tenth, so they grow with the corpus.
        lines = [out for i, line in enumerate(lines)
                 for out in ([line, MALFORMED_LINES[i // 10 % 6]]
                             if i % 10 == 9 else [line])]
        iocs_path = tmp_path / "iocs.tsv"
        iocs_path.write_text("".join(f"{line}\n"
                                     for line in ioc_file_lines(truth)))
        gc.collect()
        found = {}

        def stage(name, value):
            found[name] = gc.collect()
            return value

        nodes, events, _ = stage("parse", parse_stream(lines))
        g = stage("build", build_graph(nodes, events))
        weights = stage("weights", compute_weights(
            compute_corpus_stats(g.events), g.table))
        emb = HashNgramEmbedder()
        malicious = stage("iocs", build_malicious_list(
            g, *parse_ioc_file(iocs_path)))
        sets = stage("enumerate", enumerate_node_sets(g))
        sets = stage("featurize", featurize_sets(sets, g, weights, emb))
        table = stage("label", label_node_sets(sets, malicious))
        path = tmp_path / "labels.json"
        table.save(path, {})
        table, _ = stage("labels.json", label_table_from_json(
            path.read_text(encoding="utf-8"), sidecar_path(path)))
        reports = stage("sweep", sweep_top_n(
            g, table, weights, emb, malicious, ns=[1, 5]))
        write_sweep_csv(reports, tmp_path / "sweep.csv")
        stage("sweep.csv", None)
        reduced = stage("remove", remove_nodes(g, reports[-1].removed))
        for fmt in ("jsonl", "dot"):
            write_graph(reduced, io.StringIO(), fmt)
            stage(fmt, None)
        return found

    # First calls may import and cache library code; that is not the
    # pipeline's garbage.
    garbage_per_stage(small_spec(11, reps=(2, 2)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        small = garbage_per_stage(small_spec(12, reps=(4, 3)))
        large = garbage_per_stage(small_spec(13, reps=(16, 12)))
    finally:
        if enabled:
            gc.enable()
    # numpy parses each .npy header of the sidecar with ast.literal_eval,
    # which leaves a few cycles per member read: a fixed count per load,
    # whatever the table's size.
    assert small == large
    assert dict(small, **{"labels.json": 0}) == dict.fromkeys(small, 0)
    assert len(small) == 13
