"""Acceptance gate: one test per shipping criterion.

Each test states its criterion in the name so the verbose run reads as a
checklist. These intentionally overlap the per-module suites; they are the
coarse end-to-end guarantees, not the detailed edge cases.
"""

import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from provprune.embed import (
    HashNgramEmbedder,
    compute_weights,
    effective_threshold,
)
from provprune.graph import build_graph, graph_lines
from provprune.ingest import compute_corpus_stats, parse_stream
from provprune.label import MaliciousNodeList, label_node_sets
from provprune.nodeset import NodeSet, enumerate_node_sets, featurize_sets
from provprune.reduce import (
    assemble_report,
    rank_benign_labels,
    representatives,
    sweep_top_n,
)
from provprune.synthgen import AttackSpec, PatternSpec, SynthSpec, generate

from oracles import (
    Event,
    brute_force_chains,
    chain_batch,
    event_records,
    exhaustive_removed_nodes,
    expected_weights,
    graph_of,
    random_graph_records,
    removed_ids,
    same_graph,
    weights_by_id,
)

SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def run_cli(args, threads="1"):
    env = dict(os.environ)
    env.update(SINGLE_THREAD_ENV)
    for key in SINGLE_THREAD_ENV:
        env[key] = threads
    return subprocess.run([sys.executable, "-m", "provprune"] + list(args),
                          capture_output=True, text=True, env=env)


def process_pattern(texts, repetitions):
    return PatternSpec(kinds=("process",) * len(texts), texts=tuple(texts),
                       repetitions=repetitions)


def corpus_pair_specs(label_reps, eval_reps, label_seed=101, eval_seed=202):
    """Two corpora sharing pattern shapes: small labeled, larger evaluation."""
    shapes = [
        ("boot net probe", "mount scratch", "start workers", "warm cache",
         "announce ready"),
        ("poll job queue", "claim next job", "exec job payload",
         "ack job done", "idle wait"),
        ("rotate app logs", "compress rotated", "prune old archives",
         "verify checksums", "sync to store"),
    ]
    label_spec = SynthSpec(
        seed=label_seed,
        benign_patterns=[process_pattern(s, r)
                         for s, r in zip(shapes, label_reps)],
        target_benign_share=0.3,
        attack=AttackSpec(),
    )
    eval_spec = SynthSpec(
        seed=eval_seed,
        benign_patterns=[process_pattern(s, r)
                         for s, r in zip(shapes, eval_reps)],
        target_benign_share=0.3,
        attack=AttackSpec(),
    )
    return label_spec, eval_spec


def write_corpus(tmp_path, name, spec):
    from provprune.synthgen import ioc_file_lines

    lines, truth = generate(spec)
    corpus = tmp_path / f"{name}.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    iocs = tmp_path / f"{name}_iocs.tsv"
    iocs.write_text("\n".join(ioc_file_lines(truth)) + "\n")
    return corpus, iocs, truth


def test_criterion_1_report_arithmetic_at_reference_scale():
    removed = {f"cut{i}" for i in range(54_522 - 50_802)}
    malicious = {f"bad{i}" for i in range(81)}
    incident = removed | malicious | {f"ok{i}"
                                      for i in range(50_802 - 81)}
    assert len(incident) == 54_522
    report = assemble_report(3, 3, len(incident), len(removed),
                             len(removed & malicious),
                             len((malicious & incident) - removed))
    assert report.nodes_after == 50_802
    assert report.fn_count == 0
    assert report.fp_count == 50_721
    assert abs(report.reduction_rate - 6.82) <= 0.005


def test_criterion_2_end_to_end_reduction_under_60s_single_threaded(tmp_path):
    label_spec, eval_spec = corpus_pair_specs(
        label_reps=(50, 40, 30), eval_reps=(4000, 2500, 1700))
    label_corpus, label_iocs, _ = write_corpus(tmp_path, "labeled", label_spec)
    eval_corpus, eval_iocs, truth = write_corpus(tmp_path, "eval", eval_spec)
    assert truth.total_events >= 100_000
    assert truth.planted_share == pytest.approx(0.3, abs=0.01)

    started = time.perf_counter()
    lab = run_cli(["label", "--labeled", str(label_corpus),
                   "--iocs", str(label_iocs),
                   "--out", str(tmp_path / "lab")])
    assert lab.returncode == 0, lab.stderr
    red = run_cli(["reduce", "--eval", str(eval_corpus),
                   "--labels", str(tmp_path / "lab" / "labels.json"),
                   "--iocs", str(eval_iocs),
                   "--top-n", "3,10,100",
                   "--out", str(tmp_path / "red")])
    assert red.returncode == 0, red.stderr
    elapsed = time.perf_counter() - started

    reports = json.loads((tmp_path / "red" / "reports.json").read_text())
    assert [r["n_requested"] for r in reports] == [3, 10, 100]
    for r in reports:
        assert r["fn_count"] == 0
    assert reports[-1]["reduction_rate"] >= 25.0
    assert elapsed < 60.0


def test_criterion_3_nodes_removed_monotone_over_ascending_top_n():
    import random

    rng = random.Random(2024)
    word_pool = ["fetch", "index", "merge", "score", "emit", "scan", "pack",
                 "route", "audit", "drain", "queue", "tick"]
    violations = 0
    for _ in range(100):
        patterns = []
        for p in range(rng.randint(1, 3)):
            texts = tuple(f"{rng.choice(word_pool)} {rng.choice(word_pool)} "
                          f"{p}{i}" for i in range(5))
            patterns.append(PatternSpec(kinds=("process",) * 5, texts=texts,
                                        repetitions=rng.randint(3, 8)))
        spec = SynthSpec(seed=rng.randint(0, 10_000),
                         benign_patterns=patterns,
                         noise_events=rng.randint(20, 80),
                         attack=AttackSpec() if rng.random() < 0.5 else None)
        lines, truth = generate(spec)
        nodes, events, _ = parse_stream(lines)
        g = build_graph(nodes, events)
        stats = compute_corpus_stats(g.events, g.nodes.values())
        weights = compute_weights(stats, g.nodes)
        emb = HashNgramEmbedder()
        sets = featurize_sets(enumerate_node_sets(g), g, weights, emb)
        malicious = MaliciousNodeList(ids=set(truth.malicious_ids))
        threshold = rng.choice([1.0, 0.95, 0.8])
        table = label_node_sets(sets, malicious, threshold=threshold)
        ns = sorted(rng.sample(range(1, 13), rng.randint(2, 4)))
        reports = sweep_top_n(g, table, weights, emb, malicious, ns,
                              threshold=threshold)
        removed = [r.nodes_removed for r in reports]
        if any(b < a for a, b in zip(removed, removed[1:])):
            violations += 1
    assert violations == 0


def test_criterion_4_enumeration_matches_brute_force_on_200_graphs():
    import random

    rng = random.Random(404)
    for trial in range(200):
        nodes, events = random_graph_records(rng, max_nodes=30, max_events=40,
                                             allow_self_loops=(trial % 3 == 0))
        g = graph_of(nodes, events)
        size = 5 if trial % 4 else rng.choice([3, 4])
        got = {(s.node_ids, s.edge_indices)
               for s in enumerate_node_sets(g, size=size, cap_per_anchor=0)}
        assert got == brute_force_chains(event_records(g.events), size)


def test_criterion_5_weights_match_independent_recomputation():
    import random

    from provprune.ingest import NodeRecord

    rng = random.Random(55)
    for _ in range(60):
        nodes, events = random_graph_records(rng, max_nodes=24, max_events=50)
        g = graph_of(nodes, events)
        stats = compute_corpus_stats(g.events, g.nodes.values())
        got = weights_by_id(g.table, compute_weights(stats, g.nodes))
        want = expected_weights(event_records(g.events), g.nodes)
        for nid, expected in want.items():
            assert got[nid] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        for nid in set(got) - set(want):
            assert g.nodes[nid].kind == "process" or got[nid] == 0.0

    saturated = [NodeRecord(id="p0", kind="process", cmdline="sh"),
                 NodeRecord(id="f0", kind="file", path="/always")]
    everywhere = [Event(subject="p0", object="f0", syscall="read", ts=t)
                  for t in range(1, 8)]
    g = graph_of(saturated, everywhere)
    stats = compute_corpus_stats(g.events, g.nodes.values())
    assert weights_by_id(g.table, compute_weights(stats, g.nodes))["f0"] == 0.0


def test_criterion_6_labeling_groups_identical_features_thread_deterministic(
        tmp_path):
    import random

    rng = random.Random(66)
    for _ in range(50):
        distinct = [np.asarray([rng.gauss(0, 1) for _ in range(16)])
                    for _ in range(rng.randint(1, 12))]
        features = [rng.choice(distinct) for _ in range(rng.randint(1, 40))]
        sets = [NodeSet(node_ids=(f"a{i}", f"b{i}"), edge_indices=(i,),
                        feature=f)
                for i, f in enumerate(features)]
        table = label_node_sets(chain_batch(sets), MaliciousNodeList())
        used = {f.tobytes() for f in features}
        assert len(table.labels) == len(used)
        for i, f in enumerate(features):
            peers = [j for j, other in enumerate(features)
                     if other.tobytes() == f.tobytes()]
            assert table.assignment[i] == table.assignment[peers[0]]

    label_spec, eval_spec = corpus_pair_specs(
        label_reps=(12, 9, 7), eval_reps=(30, 20, 15),
        label_seed=606, eval_seed=707)
    label_corpus, label_iocs, _ = write_corpus(tmp_path, "labeled", label_spec)
    eval_corpus, eval_iocs, _ = write_corpus(tmp_path, "eval", eval_spec)

    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        lab = run_cli(["label", "--labeled", str(label_corpus),
                       "--iocs", str(label_iocs),
                       "--out", str(out / "lab")], threads=threads)
        assert lab.returncode == 0, lab.stderr
        red = run_cli(["reduce", "--eval", str(eval_corpus),
                       "--labels", str(out / "lab" / "labels.json"),
                       "--iocs", str(eval_iocs), "--top-n", "2,5",
                       "--emit-removed-ids",
                       "--out", str(out / "red")], threads=threads)
        assert red.returncode == 0, red.stderr
        # Stage timings are wall-clock measurements; they are the only bytes
        # allowed to differ between runs, so mask them before comparing.
        reports = re.sub(r'"(enumerate|featurize|match|select|total)": [-0-9.e+]+',
                         r'"\1": 0', (out / "red" / "reports.json").read_text())
        csv = re.sub(r",[0-9.]+$", ",0",
                     (out / "red" / "sweep.csv").read_text(),
                     flags=re.MULTILINE)
        outputs[threads] = ((out / "lab" / "labels.json").read_bytes(),
                            (out / "lab" / "labels.npz").read_bytes(),
                            reports, csv)
    assert outputs["1"] == outputs["4"]


def test_criterion_7_removal_matches_exhaustive_matcher():
    label_spec, eval_spec = corpus_pair_specs(
        label_reps=(10, 8, 6), eval_reps=(60, 40, 30),
        label_seed=71, eval_seed=72)

    def pipeline(spec):
        lines, truth = generate(spec)
        nodes, events, _ = parse_stream(lines)
        g = build_graph(nodes, events)
        stats = compute_corpus_stats(g.events, g.nodes.values())
        weights = compute_weights(stats, g.nodes)
        return g, weights, truth

    g_lab, w_lab, truth_lab = pipeline(label_spec)
    emb = HashNgramEmbedder()
    sets_lab = featurize_sets(enumerate_node_sets(g_lab), g_lab, w_lab, emb)
    table = label_node_sets(sets_lab,
                            MaliciousNodeList(ids=set(truth_lab.malicious_ids)))
    ranked = rank_benign_labels(table)
    reps = representatives(table, ranked)

    g_eval, w_eval, truth_eval = pipeline(eval_spec)
    assert len(g_eval.events) <= 5000
    malicious = MaliciousNodeList(ids=set(truth_eval.malicious_ids))
    report, = sweep_top_n(g_eval, table, w_eval, emb, malicious,
                          ns=[len(ranked)])

    sets_eval = featurize_sets(enumerate_node_sets(g_eval), g_eval, w_eval,
                               emb)
    oracle = exhaustive_removed_nodes(sets_eval, reps,
                                      effective_threshold(1.0))
    assert removed_ids(g_eval, report) == oracle


def test_criterion_8_export_parse_round_trip_is_lossless():
    spec = SynthSpec(
        seed=88,
        benign_patterns=[process_pattern(
            ("alpha step", "beta step", "gamma step", "delta step",
             "omega step"), 10)],
        noise_events=120,
        attack=AttackSpec(),
    )
    lines, truth = generate(spec)
    nodes, events, stats = parse_stream(lines)
    assert stats.malformed_lines == 0
    assert stats.dropped_events == 0
    first = build_graph(nodes, events)
    assert len(first.nodes) == truth.total_nodes
    assert len(first.events) == truth.total_events

    export_one = list(graph_lines(first))
    nodes2, events2, stats2 = parse_stream(export_one)
    assert stats2.malformed_lines == 0
    second = build_graph(nodes2, events2)
    assert same_graph(second, first)
    assert list(graph_lines(second)) == export_one
