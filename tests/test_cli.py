import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from provprune import cli
from provprune.cli import LabelConfig, main
from provprune.graph import build_graph, node_mask, remove_nodes
from provprune.ingest import parse_file
from provprune.label import (BENIGN, MALICIOUS, TABLE_FORMAT, LabelTable,
                             file_sha256, label_table_from_json)
from provprune.settings import MAX_DIM

from oracles import (
    event_records,
    export_graph,
    record_lines,
    reference_table_json,
    rewritten_sidecar,
)
from test_golden import mask_timings
from test_nodeset import process_chain

SPEC = {
    "seed": 31,
    "benign_patterns": [
        {"kinds": ["process"] * 5,
         "texts": ["boot svc", "mount disks", "probe net", "start jobs",
                   "emit ready"],
         "repetitions": 12},
        {"kinds": ["process"] * 5,
         "texts": ["poll queue", "claim task", "exec task", "ack task",
                   "sleep loop"],
         "repetitions": 8},
    ],
    "noise_events": 80,
    "attack": True,
}


@pytest.fixture()
def corpus(tmp_path):
    """A labeled corpus, an evaluation corpus, and their IoC files."""
    spec_a = tmp_path / "spec_a.json"
    spec_a.write_text(json.dumps(SPEC))
    spec_b = tmp_path / "spec_b.json"
    spec_b.write_text(json.dumps(dict(SPEC, seed=32, noise_events=120)))
    assert main(["synth", str(spec_a), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", str(spec_b), "--out", str(tmp_path / "b")]) == 0
    return tmp_path


def test_stats_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["stats", str(empty)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total_events"] == 0
    assert report["top_commands"] == []


def test_stats_non_utf8_line_is_counted(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"kind":"file","id":"f\xff","path":"x"}\n'
                    b'{"kind":"file","id":"f2","path":"y"}\n')
    assert main(["stats", str(bad)]) == 0
    parse = json.loads(capsys.readouterr().out)["parse"]
    assert parse["malformed_lines"] == 1
    assert parse["accepted_nodes"] == 1


def test_stats_missing_file_is_io_error(tmp_path):
    assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2


def test_stats_report_fields(corpus, capsys):
    assert main(["stats", str(corpus / "a" / "corpus.jsonl"),
                 "--top", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total_events"] > 0
    assert len(report["top_commands"]) == 3
    assert sum(report["per_syscall"].values()) == report["total_events"]
    top = report["top_commands"][0]
    assert set(top) == {"cmdline", "count", "share"}


def test_stats_ranks_no_empty_command_line(tmp_path, capsys):
    """Placeholder subjects minted by --synthesize-dangling have no command
    line; their events are left out of the ranking and of its shares."""
    records = [
        {"kind": "process", "id": "p1", "ts": 1, "cmdline": "make"},
        {"kind": "file", "id": "f1", "ts": 1, "path": "/src/a.c"},
        {"kind": "event", "subject": "p1", "object": "f1", "syscall": "read",
         "ts": 2},
        {"kind": "event", "subject": "ghost", "object": "f1",
         "syscall": "read", "ts": 3},
        {"kind": "event", "subject": "ghost", "object": "f1",
         "syscall": "read", "ts": 4},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["stats", str(path), "--synthesize-dangling"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total_events"] == 3
    assert report["top_commands"] == [
        {"cmdline": "make", "count": 1, "share": 1.0}]


def test_stats_out_file(corpus, tmp_path):
    out = tmp_path / "stats.json"
    assert main(["stats", str(corpus / "a" / "corpus.jsonl"),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["total_events"] > 0


def test_synth_sample_spec(capsys):
    assert main(["synth", "--sample-spec"]) == 0
    spec = json.loads(capsys.readouterr().out)
    assert "benign_patterns" in spec


def test_synth_without_spec_is_usage_error(capsys):
    assert main(["synth"]) == 1


def test_synth_outputs(corpus):
    for name in ("corpus.jsonl", "ground_truth.json", "iocs.tsv"):
        assert (corpus / "a" / name).exists()


@pytest.mark.parametrize("spec", [
    {"benign_patterns": [{"kinds": 5, "texts": ["a", "b"],
                          "repetitions": 2}]},
    {"benign_patterns": 3},
    [1, 2],
])
def test_synth_misshaped_spec_is_usage_error(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["synth", str(path), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert "spec.json" in err and "Traceback" not in err
    assert not (tmp_path / "s").exists()


PAIR = {"kinds": ["process", "process"], "texts": ["a x", "b y"],
        "repetitions": 2}


@pytest.mark.parametrize("spec, named", [
    ({"noise_events": 1e9}, "noise_events"),
    ({"noise_events": "40"}, "noise_events"),
    ({"seed": 1.5}, "seed"),
    ({"hosts": True}, "hosts"),
    ({"disjoint_mode": "false"}, "disjoint_mode"),
    ({"benign_patterns": [dict(PAIR, repetitions=2.0)]},
     "benign_patterns[0].repetitions"),
    ({"benign_patterns": [PAIR], "target_benign_share": "0.3"},
     "target_benign_share"),
    ({"benign_patterns": [PAIR, dict(PAIR, texts=[1, 2])]},
     "benign_patterns[1].texts[0]"),
    ({"benign_patterns": [dict(PAIR, kinds=[["process"], "process"])]},
     "benign_patterns[0].kinds[0]"),
    ({"attack": {"kinds": ["process", "process"], "texts": ["zz-a", None]}},
     "attack.texts[1]"),
    ({"noise_events": 10**9}, "10,000,000"),
    ({"benign_patterns": [dict(PAIR, repetitions=10**8)]}, "10,000,000"),
    ({"benign_patterns": [PAIR], "target_benign_share": 1e-9}, "10,000,000"),
    ({"benign_patterns": [PAIR], "target_benign_share": 5e-324},
     "10,000,000"),
    ({"noise_event": 5}, "unknown key 'noise_event'"),
    ({"benign_patterns": [dict(PAIR, repetition=9)]},
     "unknown key 'benign_patterns[0].repetition'"),
    ({"benign_patterns": [{"kinds": ["process", "process"],
                           "repetitions": 2}]},
     "key 'benign_patterns[0].texts' is missing"),
    ({"attack": {"kinds": ["process", "process"], "text": ["zz-a", "zz-b"]}},
     "unknown key 'attack.text'"),
    ({"attack": {"texts": ["zz-a", "zz-b"]}}, "key 'attack.kinds' is missing"),
    ({"attack": 5}, "key 'attack' must be"),
    ({"benign_patterns": [dict(PAIR, texts=["a x"])]},
     "pattern 0: kinds and texts lengths differ"),
    ({"benign_patterns": [dict(PAIR, kinds=["process"], texts=["a x"])]},
     "pattern 0: a chain needs at least 2 nodes"),
    ({"hosts": 0}, "hosts must be at least 1"),
    ({"target_benign_share": 0.5}, "a benign share target needs at least one"),
])
def test_synth_refuses_spec_before_building(tmp_path, spec, named):
    """A key that is unknown, missing or of the wrong JSON type (a float
    count, a string flag, a number as a text), at any depth, a chain the
    generator cannot plant, or a spec planning over 10,000,000 records exits
    1 naming it, at once and with nothing written. Building such a corpus
    would take minutes, so a child that outlives the limit fails the test."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "provprune", "synth", str(path),
         "--out", str(tmp_path / "s")],
        env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 1, done.stderr
    assert named in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"n_requested": 3},
    [{"n_requested": 3, "nodes_after": 1, "nodes_removed": 0, "fn_count": 0,
      "fp_count": 0, "reduction_rate": 0.0, "per_stage_seconds": 1.5}],
    [{"n_requested": 3}],
    [{"n_requested": 3, "nodes_after": 1, "nodes_removed": 0, "fn_count": 0,
      "fp_count": 0, "reduction_rate": "high", "per_stage_seconds": {}}],
    "not JSON",
])
def test_report_misshaped_reports_is_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "reports.json"
    path.write_text(payload if payload == "not JSON" else json.dumps(payload))
    assert main(["report", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "reports.json" in err and "Traceback" not in err


def test_output_path_errors_are_io_errors(corpus, capsys):
    taken = corpus / "taken"
    taken.write_text("")
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--out", str(taken)]) == 2
    assert main(["stats", str(corpus / "a" / "corpus.jsonl"),
                 "--out", str(taken / "s.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("provprune: I/O error: ") for line in err)


@pytest.mark.parametrize("fault", [RuntimeError("boom"),
                                   AssertionError("boom"),
                                   RecursionError("boom")])
def test_unnamed_exception_is_one_line_internal_error(tmp_path, capsys,
                                                      monkeypatch, fault):
    def broken(graph):
        raise fault

    monkeypatch.setattr(cli, "summarize", broken)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["stats", str(empty)]) == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert err == f"provprune: internal error: {type(fault).__name__}: boom\n"


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["stats", "--frobnicate"])
    assert err.value.code == 1


def test_label_writes_table_and_echo(corpus, capsys):
    out = corpus / "lab"
    rc = main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
               "--iocs", str(corpus / "a" / "iocs.tsv"), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "labels=" in stdout and "seconds=" in stdout
    table = json.loads((out / "labels.json").read_text())
    assert table["labels"]
    record = json.loads((out / "label_metrics.json").read_text())
    assert record["command"] == "label"
    assert record["config"]["threshold"] == 1.0
    assert record["config"]["dim"] == 64
    assert sorted(path.name for path in out.iterdir()) == [
        "label_metrics.json", "labels.json", "labels.npz"]


@pytest.mark.parametrize("table", [
    LabelTable(),
    # 5e-5 is written by the JSON encoder, not by orjson.
    LabelTable(polarity=[MALICIOUS, BENIGN], member_count=[2, 1],
               representatives=np.array([[0.5, 5e-5], [1.0, -0.25]]),
               assignment=[0, 1, 0], zero_vector_sets=1),
], ids=["empty", "encoder-row"])
def test_label_binds_the_sidecar_to_the_bytes_on_disk(corpus, monkeypatch,
                                                      table):
    """The digest label binds into labels.npz, hashed from the bytes as they
    are written, is the sha256 of labels.json as it lies on disk, whose
    text is the table's JSON and a newline."""
    monkeypatch.setattr(cli, "label_node_sets", lambda *a, **k: table)
    out = corpus / "lab"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--out", str(out)]) == 0
    path = out / "labels.json"
    with np.load(out / "labels.npz") as npz:
        assert npz["sha256"].item() == file_sha256(path)
    text = path.read_text(encoding="utf-8")
    assert text == reference_table_json(table) + "\n"
    back, _ = label_table_from_json(text, out / "labels.npz")
    assert back.assignment == table.assignment
    assert back.representatives.tobytes() == table.representatives.tobytes()


def test_label_takes_a_set_size_deeper_than_the_stack(tmp_path):
    """A 1,300-node temporal path labels at set size 1200: each of its 101
    chains joins a label, and no depth limit stops the search."""
    names = [f"p{i}" for i in range(1300)]
    path = tmp_path / "path.jsonl"
    path.write_text("\n".join(record_lines(*process_chain(names, 0))) + "\n")
    out = tmp_path / "lab"
    assert main(["label", "--labeled", str(path), "--set-size", "1200",
                 "--out", str(out)]) == 0
    table = json.loads((out / "labels.json").read_text())
    assert len(table["assignment"]) == 101


def test_reduce_end_to_end(corpus, capsys):
    lab = corpus / "lab"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--iocs", str(corpus / "a" / "iocs.tsv"),
                 "--out", str(lab)]) == 0
    red = corpus / "red"
    rc = main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
               "--labels", str(lab / "labels.json"),
               "--iocs", str(corpus / "b" / "iocs.tsv"),
               "--out", str(red), "--top-n", "2,5"])
    assert rc == 0
    reports = json.loads((red / "reports.json").read_text())
    assert [r["n_requested"] for r in reports] == [2, 5]
    assert all(r["fn_count"] == 0 for r in reports)
    assert reports[0]["nodes_removed"] > 0
    sweep = (red / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "n,node_count,fn,fp,reduction_rate,seconds"
    assert len(sweep) == 3


@pytest.mark.parametrize("enabled", [True, False])
def test_commands_run_with_collector_off(corpus, monkeypatch, enabled):
    """Handlers run with the cyclic collector off, and main gives the
    caller's setting back, also when the command fails."""
    seen = []

    def recording(handler):
        def run(args):
            seen.append(gc.isenabled())
            return handler(args)
        return run

    for name in ("label", "reduce"):
        monkeypatch.setitem(cli._COMMANDS, name, recording(cli._COMMANDS[name]))
    a, b = corpus / "a", corpus / "b"
    runs = [["label", "--labeled", str(a / "corpus.jsonl"),
             "--out", str(corpus / "lab")],
            ["reduce", "--eval", str(b / "corpus.jsonl"),
             "--labels", str(corpus / "lab" / "labels.json"),
             "--out", str(corpus / "red")],
            ["reduce", "--eval", str(b / "corpus.jsonl"),
             "--labels", str(corpus / "missing.json")]]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        codes = [main(argv) for argv in runs]
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert codes == [0, 0, 2]
    assert seen == [False] * 3
    assert after is enabled


def test_commands_leave_no_garbage_growing_with_the_corpus(tmp_path):
    """label and reduce, run through main with the collector off, leave the
    same cyclic garbage (argument parsing and the like) on a corpus four
    times larger: no record, chain or report leaves a cycle behind."""
    def garbage(name, scale):
        patterns = [dict(p, repetitions=p["repetitions"] * scale)
                    for p in SPEC["benign_patterns"]]
        spec = dict(SPEC, seed=31 + scale, noise_events=80 * scale,
                    benign_patterns=patterns)
        run = tmp_path / name
        run.mkdir()
        (run / "spec.json").write_text(json.dumps(spec))
        assert main(["synth", str(run / "spec.json"), "--out", str(run)]) == 0
        corpus, iocs = str(run / "corpus.jsonl"), str(run / "iocs.tsv")
        labels = str(run / "lab" / "labels.json")
        found = []
        for argv in (["label", "--labeled", corpus, "--iocs", iocs,
                      "--out", str(run / "lab")],
                     ["reduce", "--eval", corpus, "--iocs", iocs,
                      "--labels", labels, "--top-n", "1,3,10",
                      "--emit-graph", "--emit-dot", "--emit-removed-ids",
                      "--out", str(run / "red")]):
            gc.collect()
            assert main(argv) == 0
            found.append(gc.collect())
        return found

    was = gc.isenabled()
    try:
        gc.disable()
        garbage("warm", 1)
        small, large = garbage("small", 1), garbage("large", 4)
    finally:
        (gc.enable if was else gc.disable)()
    assert small == large


def test_reduce_requires_label_source(corpus, capsys):
    """The corpora are settings like any other, so a missing one is found
    once the config file and flags are resolved: exit 1 naming its flag."""
    assert main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
                 "--out", str(corpus / "x")]) == 1
    err = capsys.readouterr().err
    assert "--labels" in err and "'labels_file'" in err
    assert "Traceback" not in err
    assert not (corpus / "x").exists()


def test_reduce_has_no_inline_labeling(corpus, capsys):
    """reduce reads a saved table only; --labeled is not one of its flags."""
    with pytest.raises(SystemExit) as err:
        main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
              "--labels", str(corpus / "lab" / "labels.json"),
              "--labeled", str(corpus / "a" / "corpus.jsonl"),
              "--out", str(corpus / "x")])
    assert err.value.code == 1
    assert "--labeled" in capsys.readouterr().err


def test_bad_top_n_is_usage_error(corpus):
    lab = corpus / "lab"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--out", str(lab)]) == 0
    assert main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
                 "--labels", str(lab / "labels.json"),
                 "--top-n", "three"]) == 1


@pytest.mark.parametrize("how", ["comma", "empty", "config"])
def test_reduce_without_top_n_counts_is_usage_error(corpus, capsys,
                                                    monkeypatch, how):
    """--top-n "," or "", or a config top_n of [], names no count: exit 1
    naming top_n, before the table is loaded or the corpus parsed, and no
    reports."""
    cfg = corpus / "no_counts.json"
    cfg.write_text(json.dumps({"top_n": []}))
    extra = {"comma": ["--top-n", ","], "empty": ["--top-n", ""],
             "config": ["--config", str(cfg)]}[how]
    called = []
    monkeypatch.setattr(cli, "parse_file", lambda *a, **k: called.append(a))
    monkeypatch.setattr(cli, "label_table_from_json",
                        lambda *a, **k: called.append(a))
    capsys.readouterr()
    rc = main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
               "--labels", str(corpus / "lab" / "labels.json"),
               "--out", str(corpus / "no_counts"), *extra])
    err = capsys.readouterr().err
    assert rc == 1
    assert "'top_n'" in err and "Traceback" not in err
    assert called == []
    assert not (corpus / "no_counts" / "reports.json").exists()


def test_bad_threshold_is_usage_error(corpus):
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--threshold", "2.0", "--out", str(corpus / "x")]) == 1


def test_emit_flags_produce_artifacts(corpus):
    lab = corpus / "lab"
    main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
          "--iocs", str(corpus / "a" / "iocs.tsv"), "--out", str(lab)])
    red = corpus / "red_emit"
    rc = main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
               "--labels", str(lab / "labels.json"),
               "--iocs", str(corpus / "b" / "iocs.tsv"),
               "--out", str(red), "--top-n", "2",
               "--emit-removed-ids", "--emit-graph", "--emit-dot"])
    assert rc == 0
    reports = json.loads((red / "reports.json").read_text())
    assert "removed_node_ids" in reports[0]
    assert (red / "reduced_top2.jsonl").exists()
    dot = (red / "reduced_top2.dot").read_text()
    assert dot.startswith("digraph")


def test_lone_surrogates_label_and_reduce_in_every_format(tmp_path):
    """JSON escapes can put lone surrogates into ids and texts: labeling
    embeds them, and every export writes them out."""
    records = [
        {"kind": "process", "id": "p\ud800", "ts": 1, "cmdline": "a\ud800b"},
        {"kind": "file", "id": "f\udfff", "ts": 1, "path": "/tmp/x\udfff"},
        {"kind": "process", "id": "q", "ts": 1, "cmdline": "quiet"},
        {"kind": "file", "id": "g", "ts": 1, "path": "/srv/g"},
        {"kind": "event", "subject": "p\ud800", "object": "f\udfff",
         "syscall": "read", "ts": 5},
        {"kind": "event", "subject": "q", "object": "g",
         "syscall": "write", "ts": 6},
        {"kind": "event", "subject": "q", "object": "g",
         "syscall": "write", "ts": 7},
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records),
                      encoding="ascii")
    lab = tmp_path / "lab"
    assert main(["label", "--labeled", str(corpus), "--set-size", "2",
                 "--out", str(lab)]) == 0
    red = tmp_path / "red"
    assert main(["reduce", "--eval", str(corpus),
                 "--labels", str(lab / "labels.json"), "--top-n", "1",
                 "--emit-removed-ids", "--emit-graph", "--emit-dot",
                 "--out", str(red)]) == 0
    removed = json.loads((red / "reports.json").read_text())[0][
        "removed_node_ids"]
    # The top label, two members strong, covers q and g only.
    assert removed == ["g", "q"]
    nodes, events, _ = parse_file(str(red / "reduced_top1.jsonl"))
    assert sorted(n.id for n in nodes) == ["f\udfff", "p\ud800"]
    assert [(e.subject, e.object) for e in event_records(events)] == [
        ("p\ud800", "f\udfff")]
    dot = (red / "reduced_top1.dot").read_bytes().decode("utf-8")
    assert '"p\\ud800" -> "f\\udfff"' in dot
    assert 'label="process:a\\ud800b"' in dot


def test_include_isolated_changes_denominator(corpus):
    eval_path = corpus / "b" / "corpus.jsonl"
    padded = corpus / "padded.jsonl"
    extra = {"kind": "file", "id": "lonely", "path": "/island"}
    padded.write_text(eval_path.read_text() + json.dumps(extra) + "\n")
    lab = corpus / "lab"
    main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
          "--iocs", str(corpus / "a" / "iocs.tsv"), "--out", str(lab)])
    base_out = corpus / "base"
    iso_out = corpus / "iso"
    tail = ["--labels", str(lab / "labels.json"), "--top-n", "2"]
    main(["reduce", "--eval", str(padded), "--out", str(base_out)] + tail)
    main(["reduce", "--eval", str(padded), "--out", str(iso_out),
          "--include-isolated-nodes"] + tail)
    base = json.loads((base_out / "reports.json").read_text())[0]
    iso = json.loads((iso_out / "reports.json").read_text())[0]
    assert iso["total_nodes_before"] == base["total_nodes_before"] + 1
    assert iso["declared_nodes_total"] == iso["total_nodes_before"]


def test_include_isolated_report_independent_of_emit_flags(corpus):
    """The isolated-node denominator must not depend on --emit-removed-ids."""
    lab = corpus / "lab"
    main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
          "--iocs", str(corpus / "a" / "iocs.tsv"), "--out", str(lab)])
    tail = ["--eval", str(corpus / "b" / "corpus.jsonl"),
            "--labels", str(lab / "labels.json"),
            "--iocs", str(corpus / "b" / "iocs.tsv"),
            "--top-n", "1,2", "--include-isolated-nodes"]
    assert main(["reduce", "--out", str(corpus / "plain")] + tail) == 0
    assert main(["reduce", "--out", str(corpus / "ids"),
                 "--emit-removed-ids"] + tail) == 0
    plain = json.loads((corpus / "plain" / "reports.json").read_text())
    with_ids = json.loads((corpus / "ids" / "reports.json").read_text())
    assert plain[-1]["nodes_removed"] > 0
    for a, b in zip(plain, with_ids):
        b.pop("removed_node_ids")
        a.pop("per_stage_seconds")
        b.pop("per_stage_seconds")
        assert a == b


def test_equal_removals_export_identical_graphs(corpus):
    lab = corpus / "lab"
    main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
          "--iocs", str(corpus / "a" / "iocs.tsv"), "--out", str(lab)])
    red = corpus / "red_dup"
    # Far more labels than the table holds: both n use every benign label.
    assert main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
                 "--labels", str(lab / "labels.json"), "--out", str(red),
                 "--top-n", "1,500,1000", "--emit-removed-ids",
                 "--emit-graph", "--emit-dot"]) == 0
    reports = json.loads((red / "reports.json").read_text())
    assert reports[1]["removed_node_ids"] == reports[2]["removed_node_ids"]
    assert reports[0]["nodes_removed"] < reports[1]["nodes_removed"]
    nodes, events, _ = parse_file(str(corpus / "b" / "corpus.jsonl"))
    full = build_graph(nodes, events)
    for report in reports:
        reduced = remove_nodes(full, node_mask(full.table.ids,
                                               report["removed_node_ids"]))
        for fmt in ("jsonl", "dot"):
            path = red / f"reduced_top{report['n_requested']}.{fmt}"
            assert path.read_text() == export_graph(reduced, fmt)


def test_threads_flag_is_gone(corpus):
    with pytest.raises(SystemExit) as err:
        main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
              "--out", str(corpus / "t"), "--threads", "2"])
    assert err.value.code == 1
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--out", str(corpus / "t")]) == 0
    echo = _config(corpus / "t", "label")
    assert "threads" not in echo


def test_config_file_and_flag_precedence(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 32, "seed": 11, "cap_per_anchor": 4}))
    out = corpus / "cfg_run"
    rc = main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
               "--config", str(cfg), "--dim", "16", "--out", str(out)])
    assert rc == 0
    echo = _config(out, "label")
    assert echo["dim"] == 16
    assert echo["seed"] == 11
    assert echo["cap_per_anchor"] == 4


def test_report_renders_table(corpus, capsys):
    lab = corpus / "lab"
    main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
          "--iocs", str(corpus / "a" / "iocs.tsv"), "--out", str(lab)])
    red = corpus / "red_tbl"
    main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
          "--labels", str(lab / "labels.json"),
          "--iocs", str(corpus / "b" / "iocs.tsv"),
          "--out", str(red), "--top-n", "2"])
    capsys.readouterr()
    assert main(["report", str(red / "reports.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "nodes", "removed", "FN", "FP", "rate%",
                                "seconds"]
    assert len(lines) == 2


def _unread_inputs(tmp_path, command):
    """The input flags command requires, naming files a refused config
    stops it from reading."""
    if command == "label":
        return ["--labeled", str(tmp_path / "never_read.jsonl")]
    return ["--eval", str(tmp_path / "never_read.jsonl"),
            "--labels", str(tmp_path / "never_read.json")]


@pytest.mark.parametrize("command, obj, key", [
    ("label", {"size": 3}, "size"),
    ("label", {"threads": 2}, "threads"),
    ("label", "record", "command"),
    ("label", {"embed.dim": 64}, "embed.dim"),
    ("label", {"embed": 5}, "embed"),
    ("label", {"dim": "64"}, "dim"),
    ("label", {"dim": True}, "dim"),
    ("label", {"top_n": [3, 10]}, "top_n"),
    ("label", {"threshold": "high"}, "threshold"),
    ("label", {"eval": None}, "eval"),
    ("label", {"labeled": 5}, "labeled"),
    ("reduce", {"top_n": 5}, "top_n"),
    ("reduce", {"top_n": [1, "2"]}, "top_n[1]"),
    # reduce runs at its table's stamp, so it takes none of these.
    ("reduce", {"dim": 64}, "dim"),
    ("reduce", {"seed": 97}, "seed"),
    ("reduce", {"set_size": 5}, "set_size"),
    ("reduce", {"cap_per_anchor": 8}, "cap_per_anchor"),
    ("reduce", {"threshold": 1.0}, "threshold"),
    # A grouped file is refused on its first group, with no second reader;
    # reduce reads no labeled corpus, and an emit flag is a JSON bool.
    ("label", {"embed": {"dim": 64}, "seed": 5}, "embed"),
    ("reduce", {"labeled": "corpus.jsonl"}, "labeled"),
    ("reduce", {"emit_graph": 1}, "emit_graph"),
])
def test_bad_config_file_is_usage_error(tmp_path, capsys, command, obj, key):
    cfg = tmp_path / "cfg.json"
    if obj == "record":
        # A run's record holds a config file under `config`; the record
        # itself is not one.
        cli._RunMetrics("label", LabelConfig()).write(tmp_path)
        cfg = tmp_path / "label_metrics.json"
    else:
        cfg.write_text(json.dumps(obj))
    rc = main([command, *_unread_inputs(tmp_path, command), "--config",
               str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"'{key}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["label", "reduce"])
def test_config_file_of_no_json_object_is_usage_error(tmp_path, capsys,
                                                      command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main([command, *_unread_inputs(tmp_path, command), "--config",
                 str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"config file {cfg}: not a JSON object" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--dim", "--seed", "--set-size",
                                  "--cap-per-anchor", "--threshold"])
def test_reduce_takes_no_shape_flag(corpus, capsys, flag):
    """reduce runs at its table's stamp: a shape flag is a usage error."""
    with pytest.raises(SystemExit) as err:
        main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
              "--labels", str(corpus / "lab" / "labels.json"), flag, "5",
              "--out", str(corpus / "x")])
    assert err.value.code == 1
    assert flag in capsys.readouterr().err


def _config(out, command):
    """The settings recorded in a run's <command>_metrics.json."""
    record = json.loads((out / f"{command}_metrics.json").read_text())
    assert record["command"] == command
    return record["config"]


def test_echo_records_only_what_its_command_reads(corpus):
    table = _label_default(corpus)
    label_echo = _config(table.parent, "label")
    for name in ("top_n", "emit_dot", "emit_graph", "emit_removed_ids",
                 "include_isolated_nodes", "eval_corpus", "labels_file"):
        assert name not in label_echo, name
    assert _reduce_outputs(corpus, table, "red")[0] == 0
    reduce_echo = _config(corpus / "red", "reduce")
    assert reduce_echo["top_n"] == [1, 2, 5]
    for name in ("labeled", "dim", "seed", "set_size", "cap_per_anchor",
                 "threshold"):
        assert name not in reduce_echo, name


def test_label_and_reduce_sharing_out_keep_both_records(corpus):
    """label and reduce given one --out each write their own record, and
    neither overwrites the other's."""
    table = _label_default(corpus, "--seed", "5")
    before = (table.parent / "label_metrics.json").read_bytes()
    rc = main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
               "--labels", str(table), "--top-n", "4",
               "--out", str(table.parent)])
    assert rc == 0
    assert (table.parent / "label_metrics.json").read_bytes() == before
    assert _config(table.parent, "label")["seed"] == 5
    assert _config(table.parent, "reduce")["top_n"] == [4]
    assert not (table.parent / "run_config.json").exists()
    assert not (table.parent / "metrics.json").exists()


def test_env_seed_is_not_read(corpus, monkeypatch):
    """The seed is set by --seed or the config key only: label with
    PROVPRUNE_SEED set writes the default seed."""
    monkeypatch.setenv("PROVPRUNE_SEED", "123")
    out = corpus / "env_run"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--out", str(out)]) == 0
    assert _config(out, "label")["seed"] == LabelConfig().seed != 123


def test_readme_config_example_is_accepted(corpus):
    """README's label and reduce config examples are accepted, each by its
    own command, and set what they say."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    blocks = [part.split("```", 1)[0]
              for part in section.split("```json\n")[1:3]]
    objs = [json.loads(block) for block in blocks]
    assert "top_n" not in objs[0] and "set_size" in objs[0]
    assert "top_n" in objs[1] and "set_size" not in objs[1]
    for name, block in zip(("label", "reduce"), blocks):
        (corpus / f"{name}_cfg.json").write_text(block)
    lab, red = corpus / "readme_lab", corpus / "readme_red"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--config", str(corpus / "label_cfg.json"),
                 "--out", str(lab)]) == 0
    echo = _config(lab, "label")
    assert echo["set_size"] == objs[0]["set_size"]
    assert echo["seed"] == objs[0]["seed"]
    assert main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
                 "--labels", str(lab / "labels.json"),
                 "--config", str(corpus / "reduce_cfg.json"),
                 "--out", str(red)]) == 0
    echo = _config(red, "reduce")
    assert echo["top_n"] == sorted(objs[1]["top_n"])


def test_vectors_file_with_nan_is_usage_error(corpus, capsys):
    vectors = corpus / "vecs.txt"
    vectors.write_text("tok nan 1 2 3 4 5 6 7\n")
    rc = main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
               "--model", f"vectors-file:{vectors}",
               "--out", str(corpus / "nan_out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{vectors}:1:" in err
    assert "Traceback" not in err


def test_table_of_another_width_is_usage_error(corpus, capsys):
    """Representatives of another width than the stamp's embedder gives are
    refused by sweep_top_n, naming both widths."""
    lab = corpus / "lab64"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--dim", "64", "--out", str(lab)]) == 0
    sidecar = lab / "labels.npz"
    count = len(np.load(sidecar)["representatives"])
    rewritten_sidecar(sidecar, representatives=np.ones((count, 32)))
    capsys.readouterr()
    rc = main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
               "--labels", str(lab / "labels.json"),
               "--out", str(corpus / "red32")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "width 32" in err and "width 64" in err
    assert "Traceback" not in err


def test_only_label_loads_orjson(corpus):
    """orjson writes labels.json's floats and is imported there, so
    `--version` and `reduce` never pay for loading it."""
    table = _label_default(corpus)
    probe = (
        "import sys\n"
        "from provprune.cli import main\n"
        "try:\n"
        "    main(['--version'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "assert 'orjson' not in sys.modules\n"
        f"assert main(['reduce', '--eval', {str(corpus / 'b' / 'corpus.jsonl')!r},"
        f" '--labels', {str(table)!r}, '--out', {str(corpus / 'red')!r}]) == 0\n"
        "assert 'orjson' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_label_writes_deterministic_sidecar(corpus):
    """Two label runs write the same labels.json and labels.npz bytes."""
    runs = []
    for out in ("lab1", "lab2"):
        assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                     "--iocs", str(corpus / "a" / "iocs.tsv"),
                     "--out", str(corpus / out)]) == 0
        runs.append([(corpus / out / name).read_bytes()
                     for name in ("labels.json", "labels.npz")])
    assert runs[0] == runs[1]


def _label_default(corpus, *extra):
    lab = corpus / "lab"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--iocs", str(corpus / "a" / "iocs.tsv"),
                 "--out", str(lab), *extra]) == 0
    return lab / "labels.json"


def test_label_frees_the_embedder_before_labeling(corpus, monkeypatch):
    """cmd_label drops the embedder, with its cached vectors, once featurize
    is done: none is alive when labeling starts."""
    import weakref

    embedders, alive = [], []

    def tracked(*args, **kwargs):
        embedder = get_embedder(*args, **kwargs)
        embedders.append(weakref.ref(embedder))
        return embedder

    def labeling(*args, **kwargs):
        alive.extend(ref() is not None for ref in embedders)
        return label_node_sets(*args, **kwargs)

    get_embedder, label_node_sets = cli.get_embedder, cli.label_node_sets
    monkeypatch.setattr(cli, "get_embedder", tracked)
    monkeypatch.setattr(cli, "label_node_sets", labeling)
    _label_default(corpus)
    assert alive == [False]


def _reduce_outputs(corpus, table, out, *extra):
    """Exit code and every compared output (timings masked) of a reduce run
    against table."""
    rc = main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
               "--labels", str(table), "--iocs", str(corpus / "b" / "iocs.tsv"),
               "--top-n", "1,2,5", "--emit-graph", "--emit-dot",
               "--emit-removed-ids", "--out", str(corpus / out), *extra])
    if rc:
        return rc, None
    return rc, _reduce_files(corpus / out)


def _reduce_files(out):
    """Every output of the reduce run in out but its record, timings
    masked."""
    return {path.name: mask_timings(path.name, path.read_bytes())
            for path in sorted(out.iterdir())
            if path.name != "reduce_metrics.json"}


def _fed_back(out, command):
    """The config of the record in out, written as a config file beside
    it."""
    path = out / f"{command}_config.json"
    path.write_text(json.dumps(_config(out, command)))
    return str(path)


@pytest.mark.parametrize("model", ["hash-ngrams", "vectors-file"])
def test_label_record_fed_back_reproduces_the_table(corpus, model):
    """A label record's config, given back as --config with only --out
    added, writes the same labels.json and labels.npz bytes."""
    extra = []
    if model == "vectors-file":
        _vectors(corpus / "model.vec", 0)
        extra = ["--model", f"vectors-file:{corpus / 'model.vec'}"]
    table = _label_default(corpus, "--seed", "5", "--set-size", "4",
                           "--cap-per-anchor", "3", "--threshold", "0.95",
                           "--synthesize-dangling", *extra)
    again = corpus / "again"
    assert main(["label", "--config", _fed_back(table.parent, "label"),
                 "--out", str(again)]) == 0
    for name in ("labels.json", "labels.npz"):
        assert ((again / name).read_bytes()
                == (table.parent / name).read_bytes())
    assert _config(again, "label") == dict(_config(table.parent, "label"),
                                           out_dir=str(again))


def test_reduce_record_fed_back_reproduces_the_reports(corpus):
    """A reduce record's config, given back as --config with only --out
    added, writes the same reports.json and sweep.csv (timings masked) and
    reduced graphs."""
    table = _label_default(corpus)
    rc, want = _reduce_outputs(corpus, table, "red",
                               "--include-isolated-nodes")
    assert rc == 0
    assert {"reduced_top5.jsonl", "reduced_top5.dot"} <= set(want)
    assert "removed_node_ids" in json.loads(want["reports.json"])[0]
    again = corpus / "again"
    assert main(["reduce", "--config", _fed_back(corpus / "red", "reduce"),
                 "--out", str(again)]) == 0
    assert _reduce_files(again) == want
    assert _config(again, "reduce")["include_isolated_nodes"] is True


def _vectors(path, axis):
    """Write a vectors file of one token, the unit vector along axis of 16,
    and return the model string its stamp holds."""
    path.write_text("tok " + " ".join("1" if i == axis else "0"
                                      for i in range(16)) + "\n")
    return f"vectors-file sha256={hashlib.sha256(path.read_bytes()).hexdigest()}"


@pytest.mark.parametrize("flag, value, key, stamped", [
    ("--model", "vectors-file:vecs.txt", "model", "hash-ngrams"),
])
def test_table_of_other_settings_is_usage_error(corpus, capsys, monkeypatch,
                                                flag, value, key, stamped):
    """A stamped table is refused, before the evaluation corpus is parsed,
    by a run whose model differs, with the key and both values named (a
    vectors file by its bytes, so it has to exist)."""
    table = _label_default(corpus)
    capsys.readouterr()
    shown = value
    if key == "model":
        monkeypatch.chdir(corpus)
        shown = _vectors(corpus / "vecs.txt", 0)
    parsed = []
    monkeypatch.setattr(cli, "parse_file", lambda *a, **k: parsed.append(a))
    rc, _ = _reduce_outputs(corpus, table, "red", flag, value)
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{key}=" in err and stamped in err and shown in err
    assert "Traceback" not in err
    assert parsed == []


def test_vectors_file_is_stamped_by_content(corpus, capsys):
    """A table labeled with a vectors file is used with the same bytes under
    another path, and refused, naming model, once the file is overwritten;
    a vectors file that is not there is an input error."""
    vectors = corpus / "model.vec"
    labeled = _vectors(vectors, 0)
    table = _label_default(corpus, "--model", f"vectors-file:{vectors}")
    assert json.loads(np.load(table.with_suffix(".npz"))["stamp"].item())[
        "model"] == labeled
    moved = corpus / "moved.vec"
    moved.write_bytes(vectors.read_bytes())
    capsys.readouterr()
    rc, _ = _reduce_outputs(corpus, table, "moved",
                            "--model", f"vectors-file:{moved}")
    assert rc == 0
    assert capsys.readouterr().err == ""

    overwritten = _vectors(vectors, 1)
    rc, _ = _reduce_outputs(corpus, table, "red",
                            "--model", f"vectors-file:{vectors}")
    err = capsys.readouterr().err
    assert rc == 1
    assert f"model={labeled!r}" in err and f"model={overwritten!r}" in err
    assert "Traceback" not in err
    assert not (corpus / "red" / "reports.json").exists()
    rc, _ = _reduce_outputs(corpus, table, "gone",
                            "--model", f"vectors-file:{corpus / 'gone.vec'}")
    assert rc == 2


def test_table_of_the_same_settings_loads_silently(corpus, capsys):
    """reduce with no shape flag runs at the settings label stamped."""
    table = _label_default(corpus, "--seed", "5", "--threshold", "0.95",
                           "--cap-per-anchor", "4")
    capsys.readouterr()
    rc, _ = _reduce_outputs(corpus, table, "red")
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_vectors_file_stamp_holds_its_width(corpus):
    """A vectors file fixes the embedding width, so the stamp and the
    record hold the file's width."""
    vectors = corpus / "model.vec"
    _vectors(vectors, 0)
    table = _label_default(corpus, "--model", f"vectors-file:{vectors}")
    with np.load(table.with_suffix(".npz")) as npz:
        stamp = json.loads(npz["stamp"].item())
        assert stamp["dim"] == 16 == npz["representatives"].shape[1]
    assert _config(table.parent, "label")["dim"] == 16


@pytest.mark.parametrize("how", ["flag", "config", "both"])
def test_vectors_file_refuses_a_dim(corpus, capsys, monkeypatch, how):
    """With a vectors file, dim is the file's width: another width, from
    --dim or the config file's dim, is a usage error naming dim, before
    the corpus is parsed. The file's own width is accepted, as a record
    fed back as a config file holds it."""
    vectors = corpus / "model.vec"
    _vectors(vectors, 0)
    cfg = corpus / "dim_cfg.json"
    cfg.write_text(json.dumps({"dim": 64 if how == "config" else 16}))
    extra = {"flag": ["--dim", "64"], "config": ["--config", str(cfg)],
             "both": ["--config", str(cfg), "--dim", "64"]}[how]
    argv = ["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
            "--model", f"vectors-file:{vectors}"]
    parse_file = cli.parse_file
    parsed = []
    monkeypatch.setattr(cli, "parse_file",
                        lambda *a, **k: parsed.append(a) or parse_file(*a, **k))
    capsys.readouterr()
    rc = main([*argv, "--out", str(corpus / "dim_out"), *extra])
    err = capsys.readouterr().err
    assert rc == 1
    assert "'dim'" in err and "vectors file" in err and "16" in err
    assert "Traceback" not in err
    assert parsed == []
    assert not (corpus / "dim_out").exists()
    own = ["--dim", "16"] if how == "flag" else ["--config", str(cfg),
                                                 "--dim", "16"]
    assert main([*argv, "--out", str(corpus / "own"), *own]) == 0
    assert len(parsed) == 1
    assert _config(corpus / "own", "label")["dim"] == 16


@pytest.mark.parametrize("how", ["flag", "config"])
def test_label_refuses_a_dim_above_the_maximum(tmp_path, capsys,
                                              monkeypatch, how):
    """A dim above MAX_DIM, from --dim or the config file, is a usage error
    naming dim, before any embedder is built."""
    built = []
    monkeypatch.setattr(cli, "get_embedder", lambda *a, **k: built.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": MAX_DIM + 1}))
    extra = {"flag": ["--dim", str(MAX_DIM + 1)],
             "config": ["--config", str(cfg)]}[how]
    rc = main(["label", "--labeled", str(tmp_path / "none.jsonl"),
               "--out", str(tmp_path / "out"), *extra])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"'dim' must be in [8, {MAX_DIM}], got {MAX_DIM + 1}" \
        in err
    assert built == []
    assert not (tmp_path / "out").exists()


def test_label_refuses_a_vectors_file_above_the_maximum(tmp_path, capsys):
    """A vectors file wider than MAX_DIM is refused as a --dim is, before
    the corpus is read: reduce would refuse the table's stamp."""
    vectors = tmp_path / "wide.vec"
    vectors.write_text("tok " + " ".join(["1"] * (MAX_DIM + 1)) + "\n")
    rc = main(["label", "--labeled", str(tmp_path / "none.jsonl"),
               "--model", f"vectors-file:{vectors}",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"'dim' must be in [8, {MAX_DIM}], got {MAX_DIM + 1}" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_MISSING = object()


def _restamp(table, key, value):
    """Rewrite the stamp in table's labels.npz with key set to value, or
    without key when value is _MISSING."""
    sidecar = table.with_suffix(".npz")
    with np.load(sidecar) as npz:
        stamp = json.loads(npz["stamp"].item())
    if value is _MISSING:
        del stamp[key]
    else:
        stamp[key] = value
    rewritten_sidecar(sidecar, stamp=np.array(json.dumps(stamp)))


@pytest.mark.parametrize("key, value", [
    ("seed", _MISSING), ("dim", _MISSING), ("threshold", _MISSING),
    ("seed", "97"), ("seed", 97.0), ("dim", True), ("dim", 4),
    ("set_size", 1), ("cap_per_anchor", -1), ("threshold", 2.0),
    ("threshold", "1.0"), ("threshold", float("nan")), ("dim", 65537),
])
def test_bad_stamp_is_usage_error(corpus, capsys, monkeypatch, key, value):
    """A stamp reduce would run at must hold each shape key with its JSON
    type and in its range: otherwise exit 1 naming the .npz and the key,
    before the evaluation corpus is parsed, and no traceback."""
    table = _label_default(corpus)
    _restamp(table, key, value)
    capsys.readouterr()
    parsed = []
    monkeypatch.setattr(cli, "parse_file", lambda *a, **k: parsed.append(a))
    rc, _ = _reduce_outputs(corpus, table, "red")
    err = capsys.readouterr().err
    assert rc == 1
    assert f"label table {table.with_suffix('.npz')}: " in err
    assert f"'{key}'" in err
    assert "Traceback" not in err
    assert parsed == []
    assert not (corpus / "red" / "reports.json").exists()


def test_table_of_another_version_is_usage_error(corpus, capsys, monkeypatch):
    """A stamp of another table format, or with none (a table written
    before formats were stamped), is refused before the evaluation corpus
    is parsed: exit 1 naming the .npz, and rerun label."""
    table = _label_default(corpus)
    sidecar = table.with_suffix(".npz")
    good = sidecar.read_bytes()
    parsed = []
    monkeypatch.setattr(cli, "parse_file", lambda *a, **k: parsed.append(a))
    for value in (TABLE_FORMAT + 1, _MISSING, str(TABLE_FORMAT), True):
        sidecar.write_bytes(good)
        _restamp(table, "format", value)
        capsys.readouterr()
        rc, _ = _reduce_outputs(corpus, table, "red")
        err = capsys.readouterr().err
        assert rc == 1
        assert f"label table {sidecar}: stamp format " in err
        assert "rerun label" in err and "Traceback" not in err
    assert parsed == []


def test_table_of_format_1_is_usage_error(corpus, capsys, monkeypatch):
    """A table written at format 1, with its label_id, member_count and
    created_seq members, is refused before the evaluation corpus is
    parsed: exit 1 naming the .npz, and rerun label."""
    table = _label_default(corpus)
    sidecar = table.with_suffix(".npz")
    with np.load(sidecar) as npz:
        stamp = json.loads(npz["stamp"].item())
        labels, assignment = len(npz["polarity"]), npz["assignment"]
    rewritten_sidecar(sidecar, stamp=np.array(json.dumps(
        dict(stamp, format=1), sort_keys=True)),
        label_id=np.arange(labels), created_seq=np.arange(labels),
        member_count=np.bincount(assignment, minlength=labels))
    parsed = []
    monkeypatch.setattr(cli, "parse_file", lambda *a, **k: parsed.append(a))
    capsys.readouterr()
    rc, _ = _reduce_outputs(corpus, table, "red")
    err = capsys.readouterr().err
    assert rc == 1
    assert f"label table {sidecar}: stamp format 1, not 2; rerun label" in err
    assert "Traceback" not in err
    assert parsed == []
    assert not (corpus / "red" / "reports.json").exists()


def test_table_without_its_sidecar_is_refused(corpus, capsys):
    """With labels.npz deleted, reduce exits 1, naming it, instead of
    running on a table whose settings it cannot read."""
    table = _label_default(corpus, "--seed", "5")
    capsys.readouterr()
    sidecar = table.with_suffix(".npz")
    sidecar.unlink()
    rc, _ = _reduce_outputs(corpus, table, "red")
    err = capsys.readouterr().err
    assert rc == 1
    assert sidecar.name == "labels.npz"
    assert f"label table {sidecar}: missing; rerun label" in err
    assert "Traceback" not in err
    assert not (corpus / "red" / "reports.json").exists()


def test_table_without_a_matching_sidecar_loads_from_json(corpus, capsys,
                                                          monkeypatch):
    """A missing, truncated, garbage or pickled sidecar, one whose arrays
    disagree with each other (an assignment naming no label or that no
    labeling gives, zero-vector sets outside 0..len(assignment)), or one of other bytes than
    labels.json, is refused before the evaluation corpus is parsed: exit 1
    naming the sidecar and why, no traceback and no reports. The table is
    never read from labels.json instead."""
    table = _label_default(corpus)
    sidecar = table.with_suffix(".npz")
    good, text = sidecar.read_bytes(), table.read_text()
    capsys.readouterr()
    rc, want = _reduce_outputs(corpus, table, "red")
    assert rc == 0 and want
    assert capsys.readouterr().err == ""

    def pickled(path):
        rewritten_sidecar(path, representatives=np.array([[1.0, "x"]],
                                                         dtype=object))

    with np.load(sidecar) as npz:
        labels, assignment = len(npz["polarity"]), npz["assignment"]
    assert labels > 1

    def rewritten(**members):
        return lambda path: rewritten_sidecar(path, **members)

    past_last = assignment.copy()
    past_last[-1] = labels
    negative = assignment.copy()
    negative[0] = -1
    # Entries that each name a label, in an order no labeling gives: the
    # first chain joins label 1, and the last label loses its members.
    assert assignment[0] == 0 and labels - 1 in assignment
    reordered = assignment.copy()
    reordered[0] = 1
    unfounded = np.where(assignment == labels - 1, 0, assignment)

    def edited(path):
        # One polarity changed: the sidecar no longer matches the bytes.
        table.write_text(text.replace('"polarity":"benign"',
                                      '"polarity":"malicious"', 1))

    spoils = [(lambda p: p.unlink(), "missing"),
              (lambda p: p.write_bytes(good[: len(good) // 2]), "unreadable"),
              (lambda p: p.write_bytes(b"\x00garbage" * 64), "unreadable"),
              (pickled, "unreadable"),
              (rewritten(assignment=np.full_like(assignment, 1_000_000)),
               "unreadable"),
              (rewritten(assignment=past_last), "unreadable"),
              (rewritten(assignment=negative), "unreadable"),
              (rewritten(assignment=reordered), "unreadable"),
              (rewritten(assignment=unfounded), "unreadable"),
              (rewritten(zero_vector_sets=np.array(-1)), "unreadable"),
              (rewritten(zero_vector_sets=np.array(len(assignment) + 1)),
               "unreadable"),
              (edited, "digest mismatch")]
    parse_file = cli.parse_file
    parsed = []
    monkeypatch.setattr(cli, "parse_file",
                        lambda *a, **k: parsed.append(a) or parse_file(*a, **k))
    for i, (spoil, why) in enumerate(spoils):
        sidecar.write_bytes(good)
        table.write_text(text)
        spoil(sidecar)
        rc, got = _reduce_outputs(corpus, table, f"red{i}")
        err = capsys.readouterr().err
        assert (rc, got) == (1, None)
        assert f"label table {sidecar}: {why}; rerun label" in err
        assert "Traceback" not in err
        assert not (corpus / f"red{i}" / "reports.json").exists()
    assert parsed == []
    sidecar.write_bytes(good)
    table.write_text(text)
    assert _reduce_outputs(corpus, table, "again") == (0, want)


def _set_first_benign(**fields):
    def spoil(table):
        entry = next(e for e in table["labels"] if e["polarity"] == "benign")
        entry.update(fields)
        return table
    return spoil


def _repeat_first_id(table):
    table["labels"][1]["label_id"] = table["labels"][0]["label_id"]
    return table


def _widen_last(table):
    table["labels"][-1]["representative"].append(0.5)
    return table


@pytest.mark.parametrize("spoil, field", [
    (lambda t: [], "top level"),
    (lambda t: dict(t, labels=[1]), "labels"),
    (lambda t: dict(t, assignment=5), "assignment"),
    (lambda t: dict(t, zero_vector_sets="many"), "zero_vector_sets"),
    (_set_first_benign(member_count="x"), "member_count"),
    (_set_first_benign(member_count=True), "member_count"),
    (_set_first_benign(polarity=7), "polarity"),
    (_set_first_benign(representative=[[1.0, 2.0]]), "representative"),
    (_set_first_benign(representative=[None, 1.0]), "representative"),
    (_set_first_benign(representative=[10 ** 400]), "representative"),
    (_widen_last, "representative"),
    (_repeat_first_id, "label_id"),
])
def test_malformed_label_table_is_usage_error(corpus, capsys, spoil, field):
    """A labels.json that label could not have written, with field at
    fault, no longer matches its labels.npz: exit 1 naming the digest
    mismatch, never a traceback, never a run on a wrong table."""
    table = _label_default(corpus)
    payload = json.loads(table.read_text())
    assert len(payload["labels"]) > 1
    table.write_text(json.dumps(spoil(payload)))
    capsys.readouterr()
    rc, _ = _reduce_outputs(corpus, table, "red")
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{table.with_suffix('.npz')}: digest mismatch" in err
    assert "Traceback" not in err
    assert not (corpus / "red" / "reports.json").exists()


def _perfbench_trace():
    """perfbench/trace.py, imported by path; importing it runs nothing."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace


def test_benchmark_trace_targets_resolve():
    """perfbench/trace.py wraps these names where cli and reduce look them
    up and skips a missing one silently, so moving a call loses its span."""
    from provprune import cli, reduce

    trace = _perfbench_trace()
    modules = {"cli": cli, "reduce": reduce}
    missing = [(mod, name) for mod, name, _, _ in trace.TARGETS
               if not callable(getattr(modules[mod], name, None))]
    assert missing == []
    assert callable(cli.get_embedder)


def test_benchmark_count_extractors_bind_by_name(corpus):
    """The traced counts read save_graph's `path` and label_table_from_json's
    `text` by parameter name, and the parse tallies from parse_file's third
    result."""
    import inspect

    from provprune.ingest import ParseStats
    from provprune.label import label_table_from_json, sidecar_path

    trace = _perfbench_trace()
    extractors = {name: counts for _, name, _, counts in trace.TARGETS}
    assert extractors["save_graph"] is trace._export_counts
    assert extractors["label_table_from_json"] is trace._table_counts
    assert extractors["parse_file"] is trace._parse_counts
    assert "path" in inspect.signature(cli.save_graph).parameters
    assert "text" in inspect.signature(label_table_from_json).parameters
    result = parse_file(corpus / "a" / "corpus.jsonl")
    assert isinstance(result[2], ParseStats)
    assert trace._parse_counts(result, parse_file, (), {})[
        "events_accepted"] == result[2].accepted_events
    # The extractors as the tracer calls them: with the call's own arguments.
    out = corpus / "export.jsonl"
    graph = build_graph(*result[:2])
    cli.save_graph(graph, out)
    assert trace._export_counts(None, cli.save_graph, (graph, out), {}) == {
        "export_bytes": out.stat().st_size}
    text = '{"assignment":[],"labels":[]}'
    assert trace._table_counts(None, label_table_from_json, (
        text, sidecar_path(out)), {}) == {"table_bytes": len(text)}
