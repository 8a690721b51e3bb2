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
from provprune.graph import build_graph, remove_nodes
from provprune.ingest import parse_file

from oracles import export_graph, rewritten_sidecar
from test_golden import mask_timings

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
    with pytest.raises(SystemExit) as err:
        main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
              "--out", str(corpus / "x")])
    assert err.value.code == 1
    assert "--labels" in capsys.readouterr().err


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
    assert [(e.subject, e.object) for e in events] == [("p\ud800", "f\udfff")]
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
        reduced = remove_nodes(full, report["removed_node_ids"])
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
    cfg.write_text(json.dumps({"embed": {"dim": 32, "seed": 11},
                               "nodeset": {"cap_per_anchor": 4}}))
    out = corpus / "cfg_run"
    rc = main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
               "--config", str(cfg), "--dim", "16", "--out", str(out)])
    assert rc == 0
    echo = _config(out, "label")
    assert echo["dim"] == 16
    assert echo["seed"] == 11
    assert echo["cap_per_anchor"] == 4


def test_env_seed_override(corpus, monkeypatch):
    monkeypatch.setenv("PROVPRUNE_SEED", "123")
    out = corpus / "env_run"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--out", str(out)]) == 0
    assert _config(out, "label")["seed"] == 123

    out2 = corpus / "env_run2"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--seed", "456", "--out", str(out2)]) == 0
    assert _config(out2, "label")["seed"] == 456


def test_env_seed_must_be_integer(corpus, monkeypatch):
    monkeypatch.setenv("PROVPRUNE_SEED", "lucky")
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--out", str(corpus / "x")]) == 1


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


@pytest.mark.parametrize("command, obj, key", [
    ("label", {"nodeset": {"set_size": 3}}, "nodeset.set_size"),
    ("label", {"threads": 2}, "threads"),
    ("label", "record", "command"),
    ("label", {"embed.dim": 64}, "embed.dim"),
    ("label", {"embed": 5}, "embed"),
    ("label", {"embed": {"dim": "64"}}, "embed.dim"),
    ("label", {"embed": {"dim": True}}, "embed.dim"),
    ("label", {"reduce": {"top_n": [3, 10]}}, "reduce.top_n"),
    ("label", {"label": {"threshold": "high"}}, "label.threshold"),
    ("label", {"eval": None}, "eval"),
    ("label", {"labeled": "corpus.jsonl"}, "labeled"),
    ("reduce", {"reduce": {"top_n": 5}}, "reduce.top_n"),
    ("reduce", {"reduce": {"top_n": [1, "2"]}}, "reduce.top_n"),
    # reduce runs at its table's stamp, so it takes none of these.
    ("reduce", {"embed": {"dim": 64}}, "embed.dim"),
    ("reduce", {"embed": {"seed": 97}}, "embed.seed"),
    ("reduce", {"nodeset": {"size": 5}}, "nodeset.size"),
    ("reduce", {"nodeset": {"cap_per_anchor": 8}}, "nodeset.cap_per_anchor"),
    ("reduce", {"label": {"threshold": 1.0}}, "label.threshold"),
])
def test_bad_config_file_is_usage_error(tmp_path, capsys, command, obj, key):
    cfg = tmp_path / "cfg.json"
    if obj == "record":
        # A run's record holds its settings, but it is not a config file.
        cli._RunMetrics("label", LabelConfig()).write(tmp_path)
        cfg = tmp_path / "label_metrics.json"
    else:
        cfg.write_text(json.dumps(obj))
    sources = {"label": ["--labeled", str(tmp_path / "never_read.jsonl")],
               "reduce": ["--eval", str(tmp_path / "never_read.jsonl"),
                          "--labels", str(tmp_path / "never_read.json")]}
    rc = main([command, *sources[command], "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"'{key}'" in err
    assert "Traceback" not in err


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


def test_env_seed_is_read_by_label_only(corpus, monkeypatch, capsys):
    """PROVPRUNE_SEED sets label's seed; reduce, at its table's seed, reads
    no seed of its own, however PROVPRUNE_SEED is set."""
    table = _label_default(corpus)
    monkeypatch.setenv("PROVPRUNE_SEED", "123")
    capsys.readouterr()
    assert _reduce_outputs(corpus, table, "red")[0] == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("PROVPRUNE_SEED", "lucky")
    assert _reduce_outputs(corpus, table, "red2")[0] == 0


def test_readme_config_example_is_accepted(corpus):
    """README's label and reduce config examples are accepted, each by its
    own command, and set what they say."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    blocks = [part.split("```", 1)[0]
              for part in section.split("```json\n")[1:3]]
    objs = [json.loads(block) for block in blocks]
    assert "reduce" not in objs[0] and "embed" in objs[0]
    assert "reduce" in objs[1] and "nodeset" not in objs[1]
    for name, block in zip(("label", "reduce"), blocks):
        (corpus / f"{name}_cfg.json").write_text(block)
    lab, red = corpus / "readme_lab", corpus / "readme_red"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--config", str(corpus / "label_cfg.json"),
                 "--out", str(lab)]) == 0
    echo = _config(lab, "label")
    assert echo["set_size"] == objs[0]["nodeset"]["size"]
    assert echo["seed"] == objs[0]["embed"]["seed"]
    assert main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
                 "--labels", str(lab / "labels.json"),
                 "--config", str(corpus / "reduce_cfg.json"),
                 "--out", str(red)]) == 0
    echo = _config(red, "reduce")
    assert echo["top_n"] == sorted(objs[1]["reduce"]["top_n"])


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
    return rc, {path.name: mask_timings(path.name, path.read_bytes())
                for path in sorted((corpus / out).iterdir())
                if path.name != "reduce_metrics.json"}


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
    """With a vectors file, --dim or embed.dim would be ignored, so either
    is a usage error naming dim, before the corpus is parsed, even at the
    file's own width."""
    vectors = corpus / "model.vec"
    _vectors(vectors, 0)
    cfg = corpus / "dim_cfg.json"
    cfg.write_text(json.dumps({"embed": {"dim": 16}}))
    extra = {"flag": ["--dim", "16"], "config": ["--config", str(cfg)],
             "both": ["--config", str(cfg), "--dim", "64"]}[how]
    parsed = []
    monkeypatch.setattr(cli, "parse_file", lambda *a, **k: parsed.append(a))
    capsys.readouterr()
    rc = main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
               "--model", f"vectors-file:{vectors}",
               "--out", str(corpus / "dim_out"), *extra])
    err = capsys.readouterr().err
    assert rc == 1
    assert "'dim'" in err and "vectors file" in err
    assert "Traceback" not in err
    assert parsed == []
    assert not (corpus / "dim_out").exists()


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
    ("threshold", "1.0"), ("threshold", float("nan")),
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
    table = _label_default(corpus)
    _restamp(table, "version", "0.0.9")
    capsys.readouterr()
    parsed = []
    monkeypatch.setattr(cli, "parse_file", lambda *a, **k: parsed.append(a))
    rc, _ = _reduce_outputs(corpus, table, "red")
    err = capsys.readouterr().err
    assert rc == 1
    assert "version='0.0.9'" in err and "Traceback" not in err
    assert parsed == []


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
    """A missing, truncated, garbage or pickled sidecar, one whose label_id
    or created_seq is not 0..n-1, one whose arrays disagree with each other
    (an assignment naming no label, member counts that do not count the
    assignment, zero-vector sets outside 0..len(assignment)), or one of
    other bytes than labels.json, is refused before the evaluation corpus
    is parsed: exit 1 naming the sidecar and why, no traceback and no
    reports. The table is never read from labels.json instead."""
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
        rolled = np.roll(np.arange(len(npz["label_id"])), 1)
        counts, assignment = npz["member_count"], npz["assignment"]
    assert len(rolled) > 1
    assert counts.tolist() != counts[::-1].tolist()

    def permuted(name):
        return lambda path: rewritten_sidecar(path, **{name: rolled})

    def rewritten(**members):
        return lambda path: rewritten_sidecar(path, **members)

    past_last = assignment.copy()
    past_last[-1] = len(counts)
    negative = assignment.copy()
    negative[0] = -1

    def edited(path):
        # One polarity changed: the sidecar no longer matches the bytes.
        table.write_text(text.replace('"polarity":"benign"',
                                      '"polarity":"malicious"', 1))

    spoils = [(lambda p: p.unlink(), "missing"),
              (lambda p: p.write_bytes(good[: len(good) // 2]), "unreadable"),
              (lambda p: p.write_bytes(b"\x00garbage" * 64), "unreadable"),
              (pickled, "unreadable"),
              (permuted("label_id"), "unreadable"),
              (permuted("created_seq"), "unreadable"),
              (rewritten(member_count=counts[::-1].copy(),
                         assignment=np.full_like(assignment, 1_000_000)),
               "unreadable"),
              (rewritten(assignment=past_last), "unreadable"),
              (rewritten(assignment=negative), "unreadable"),
              (rewritten(member_count=counts[::-1].copy()), "unreadable"),
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
    """A labels.json that write_json could not have written, with field at
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
