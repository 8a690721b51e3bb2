import gc
import json
from pathlib import Path

import pytest

from provprune import cli
from provprune.cli import RunConfig, _write_config_echo, main
from provprune.graph import build_graph, remove_nodes
from provprune.ingest import parse_file

from oracles import export_graph

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
    echo = json.loads((out / "run_config.json").read_text())
    assert echo["command"] == "label"
    assert echo["threshold"] == 1.0


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


def test_reduce_inline_labeling_matches_saved_labels(corpus):
    lab = corpus / "lab"
    main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
          "--iocs", str(corpus / "a" / "iocs.tsv"), "--out", str(lab)])
    via_file = corpus / "via_file"
    via_inline = corpus / "via_inline"
    args_tail = ["--eval", str(corpus / "b" / "corpus.jsonl"),
                 "--iocs", str(corpus / "b" / "iocs.tsv"), "--top-n", "3"]
    assert main(["reduce", "--labels", str(lab / "labels.json"),
                 "--out", str(via_file)] + args_tail) == 0
    assert main(["reduce", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--out", str(via_inline)] + args_tail) == 0
    a = json.loads((via_file / "reports.json").read_text())
    b = json.loads((via_inline / "reports.json").read_text())
    for x, y in zip(a, b):
        x.pop("per_stage_seconds")
        y.pop("per_stage_seconds")
    assert a == b


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


def test_reduce_requires_label_source(corpus):
    assert main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
                 "--out", str(corpus / "x")]) == 1


def test_bad_top_n_is_usage_error(corpus):
    assert main(["reduce", "--eval", str(corpus / "b" / "corpus.jsonl"),
                 "--labeled", str(corpus / "a" / "corpus.jsonl"),
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
    assert main(["reduce", "--eval", str(corpus), "--set-size", "2",
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
    echo = json.loads((corpus / "t" / "run_config.json").read_text())
    assert "threads" not in echo


def test_config_file_and_flag_precedence(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embed": {"dim": 32, "seed": 11},
                               "nodeset": {"cap_per_anchor": 4}}))
    out = corpus / "cfg_run"
    rc = main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
               "--config", str(cfg), "--dim", "16", "--out", str(out)])
    assert rc == 0
    echo = json.loads((out / "run_config.json").read_text())
    assert echo["dim"] == 16
    assert echo["seed"] == 11
    assert echo["cap_per_anchor"] == 4


def test_env_seed_override(corpus, monkeypatch):
    monkeypatch.setenv("PROVPRUNE_SEED", "123")
    out = corpus / "env_run"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--out", str(out)]) == 0
    echo = json.loads((out / "run_config.json").read_text())
    assert echo["seed"] == 123

    out2 = corpus / "env_run2"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--seed", "456", "--out", str(out2)]) == 0
    assert json.loads((out2 / "run_config.json").read_text())["seed"] == 456


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


@pytest.mark.parametrize("obj, key", [
    ({"nodeset": {"set_size": 3}}, "nodeset.set_size"),
    ({"threads": 2}, "threads"),
    ("echo", "cap_per_anchor"),
    ({"embed.dim": 64}, "embed.dim"),
    ({"embed": 5}, "embed"),
    ({"embed": {"dim": "64"}}, "embed.dim"),
    ({"embed": {"dim": True}}, "embed.dim"),
    ({"reduce": {"top_n": 5}}, "reduce.top_n"),
    ({"reduce": {"top_n": [1, "2"]}}, "reduce.top_n"),
    ({"label": {"threshold": "high"}}, "label.threshold"),
    ({"eval": None}, "eval"),
])
def test_bad_config_file_is_usage_error(tmp_path, capsys, obj, key):
    cfg = tmp_path / "cfg.json"
    if obj == "echo":
        # A run's config echo is a record of the run, not a config file.
        _write_config_echo(RunConfig(), tmp_path, "label")
        cfg = tmp_path / "run_config.json"
    else:
        cfg.write_text(json.dumps(obj))
    rc = main(["label", "--labeled", str(tmp_path / "never_read.jsonl"),
               "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"'{key}'" in err
    assert "Traceback" not in err


def test_readme_config_example_is_accepted(corpus):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = corpus / "readme_cfg.json"
    cfg.write_text(block)
    out = corpus / "readme_cfg_run"
    assert main(["label", "--labeled", str(corpus / "a" / "corpus.jsonl"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    echo = json.loads((out / "run_config.json").read_text())
    file_obj = json.loads(block)
    assert echo["set_size"] == file_obj["nodeset"]["size"]
    assert echo["seed"] == file_obj["embed"]["seed"]


def test_benchmark_trace_targets_resolve():
    """perfbench/trace.py wraps these names where cli and reduce look them
    up and skips a missing one silently, so moving a call loses its span."""
    import importlib.util

    from provprune import cli, reduce

    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    modules = {"cli": cli, "reduce": reduce}
    missing = [(mod, name) for mod, name, _, _ in trace.TARGETS
               if not callable(getattr(modules[mod], name, None))]
    assert missing == []
    assert callable(cli.get_embedder)
