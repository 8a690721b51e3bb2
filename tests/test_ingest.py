import io
import json
import random
from pathlib import Path

import numpy as np
import pytest

from provprune.ingest import (
    SYSCALL_OBJECT_KIND,
    NodeRecord,
    cmdline_frequency,
    compute_corpus_stats,
    normalize_cmdline,
    parse_file,
    parse_stream,
    top_commands,
)

from oracles import (
    Event,
    corpus_stats_counts,
    event_records,
    edge_graph_records,
    entity_event_counts,
    graph_of,
    parse_records,
    random_graph_records,
    record_lines,
    recount_entity_events,
    reference_corpus_stats,
    reference_parse_stream,
    synth_lines,
    total_event_records,
)


def lines(*objs):
    return [json.dumps(o) for o in objs]


PROC = {"kind": "process", "id": "p1", "cmdline": "/usr/bin/make -j4"}
FILE = {"kind": "file", "id": "f1", "path": "/etc/hosts"}
NET = {"kind": "netflow", "id": "n1", "raddr": "1.2.3.4", "rport": 443,
       "laddr": "10.0.0.5", "lport": 51000}


def test_accepts_read_event():
    nodes, events, stats = parse_stream(lines(
        PROC, FILE, {"kind": "event", "syscall": "read", "subject": "p1",
                     "object": "f1", "ts": 5}))
    assert [e.syscall for e in event_records(events)] == ["read"]
    assert stats.accepted_events == 1
    assert stats.accepted_nodes == 2


def test_unanalyzed_syscall_dropped_and_counted():
    nodes, events, stats = parse_stream(lines(
        PROC, FILE, {"kind": "event", "syscall": "mmap", "subject": "p1",
                     "object": "f1", "ts": 5}))
    assert event_records(events) == []
    assert stats.dropped_events == 1


def test_empty_stream_is_fine():
    nodes, events, stats = parse_stream([])
    assert list(nodes) == [] and event_records(events) == []
    assert total_event_records(stats) == 0


def test_blank_lines_skipped():
    nodes, events, stats = parse_stream(["", "   ", "\n"])
    assert stats.malformed_lines == 0
    assert list(nodes) == []


def test_undecodable_line_counted_not_fatal():
    nodes, events, stats = parse_stream(["{not json", "[1,2]", "17"])
    assert stats.malformed_lines == 3


READ = {"kind": "event", "syscall": "read", "subject": "p1", "object": "f1",
        "ts": 5}


@pytest.mark.parametrize("bad_line", [
    b'{"kind":"file","id":"f\xff","path":"x"}',
    b'{"kind":"event","syscall":"read","subject":"p1","object":"f1\xfe",'
    b'"ts":6}',
], ids=["node", "event"])
def test_non_utf8_line_is_malformed_not_fatal(tmp_path, bad_line):
    good = [json.dumps(r).encode() for r in (PROC, FILE, READ)]
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join(good[:2] + [bad_line] + good[2:]) + b"\n")
    nodes, events, stats = parse_file(path)
    assert stats.malformed_lines == 1
    assert [n.id for n in nodes] == ["p1", "f1"]
    assert event_records(events) == [Event("p1", "f1", "read", 5)]


def test_truncated_multibyte_sequence_at_eof_is_malformed(tmp_path):
    cut = json.dumps(dict(FILE, id="f2", path="caf\u00e9"),
                     ensure_ascii=False).encode()[:-3]
    assert cut.endswith(b"\xc3")
    path = tmp_path / "cut.jsonl"
    path.write_bytes(json.dumps(FILE).encode() + b"\n" + cut)
    nodes, _, stats = parse_file(path)
    assert stats.malformed_lines == 1
    assert [n.id for n in nodes] == ["f1"]


def test_file_bytes_parse_like_text(tmp_path):
    """Non-ASCII UTF-8 decodes per line; whitespace-only lines stay blank."""
    records = [dict(PROC, cmdline="caf\u00e9 \u2615"),
               dict(FILE, path="/\U0001f600"), READ]
    text = [json.dumps(r, ensure_ascii=False) for r in records]
    text[1:1] = ["\u00a0", "\x1c\t "]
    path = tmp_path / "utf8.jsonl"
    path.write_bytes("".join(line + "\r\n" for line in text).encode())
    parsed = parse_file(path)
    assert parse_records(parsed) == parse_records(parse_stream(text))
    nodes, events, stats = parsed
    assert nodes[0].cmdline == "caf\u00e9 \u2615"
    assert stats.malformed_lines == 0 and len(events) == 1


def test_streams_parse_like_lines():
    """A binary io stream is read in blocks, where canonical lines skip the
    JSON scanner; a text stream and a list go one line at a time."""
    records = [dict(PROC, ts=1), dict(FILE, ts=2), READ]
    text = [json.dumps(r, sort_keys=True, separators=(",", ":"))
            for r in records]
    data = "\n".join(text).encode()
    parsed = parse_stream(text)
    want = parse_records(parsed)
    assert parse_records(parse_stream(io.BytesIO(data))) == want
    assert parse_records(parse_stream(io.StringIO("\n".join(text)))) == want
    assert parse_stream(io.BytesIO(data))[2].scanned_lines == 0
    assert parsed[2].scanned_lines == 3
    assert len(parsed[1]) == 1


def test_unknown_kind_counted_as_malformed_line():
    _, _, stats = parse_stream(lines({"kind": "registry", "id": "r1"}))
    assert stats.malformed_lines == 1


def test_unknown_top_level_keys_ignored():
    node = dict(PROC, hostname="box7", uid=0)
    nodes, _, stats = parse_stream(lines(node))
    assert stats.accepted_nodes == 1
    assert nodes[0].cmdline == PROC["cmdline"]


def test_duplicate_node_keeps_first():
    second = dict(PROC, cmdline="other")
    nodes, _, stats = parse_stream(lines(PROC, second))
    assert stats.duplicate_nodes == 1
    assert nodes[0].cmdline == "/usr/bin/make -j4"


def test_node_missing_id_is_malformed():
    _, _, stats = parse_stream(lines({"kind": "process", "cmdline": "x"}))
    assert stats.malformed_nodes == 1


def test_netflow_port_range_enforced():
    bad = dict(NET, rport=70000)
    _, _, stats = parse_stream(lines(bad))
    assert stats.malformed_nodes == 1


def test_event_missing_field_is_malformed():
    _, _, stats = parse_stream(lines(
        {"kind": "event", "syscall": "read", "subject": "p1", "ts": 1}))
    assert stats.malformed_events == 1


def test_dangling_event_excluded_by_default():
    nodes, events, stats = parse_stream(lines(
        PROC, {"kind": "event", "syscall": "read", "subject": "p1",
               "object": "ghost", "ts": 2}))
    assert event_records(events) == []
    assert stats.dangling_events == 1


def test_dangling_event_synthesizes_placeholder_when_asked():
    nodes, events, stats = parse_stream(
        lines(PROC, {"kind": "event", "syscall": "read", "subject": "p1",
                     "object": "ghost", "ts": 2}),
        synthesize_dangling=True)
    assert stats.synthesized_nodes == 1
    assert stats.accepted_events == 1
    ghost = {n.id: n for n in nodes}["ghost"]
    assert ghost.kind == "file"


@pytest.mark.parametrize("syscall,kept", [("read", False), ("clone", True)])
def test_dangling_self_loop_mints_one_placeholder(syscall, kept):
    """An undeclared id looping onto itself becomes one process node; a read
    then cannot have a file object and is malformed."""
    nodes, events, stats = parse_stream(
        lines({"kind": "event", "syscall": syscall, "subject": "ghost",
               "object": "ghost", "ts": 1}),
        synthesize_dangling=True)
    assert [(n.id, n.kind) for n in nodes] == [("ghost", "process")]
    assert stats.synthesized_nodes == 1
    assert (len(events), stats.malformed_events) == ((1, 0) if kept else (0, 1))


def test_object_kind_must_match_syscall():
    """A clone whose object is a file is malformed, not merely dangling."""
    _, events, stats = parse_stream(lines(
        PROC, FILE, {"kind": "event", "syscall": "clone", "subject": "p1",
                     "object": "f1", "ts": 3}))
    assert event_records(events) == []
    assert stats.malformed_events == 1


def test_syscall_object_kind_table_covers_all_eleven():
    assert len(SYSCALL_OBJECT_KIND) == 11


def test_random_syscall_strings_never_pass_filter():
    rng = random.Random(401)
    alphabet = "abcdefghijklmnopqrstuvwxyz_"
    records = [PROC, FILE]
    n_noise = 0
    for _ in range(300):
        name = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 8)))
        if name in SYSCALL_OBJECT_KIND:
            continue
        n_noise += 1
        records.append({"kind": "event", "syscall": name, "subject": "p1",
                        "object": "f1", "ts": 1})
    _, events, stats = parse_stream(lines(*records))
    assert event_records(events) == []
    assert stats.dropped_events == n_noise


@pytest.mark.parametrize("synthesize_dangling", [False, True])
def test_events_share_node_id_and_syscall_strings(synthesize_dangling):
    """The event table numbers endpoints in the node table's own ids list,
    and each accepted event names its own line's subject, object, syscall
    and timestamp; a dangling event is accepted only when placeholders are
    synthesized."""
    rng = random.Random(78)
    nodes, events = random_graph_records(rng, max_events=80)
    source = record_lines(nodes, events)
    ghost = Event(subject="ghost-p", object="ghost-f", syscall="read", ts=3)
    source.append(json.dumps({"kind": "event", "syscall": ghost.syscall,
                              "subject": ghost.subject,
                              "object": ghost.object, "ts": ghost.ts}))
    got_nodes, got_events, _ = parse_stream(
        source, synthesize_dangling=synthesize_dangling)
    assert got_events.ids is got_nodes.ids
    assert len(got_events) >= 10
    want = events + [ghost] if synthesize_dangling else events
    assert event_records(got_events) == want


@pytest.mark.parametrize("synthesize_dangling", [False, True])
def test_equal_values_are_one_object_and_early_events_share_ids(
        synthesize_dangling):
    """One object per distinct attribute text, which equal texts share as
    one code, and ports and node timestamps held in int columns; an event
    read before its endpoints' declarations, or one whose endpoint is a
    minted placeholder, still holds the records' own id strings."""
    ts = 1_700_000_000
    event = {"kind": "event", "syscall": "read", "ts": ts + 1}
    source = lines(
        dict(event, subject="p1", object="f1"),
        dict(event, subject="ghost-p", object="f2"),
        dict(event, subject="p2", object="ghost-f"),
        *[dict(PROC, id=f"p{i}", ts=ts) for i in (1, 2)],
        *[dict(FILE, id=f"f{i}", ts=ts) for i in (1, 2)],
        *[dict(NET, id=f"n{i}", ts=ts) for i in (1, 2)],
        dict(event, subject="p2", object="f2"),
        dict(event, syscall="sendto", subject="p1", object="n1"))
    nodes, events, stats = parse_stream(
        source, synthesize_dangling=synthesize_dangling)
    by_id = {n.id: n for n in nodes}
    p1, p2, f1, f2, n1, n2 = (by_id[i] for i in
                              ("p1", "p2", "f1", "f2", "n1", "n2"))
    assert p1.cmdline is p2.cmdline
    assert f1.path is f2.path
    assert n1.local_addr is n2.local_addr
    number = {node_id: v for v, node_id in enumerate(nodes.ids)}
    n1_row, n2_row = number["n1"], number["n2"]
    for column in (nodes.text, nodes.laddr, nodes.lport):
        assert column[n1_row] == column[n2_row]
    assert n1 == n2._replace(id="n1")
    assert nodes.lport.dtype == np.uint16
    assert nodes.first_seen.dtype == np.int64
    assert p1.first_seen == p2.first_seen == f1.first_seen == n2.first_seen
    assert len(events) == (5 if synthesize_dangling else 3)
    assert stats.synthesized_nodes == (2 if synthesize_dangling else 0)
    for ev in event_records(events):
        assert ev.subject is by_id[ev.subject].id
        assert ev.object is by_id[ev.object].id


def test_event_record_conservation():
    """accepted + dropped + malformed + dangling covers every event record."""
    rng = random.Random(77)
    records = [PROC, FILE, NET]
    n_event_records = 0
    for _ in range(500):
        n_event_records += 1
        roll = rng.random()
        if roll < 0.25:
            records.append({"kind": "event", "syscall": "read",
                            "subject": "p1", "object": "f1", "ts": 1})
        elif roll < 0.5:
            records.append({"kind": "event", "syscall": "mknod",
                            "subject": "p1", "object": "f1", "ts": 1})
        elif roll < 0.75:
            records.append({"kind": "event", "syscall": "sendto",
                            "subject": "p1", "object": "nope", "ts": 1})
        else:
            records.append({"kind": "event", "syscall": "read",
                            "subject": "p1", "object": "f1", "ts": "soon"})
    _, _, stats = parse_stream(lines(*records))
    assert total_event_records(stats) == n_event_records


def test_stats_saturation_case():
    nodes = [NodeRecord(id="p1", kind="process", cmdline="a"),
             NodeRecord(id="f1", kind="file", path="/x")]
    events = [Event(subject="p1", object="f1", syscall="read", ts=i)
              for i in range(100)]
    stats = compute_corpus_stats(graph_of(nodes, events).events)
    assert stats.total_events == 100
    assert entity_event_counts(stats)["f1"] == 100


def test_stats_zero_events():
    stats = compute_corpus_stats(graph_of([], []).events)
    assert stats.total_events == 0
    assert not entity_event_counts(stats)


def test_stats_match_bruteforce_recount():
    rng = random.Random(2024)
    nodes = [NodeRecord(id=f"p{i}", kind="process", cmdline=f"c{i}")
             for i in range(10)]
    nodes += [NodeRecord(id=f"f{i}", kind="file", path=f"/{i}")
              for i in range(20)]
    events = []
    for _ in range(1000):
        events.append(Event(subject=f"p{rng.randrange(10)}",
                            object=f"f{rng.randrange(20)}",
                            syscall="write", ts=rng.randrange(50)))
    stats = compute_corpus_stats(graph_of(nodes, events).events)
    assert entity_event_counts(stats) == recount_entity_events(events)
    assert stats.total_events == len(events)
    assert sum(stats.per_syscall_count.values()) == stats.total_events


def test_stats_match_per_event_reference():
    """Counts equal a one-increment-per-event loop over what the reference
    parser reads, self-loops and placeholder processes included."""
    rng = random.Random(2025)
    spaced = ["ls  -la", " ls -la ", "ls\t-la", "make\n -j4", "", "   "]
    self_loops = placeholders = 0
    for trial in range(60):
        if trial % 2:
            nodes, events = edge_graph_records(rng)
        else:
            nodes, events = random_graph_records(rng, allow_self_loops=True)
            nodes = [n._replace(cmdline=rng.choice(spaced))
                     if n.kind == "process" else n for n in nodes]
        declared = nodes if trial % 3 else nodes[1:]
        synthesize = trial % 4 < 2
        source = record_lines(declared, events)
        read_nodes, read_events, read_stats = reference_parse_stream(
            source, synthesize_dangling=synthesize)
        self_loops += sum(ev.subject == ev.object for ev in read_events)
        placeholders += read_stats.synthesized_nodes
        total, per_entity, per_syscall, cmdlines = reference_corpus_stats(
            read_events, read_nodes)
        table, columns, _ = parse_stream(source,
                                         synthesize_dangling=synthesize)
        stats = compute_corpus_stats(columns)
        assert stats.total_events == total
        assert entity_event_counts(stats) == per_entity
        assert dict(stats.per_syscall_count) == per_syscall
        assert corpus_stats_counts(compute_corpus_stats(columns, table)) \
            == corpus_stats_counts(stats)
        assert dict(cmdline_frequency(columns, table)) == cmdlines
    assert self_loops > 0 and placeholders > 0


def test_cmdline_frequency_refuses_tables_of_another_numbering():
    nodes = [NodeRecord(id="p1", kind="process", cmdline="a"),
             NodeRecord(id="f1", kind="file", path="/x")]
    events = [Event(subject="p1", object="f1", syscall="read", ts=1)]
    g = graph_of(nodes, events)
    other = graph_of(nodes[::-1], events)
    with pytest.raises(ValueError, match="differ from position 0"):
        cmdline_frequency(g.events, other.table)


def test_cmdline_counted_once_per_event():
    nodes = [NodeRecord(id="p1", kind="process", cmdline="/usr/bin/firefox"),
             NodeRecord(id="f1", kind="file", path="/x")]
    events = [Event(subject="p1", object="f1", syscall="read", ts=i)
              for i in range(7)]
    g = graph_of(nodes, events)
    assert cmdline_frequency(g.events, g.table) == {"/usr/bin/firefox": 7}


def test_normalize_cmdline_collapses_whitespace_only():
    assert normalize_cmdline("  ls   -la\t/tmp ") == "ls -la /tmp"
    assert normalize_cmdline("KeepCase --Flag") == "KeepCase --Flag"


def test_top_commands_single():
    nodes = [NodeRecord(id="p1", kind="process", cmdline="solo"),
             NodeRecord(id="f1", kind="file", path="/x")]
    events = [Event(subject="p1", object="f1", syscall="read", ts=i)
              for i in range(5)]
    g = graph_of(nodes, events)
    assert top_commands(cmdline_frequency(g.events, g.table), 10) == [
        ("solo", 5, 1.0)]


def test_top_commands_shares_and_tiebreak():
    nodes = [NodeRecord(id="p1", kind="process", cmdline="bbb"),
             NodeRecord(id="p2", kind="process", cmdline="aaa"),
             NodeRecord(id="p3", kind="process", cmdline="ccc"),
             NodeRecord(id="f1", kind="file", path="/x")]
    events = []
    events += [Event(subject="p1", object="f1", syscall="read", ts=1)] * 3
    events += [Event(subject="p2", object="f1", syscall="read", ts=1)] * 1
    g = graph_of(nodes, events)
    ranked = top_commands(cmdline_frequency(g.events, g.table), 5)
    assert ranked[0] == ("bbb", 3, 0.75)
    assert ranked[1] == ("aaa", 1, 0.25)

    g = graph_of(nodes, [Event(subject="p1", object="f1", syscall="read",
                               ts=1),
                         Event(subject="p2", object="f1", syscall="read",
                               ts=1)])
    tie = cmdline_frequency(g.events, g.table)
    assert [c for c, _, _ in top_commands(tie, 5)] == ["aaa", "bbb"]


@pytest.mark.parametrize("syscall,expected_kind", [
    ("open", "file"), ("execve", "process"), ("sendmsg", "netflow"),
])
def test_placeholder_kind_follows_syscall(syscall, expected_kind):
    target = {"process": "p9", "file": "f9", "netflow": "n9"}[expected_kind]
    nodes, events, stats = parse_stream(
        lines(PROC, {"kind": "event", "syscall": syscall, "subject": "p1",
                     "object": target, "ts": 1}),
        synthesize_dangling=True)
    assert {n.id: n.kind for n in nodes}[target] == expected_kind


def readme_block(heading, lang):
    """The first fenced block of lang under README's heading."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split(heading, 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_input_example_parses_cleanly():
    """The JSON block under README's "## Input format" is valid input."""
    block = readme_block("## Input format", "json")
    nodes, events, stats = parse_stream(block.splitlines())
    assert len(nodes) == 3
    assert len(events) == 1
    assert (stats.malformed_lines, stats.malformed_nodes,
            stats.malformed_events, stats.dropped_events,
            stats.dangling_events, stats.duplicate_nodes) == (0,) * 6
    netflow, = [n for n in nodes if n.kind == "netflow"]
    assert netflow.attr_text() == "10.0.0.5:443"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    """The Python block under README's "## Library use" runs as written on
    a synthesized corpus at the path it reads, and labels and sweeps it."""
    corpus = tmp_path / "labeled" / "corpus.jsonl"
    corpus.parent.mkdir()
    corpus.write_text("".join(line + "\n" for line in synth_lines()))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(readme_block("## Library use", "python"), scope)
    assert scope["stats"].accepted_events == len(scope["g"].events) == 3696
    assert len(scope["table"].labels) > 0
    assert [r.n_requested for r in scope["reports"]] == [3, 10]
    assert scope["reports"][0].nodes_removed > 0
