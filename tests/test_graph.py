import io
import json
import random

import pytest

from provprune.graph import (
    NodeIndex,
    build_graph,
    dot_lines,
    graph_lines,
    remove_nodes,
    save_graph,
    summarize,
    write_graph,
)
from provprune.ingest import (
    NODE_KINDS,
    SYSCALL_OBJECT_KIND,
    Event,
    EventTable,
    NodeRecord,
    parse_stream,
)

from oracles import (
    EDGE_PORTS,
    EDGE_TS,
    degree_counts,
    edge_graph_records,
    event_node_ids,
    export_graph,
    graph_of,
    random_graph_records,
    record_lines,
    reference_graph_lines,
    reference_parse_stream,
    synth_graph,
    synth_lines,
    temporal_order,
    total_event_records,
    traced_memory,
    traced_peak,
)


def small_fixture():
    """Two processes spawning into a file touch, the classic 3-node shape."""
    nodes = [
        NodeRecord(id="p1", kind="process", cmdline="bash"),
        NodeRecord(id="p2", kind="process", cmdline="cp a b"),
        NodeRecord(id="fA", kind="file", path="/tmp/a"),
    ]
    events = [
        Event(subject="p1", object="p2", syscall="clone", ts=10),
        Event(subject="p2", object="fA", syscall="open", ts=20),
    ]
    return nodes, events


def test_build_counts_and_order():
    nodes, events = small_fixture()
    g = graph_of(nodes, list(reversed(events)))
    assert len(g.nodes) == 3
    assert [e.syscall for e in g.events] == ["clone", "open"]


def test_events_sorted_by_full_key():
    nodes = [NodeRecord(id=i, kind="process", cmdline=i)
             for i in ("a", "b", "c")]
    events = [
        Event(subject="b", object="c", syscall="clone", ts=5),
        Event(subject="a", object="b", syscall="execve", ts=5),
        Event(subject="a", object="b", syscall="clone", ts=5),
    ]
    g = graph_of(nodes, events)
    assert g.events == [events[2], events[1], events[0]]
    keys = [(e.ts, e.subject, e.object, e.syscall) for e in g.events]
    assert keys == sorted(keys)


# Id characters whose code-point order differs from any declaration order
# the generator draws: non-ASCII, astral, lone surrogates, case and digits.
ID_CHARS = ["a", "B", "z", "0", " ", "\u00e9", "\U0001f600",
            json.loads('"\\ud800"'), json.loads('"\\udfff"')]


def tie_heavy_records(rng):
    """Nodes of shuffled random ids and events of few timestamps, with
    repeated endpoints, syscalls and whole events; each event's subject is
    a process and its object of the kind its syscall takes."""
    ids = list(dict.fromkeys(
        "".join(rng.choices(ID_CHARS, k=rng.randint(1, 3)))
        for _ in range(rng.randint(1, 20))))
    rng.shuffle(ids)
    kinds = ["process"] + rng.choices(NODE_KINDS, k=len(ids) - 1)
    nodes = [NodeRecord(id=i, kind=kind, first_seen=1)
             for i, kind in zip(ids, kinds)]
    by_kind = {}
    for i, kind in zip(ids, kinds):
        by_kind.setdefault(kind, []).append(i)
    syscalls = [s for s, kind in SYSCALL_OBJECT_KIND.items()
                if kind in by_kind]
    events = []
    for _ in range(rng.randint(0, 60)):
        syscall = rng.choice(syscalls)
        events.append(Event(
            rng.choice(by_kind["process"]),
            rng.choice(by_kind[SYSCALL_OBJECT_KIND[syscall]]), syscall,
            rng.randint(0, 3)))
    events += rng.sample(events, len(events) // 4)
    rng.shuffle(events)
    return nodes, events


def test_temporal_order_is_a_stable_sort_by_the_key_tuple():
    """Heavy ties, non-ASCII ids, lone surrogates and ids declared out of
    string order: the event columns sort as the records do under the
    (ts, subject, object, syscall) key, equal events in the order given.
    The records are as the reference parser reads their lines, where an
    escaped high and low surrogate in a row are one character."""
    rng = random.Random(2718)
    unordered = 0
    for _ in range(150):
        nodes, events = tie_heavy_records(rng)
        unordered += [n.id for n in nodes] != sorted(n.id for n in nodes)
        _, read, _ = reference_parse_stream(record_lines(nodes, events))
        assert len(read) == len(events)
        g = graph_of(nodes, events)
        assert g.events == sorted(read, key=temporal_order)
    for _ in range(60):
        nodes, events = edge_graph_records(rng, wide=False)
        parsed_nodes, parsed_events, _ = parse_stream(
            record_lines(nodes, events))
        g = build_graph(parsed_nodes, parsed_events)
        assert g.events == sorted(parsed_events, key=temporal_order)
    assert unordered > 100


def test_record_views_give_the_records_built_from():
    """g.nodes and g.events read back the records graph_of was given, as
    the reference parser reads their lines: the first record of each id,
    by [id], in, len and iteration, and every event."""
    rng = random.Random(1414)
    for _ in range(60):
        nodes, events = edge_graph_records(rng, wide=False)
        nodes += [n._replace(first_seen=7) for n in rng.sample(nodes, 1)]
        read_nodes, events, _ = reference_parse_stream(
            record_lines(nodes, events))
        first = {node.id: node for node in read_nodes}
        g = graph_of(nodes, events)
        assert len(g.nodes) == len(first)
        assert list(g.nodes) == list(first)
        assert list(g.nodes.values()) == list(first.values())
        assert dict(g.nodes.items()) == first
        for node_id, node in first.items():
            assert node_id in g.nodes and g.nodes[node_id] == node
        assert "no such id" not in g.nodes
        assert len(g.events) == len(events)
        assert sorted(g.events, key=temporal_order) == sorted(
            events, key=temporal_order)
        assert [g.events[i] for i in range(-len(events), 0)] == list(g.events)
        index = NodeIndex.of(g)
        assert index.ids is g.table.ids
        assert index.src is g.events.src and index.dst is g.events.dst


def test_parse_and_build_hold_few_bytes_per_record():
    """Columns: the graph parse and build leave behind holds under 1.25 x
    the 59.0 bytes per node and event measured on the scale-2 synthetic
    corpus (10,000 nodes, 7,399 events), where records took 173."""
    lines = synth_lines(2)

    def parse_and_build():
        nodes, events, _ = parse_stream(lines)
        return build_graph(nodes, events)

    g, held, _ = traced_memory(parse_and_build)
    records = len(g.nodes) + len(g.events)
    assert records == 17_399
    assert held < 1.25 * 59.0 * records


def test_duplicate_nodes_keep_first():
    nodes = [NodeRecord(id="p1", kind="process", cmdline="first"),
             NodeRecord(id="p1", kind="process", cmdline="second")]
    g = graph_of(nodes, [])
    assert g.nodes["p1"].cmdline == "first"


def test_missing_endpoint_rejected_and_counted():
    nodes, events = small_fixture()
    events.append(Event(subject="p1", object="ghost", syscall="open", ts=30))
    table, columns, stats = parse_stream(record_lines(nodes, events))
    g = build_graph(table, columns)
    assert len(g.events) == 2
    assert stats.dangling_events == 1


def test_build_graph_refuses_tables_of_another_numbering():
    """Tables that number their nodes alike build the same graph; tables
    that do not are refused, not renumbered."""
    nodes, events = small_fixture()
    table, columns, _ = parse_stream(record_lines(nodes, events))
    copy = EventTable(list(columns.ids), columns.src, columns.dst,
                      columns.syscall, columns.ts)
    assert build_graph(table, copy) == build_graph(table, columns)
    other, _, _ = parse_stream(record_lines(nodes[::-1], []))
    with pytest.raises(ValueError, match="differ from position 0"):
        build_graph(other, columns)
    fewer, _, _ = parse_stream(record_lines(nodes[:2], []))
    with pytest.raises(ValueError, match="3 node ids and the node table 2"):
        build_graph(fewer, columns)


def test_zero_events_graph_is_isolated():
    nodes, _ = small_fixture()
    g = graph_of(nodes, [])
    assert g.events == []
    assert event_node_ids(g) == set()
    assert not NodeIndex.of(g).incident().any()


def test_handshake_identity():
    """Sum of endpoint tallies equals twice the event count."""
    rng = random.Random(11)
    nodes = [NodeRecord(id=f"p{i}", kind="process", cmdline="x")
             for i in range(50)]
    nodes += [NodeRecord(id=f"f{i}", kind="file", path="/x")
              for i in range(50)]
    events = []
    while len(events) < 10_000:
        s = f"p{rng.randrange(50)}"
        o = rng.choice([f"p{rng.randrange(50)}", f"f{rng.randrange(50)}"])
        syscall = "clone" if o.startswith("p") else "read"
        events.append(Event(subject=s, object=o, syscall=syscall,
                            ts=rng.randrange(1000)))
    g = graph_of(nodes, events)
    assert sum(degree_counts(g).values()) == 2 * len(g.events)


def test_remove_nothing_is_identity():
    nodes, events = small_fixture()
    g = graph_of(nodes, events)
    assert export_graph(remove_nodes(g, [])) == export_graph(g)


def test_remove_everything():
    nodes, events = small_fixture()
    g = remove_nodes(graph_of(nodes, events), ["p1", "p2", "fA"])
    assert not g.nodes and not g.events


def test_remove_unknown_ids_ignored():
    nodes, events = small_fixture()
    g = graph_of(nodes, events)
    h = remove_nodes(g, ["nope", "p2"])
    assert h == remove_nodes(g, ["p2"])
    assert "p2" not in h.nodes


def test_removal_drops_incident_edges_full_scan():
    rng = random.Random(83)
    for _ in range(20):
        nodes, events = random_graph_records(rng)
        g = graph_of(nodes, events)
        victims = {n.id for n in nodes if rng.random() < 0.3}
        h = remove_nodes(g, victims)
        assert not victims & set(h.nodes)
        for ev in h.events:
            assert ev.subject not in victims and ev.object not in victims
        survivors = [ev for ev in g.events
                     if ev.subject not in victims and ev.object not in victims]
        assert h.events == survivors


def test_removal_order_insensitive():
    rng = random.Random(84)
    nodes, events = random_graph_records(rng)
    g = graph_of(nodes, events)
    ids = [n.id for n in nodes]
    a = set(rng.sample(ids, 3))
    b = set(rng.sample(ids, 3))
    combined = remove_nodes(g, a | b)
    staged = remove_nodes(remove_nodes(g, a), b)
    assert export_graph(combined) == export_graph(staged)


def test_export_empty_graph():
    assert export_graph(graph_of([], [])) == ""


def edge_graph(rng):
    """An edge-value graph plus placeholder nodes the parser mints; its
    timestamps are the ones the parser accepts."""
    nodes, events = edge_graph_records(rng, wide=False)
    ghosts = [{"kind": "event", "syscall": syscall, "subject": "ghost:p",
               "object": f"ghost:{syscall}\ud800", "ts": rng.choice(EDGE_TS)}
              for syscall in rng.sample(["read", "clone", "sendto"], 2)]
    lines = reference_graph_lines(graph_of(nodes, events))
    lines += [json.dumps(obj) for obj in ghosts]
    nodes, events, stats = parse_stream(lines, synthesize_dangling=True)
    assert stats.synthesized_nodes == 3
    return build_graph(nodes, events)


def test_jsonl_round_trip_fixpoint():
    """export -> parse -> build -> export lands on identical bytes; the
    export read as a binary stream, where its canonical lines skip the JSON
    scanner, parses as its lines do."""
    rng = random.Random(85)
    graphs = [graph_of(*random_graph_records(rng)) for _ in range(10)]
    graphs += [edge_graph(rng) for _ in range(80)]
    for g in graphs:
        first = export_graph(g)
        nodes2, events2, stats = parse_stream(first.splitlines())
        assert parse_stream(io.BytesIO(first.encode())) == (nodes2, events2,
                                                            stats)
        assert total_event_records(stats) == stats.accepted_events
        g2 = build_graph(nodes2, events2)
        assert g2 == g
        assert export_graph(g2) == first


def test_export_then_parse_gives_back_graphs_of_unescaped_surrogates():
    """str lines can hold lone surrogates unescaped, so an id or text can
    hold a high surrogate directly followed by a low one; the parser counts
    that record as malformed, because the pair would export as two escapes
    that read back as one character. Every graph it accepts survives export
    then parse, lone surrogates included."""
    rng = random.Random(87)
    refused = lone = 0
    for _ in range(120):
        nodes, events = edge_graph_records(rng, wide=False)
        lines = record_lines(nodes, events, ensure_ascii=False)
        parsed = parse_stream(lines)
        assert parsed == reference_parse_stream(lines)
        stats = parsed[2]
        refused += stats.malformed_nodes + stats.malformed_events
        g = build_graph(*parsed[:2])
        lone += any({"\ud800", "\udfff"} & set(n.id + n.attr_text()
                                                + n.local_addr)
                    for n in g.nodes.values())
        first = export_graph(g)
        again = build_graph(*parse_stream(first.splitlines())[:2])
        assert again == g
        assert export_graph(again) == first
    assert refused > 20 and lone > 20


def test_export_bytes_equal_json_dumps_encoding(tmp_path):
    """graph_lines, export_graph, write_graph and save_graph all give the
    bytes of one sorted-key json.dumps per record."""
    rng = random.Random(86)
    seen = set()
    for trial in range(80):
        g = edge_graph(rng) if trial % 2 else graph_of(
            *edge_graph_records(rng, wide=False))
        expected = reference_graph_lines(g)
        assert list(graph_lines(g)) == expected
        text = "".join(line + "\n" for line in expected)
        assert export_graph(g) == text
        sink = io.StringIO()
        write_graph(g, sink)
        assert sink.getvalue() == text
        path = tmp_path / f"g{trial}.jsonl"
        save_graph(g, path)
        assert path.read_bytes() == text.encode("ascii")
        for n in g.nodes.values():
            seen.add(n.kind)
            seen.update({n.first_seen, n.local_port, n.remote_port}
                        & {*EDGE_TS, *EDGE_PORTS})
            seen.update(c for c in n.id + n.attr_text()
                        if "\ud800" <= c <= "\udfff")
        seen.update({ev.ts for ev in g.events} & set(EDGE_TS))
    assert {"process", "file", "netflow", *EDGE_TS, *EDGE_PORTS} <= seen
    assert {"\ud800", "\udfff"} <= seen


@pytest.fixture(scope="module")
def synth_graphs():
    return synth_graph(), synth_graph(4)


@pytest.mark.parametrize("fmt", ["jsonl", "dot"])
def test_save_graph_holds_no_text_of_the_whole_graph(tmp_path, synth_graphs,
                                                     fmt):
    """Lines are written as they are made: a graph four times larger adds
    only the sorted node-id list, under 16 bytes per node, to the peak,
    where a list of every line took over 250 bytes per node."""
    small, big = synth_graphs
    _, small_peak = traced_peak(save_graph, small, tmp_path / "small", fmt)
    _, big_peak = traced_peak(save_graph, big, tmp_path / "big", fmt)
    added = len(big.nodes) - len(small.nodes)
    assert added >= 3 * len(small.nodes)
    assert big_peak - small_peak < 16 * added


def test_dot_output_shape():
    nodes, events = small_fixture()
    lines = list(dot_lines(graph_of(nodes, events)))
    assert lines[0].startswith("digraph")
    assert sum(1 for ln in lines if "label=" in ln and "->" not in ln) == 3
    assert sum(1 for ln in lines if "->" in ln) == 2
    assert 'open@20' in "".join(lines)
    assert lines[-1] == "}"


def test_dot_escapes_quotes():
    nodes = [NodeRecord(id="p1", kind="process", cmdline='sh -c "rm x"'),
             NodeRecord(id="p2", kind="process", cmdline="y")]
    events = [Event(subject="p1", object="p2", syscall="clone", ts=1)]
    text = export_graph(graph_of(nodes, events), fmt="dot")
    assert '\\"rm' in text


def test_unknown_export_format_raises():
    with pytest.raises(ValueError):
        export_graph(graph_of([], []), fmt="xml")


def test_summarize_fields():
    nodes, events = small_fixture()
    info = summarize(graph_of(nodes, events))
    assert info["nodes"] == 3
    assert info["processes"] == 2
    assert info["files"] == 1
    assert info["events"] == 2
    assert info["event_nodes"] == 3
    assert info["per_syscall"] == {"clone": 1, "open": 1}


def test_incident_nodes_equal_the_oracle():
    """Incident flags and summarize's event_nodes count the nodes some event
    touches: isolated nodes are out, a self-loop's node is in."""
    rng = random.Random(29)
    loops = 0
    for _ in range(40):
        nodes, events = random_graph_records(rng, allow_self_loops=True)
        nodes.append(NodeRecord(id="island", kind="file", path="/island"))
        g = graph_of(nodes, events)
        loops += sum(ev.subject == ev.object for ev in g.events)
        index = NodeIndex.of(g)
        want = event_node_ids(g)
        assert "island" not in want
        assert index.mask(want).tolist() == index.incident().tolist()
        assert summarize(g)["event_nodes"] == len(want)
    assert loops


class _ScanOnly:
    """Yields its ids but refuses membership tests: a mask that tested
    membership in a list would scan the whole list once per node."""

    def __init__(self, ids):
        self.ids = list(ids)

    def __iter__(self):
        return iter(self.ids)

    def __contains__(self, item):
        raise AssertionError("membership tested without making a set")


def test_mask_makes_a_set_of_any_other_iterable():
    nodes, events = small_fixture()
    index = NodeIndex.of(graph_of(nodes, events))
    members = {"p2", "elsewhere"}
    want = index.mask(members)
    assert want.tolist() == [nid in members for nid in index.ids]
    assert index.mask(_ScanOnly(members)).tolist() == want.tolist()
    assert index.mask(iter(sorted(members))).tolist() == want.tolist()
    assert index.mask(dict.fromkeys(members).keys()).tolist() == want.tolist()


def test_graph_lines_nodes_before_events():
    nodes, events = small_fixture()
    lines = list(graph_lines(graph_of(nodes, events)))
    kinds = ["event" if '"kind":"event"' in ln else "node" for ln in lines]
    assert kinds == ["node", "node", "node", "event", "event"]
