"""The tuple-building parser against the record-at-a-time reference parser.

Both see the same lines; nodes, events and every tally must agree. Fixed
inputs cover each rejection rule once, seeded generators cover valid corpora,
and hypothesis fuzzes arbitrary text, arbitrary bytes and mutated records.
"""

import json
import random

import pytest

from provprune.ingest import parse_stream

from oracles import (
    edge_graph_records,
    random_graph_records,
    record_lines,
    reference_parse_stream,
    total_event_records,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given


def assert_same_parse(lines, synthesize_dangling=False):
    got = parse_stream(lines, synthesize_dangling=synthesize_dangling)
    want = reference_parse_stream(lines,
                                  synthesize_dangling=synthesize_dangling)
    assert got == want
    return got


def tally(stats):
    """Every non-blank line lands in exactly one of these counters."""
    return (stats.accepted_nodes + stats.duplicate_nodes
            + stats.malformed_nodes + total_event_records(stats)
            + stats.malformed_lines)


def event(syscall="read", subject="p1", target="f1", ts=5):
    return {"kind": "event", "syscall": syscall, "subject": subject,
            "object": target, "ts": ts}


PROC = {"kind": "process", "id": "p1", "cmdline": "make"}
FILE = {"kind": "file", "id": "f1", "path": "/etc/hosts"}
NET = {"kind": "netflow", "id": "n1", "raddr": "1.2.3.4", "rport": 443,
       "laddr": "10.0.0.5", "lport": 51000}

# (line, counter it lands in). Declarations of p1, f1 and n1 come first.
MALFORMED = [
    (json.dumps(event(ts=True)), "malformed_events"),
    (json.dumps(event(ts=1.5)), "malformed_events"),
    (json.dumps(event(ts=None)), "malformed_events"),
    (json.dumps(event(ts=2 ** 63 - 1)), "accepted_events"),
    (json.dumps(event(ts=-2 ** 63)), "accepted_events"),
    (json.dumps(event(ts=2 ** 63)), "malformed_events"),
    (json.dumps(event(ts=-2 ** 63 - 1)), "malformed_events"),
    (json.dumps(dict(FILE, id="f9", ts=2 ** 63 - 1)), "accepted_nodes"),
    (json.dumps(dict(FILE, id="f10", ts=-2 ** 63)), "accepted_nodes"),
    (json.dumps(dict(FILE, id="f11", ts=2 ** 63)), "malformed_nodes"),
    (json.dumps(dict(PROC, id="p3", ts=-2 ** 63 - 1)), "malformed_nodes"),
    (json.dumps(dict(FILE, id="f2", ts=False)), "malformed_nodes"),
    (json.dumps(dict(FILE, id="f3", ts=2.0)), "malformed_nodes"),
    (json.dumps(dict(FILE, id="f4", ts=None)), "accepted_nodes"),
    (json.dumps(dict(NET, id="n2", rport=65536)), "malformed_nodes"),
    (json.dumps(dict(NET, id="n3", lport=-1)), "malformed_nodes"),
    (json.dumps(dict(NET, id="n4", rport=True)), "malformed_nodes"),
    (json.dumps(dict(NET, id="n5", rport=0, lport=65535)), "accepted_nodes"),
    (json.dumps(dict(PROC, id="")), "malformed_nodes"),
    (json.dumps(dict(PROC, id="p2", cmdline=None)), "malformed_nodes"),
    (json.dumps(event(subject="")), "malformed_events"),
    (json.dumps(event(target="")), "malformed_events"),
    (json.dumps(event(syscall=7)), "malformed_events"),
    ("[1, 2]", "malformed_lines"),
    ('"process"', "malformed_lines"),
    ("17", "malformed_lines"),
    ("null", "malformed_lines"),
    (json.dumps({"kind": "registry", "id": "r1"}), "malformed_lines"),
    (json.dumps({"id": "r2"}), "malformed_lines"),
    (json.dumps({"kind": ["file"], "id": "r3"}), "malformed_lines"),
    (json.dumps({"kind": {"file": 1}, "id": "r4"}), "malformed_lines"),
    ("\ufeff" + json.dumps(dict(FILE, id="f5")), "malformed_lines"),
    (json.dumps(dict(FILE, id="f6")) + " x", "malformed_lines"),
    (json.dumps(dict(FILE, id="f7")) * 2, "malformed_lines"),
    ('{"kind": "file", "id": "f8", "ts": ' + "9" * 5000 + "}",
     "malformed_lines"),
    ("[" * 100_000, "malformed_lines"),
    ("{not json", "malformed_lines"),
    (json.dumps(dict(PROC, cmdline="again")), "duplicate_nodes"),
    (json.dumps(dict(FILE, path="/again")), "duplicate_nodes"),
    (json.dumps(event(target="ghost")), "dangling_events"),
    (json.dumps(event(subject="ghost-p", syscall="sendto", target="n1")),
     "dangling_events"),
    (json.dumps(event(syscall="clone", target="f1")), "malformed_events"),
    (json.dumps(event(syscall="sendto", target="f1")), "malformed_events"),
    (json.dumps(event(subject="f1", target="f1")), "malformed_events"),
    (json.dumps(event(syscall="mmap")), "dropped_events"),
    (json.dumps(event()), "accepted_events"),
    ("   ", None),
]


def malformed_corpus():
    return [json.dumps(r) for r in (PROC, FILE, NET)] + [
        line for line, _ in MALFORMED]


def test_fixed_malformed_lines_match_reference():
    _, _, stats = assert_same_parse(malformed_corpus())
    expected = {"accepted_nodes": 3, "accepted_events": 0}
    for _, counter in MALFORMED:
        if counter is not None:
            expected[counter] = expected.get(counter, 0) + 1
    counts = stats.to_dict()
    assert {k: counts[k] for k in expected} == expected
    assert stats.synthesized_nodes == 0
    assert tally(stats) == len(MALFORMED) + 2


def test_fixed_malformed_lines_with_placeholders_match_reference():
    nodes, events, stats = assert_same_parse(malformed_corpus(),
                                             synthesize_dangling=True)
    assert stats.dangling_events == 0
    assert stats.synthesized_nodes == 2
    assert {"ghost", "ghost-p"} <= {n.id for n in nodes}
    # The accepted events, plus the two whose endpoints became placeholders.
    accepted = sum(counter == "accepted_events" for _, counter in MALFORMED)
    assert len(events) == stats.accepted_events == accepted + 2


def test_bytes_lines_parse_like_text():
    lines = malformed_corpus()
    assert (parse_stream([line.encode() for line in lines])
            == parse_stream(lines))


@pytest.mark.parametrize("synthesize", [False, True])
def test_generated_corpora_match_reference(synthesize):
    rng = random.Random(606)
    for trial in range(80):
        if trial % 2:
            nodes, events = edge_graph_records(rng)
        else:
            nodes, events = random_graph_records(rng, allow_self_loops=True)
        lines = record_lines(nodes, events)
        if trial % 3 == 0:
            # Drop some declarations so dangling handling is exercised, and
            # repeat others so duplicates are.
            lines = lines[1::2] + lines[:4]
        rng.shuffle(lines)
        assert_same_parse(lines, synthesize_dangling=synthesize)


# JSON values of every type, for fields the mutations overwrite.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=6)
    | st.sampled_from(["", "p0", "f0", "n0", "read", "clone", "sendto",
                       "event", "process", "file", "netflow"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)

IDS = st.sampled_from(["p0", "p1", "f0", "f1", "n0", "n1"])


@st.composite
def valid_records(draw):
    kind = draw(st.sampled_from(["process", "file", "netflow", "event"]))
    ts = draw(st.integers(min_value=-2, max_value=2 ** 64))
    if kind == "event":
        return {"kind": kind, "ts": ts, "subject": draw(IDS),
                "object": draw(IDS),
                "syscall": draw(st.sampled_from(
                    ["read", "clone", "sendto", "execve", "mmap"]))}
    record = {"kind": kind, "id": draw(IDS), "ts": ts}
    if kind == "process":
        record["cmdline"] = draw(st.text(max_size=8))
    elif kind == "file":
        record["path"] = draw(st.text(max_size=8))
    else:
        record.update(raddr=draw(st.text(max_size=8)),
                      rport=draw(st.integers(0, 65535)),
                      laddr="10.0.0.1", lport=draw(st.integers(0, 65535)))
    return record


@st.composite
def mutated_lines(draw):
    record = draw(valid_records())
    action = draw(st.sampled_from(
        ["keep", "keep", "overwrite", "delete", "truncate", "prefix"]))
    if action == "overwrite":
        key = draw(st.sampled_from(sorted(record) + ["kind", "extra"]))
        record[key] = draw(JSON_VALUES)
    elif action == "delete":
        del record[draw(st.sampled_from(sorted(record)))]
    line = json.dumps(record, ensure_ascii=draw(st.booleans()))
    if action == "truncate":
        line = line[:draw(st.integers(0, len(line)))]
    elif action == "prefix":
        line = draw(st.sampled_from(
            ["\ufeff", " ", "\t", "x", "\u00a0", "\x1c"])) + line
    return line


def check_total(lines, synthesize):
    nodes, events, stats = assert_same_parse(lines, synthesize)
    non_blank = sum(1 for line in lines if line.strip())
    assert tally(stats) == non_blank
    assert len(nodes) == stats.accepted_nodes + stats.synthesized_nodes
    assert len(events) == stats.accepted_events


@given(st.lists(st.text(max_size=40), max_size=12), st.booleans())
def test_fuzz_arbitrary_text_lines(lines, synthesize):
    check_total(lines, synthesize)


@given(st.lists(mutated_lines(), max_size=25), st.booleans())
def test_fuzz_mutated_records(lines, synthesize):
    check_total(lines, synthesize)


@given(st.lists(st.binary(max_size=30)
                | mutated_lines().map(lambda line: line.encode()),
                max_size=15),
       st.booleans())
def test_fuzz_arbitrary_bytes_lines(raw, synthesize):
    """Undecodable lines are malformed; the rest parse as their text."""
    decoded, undecodable = [], 0
    for line in raw:
        try:
            decoded.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            undecodable += 1
    nodes, events, stats = parse_stream(raw, synthesize_dangling=synthesize)
    want_nodes, want_events, want = reference_parse_stream(
        decoded, synthesize_dangling=synthesize)
    want.malformed_lines += undecodable
    assert (nodes, events, stats) == (want_nodes, want_events, want)
    assert tally(stats) == undecodable + sum(1 for s in decoded if s.strip())
