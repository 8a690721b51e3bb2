import json
import random

import numpy as np
import pytest

from provprune import label
from provprune.embed import effective_threshold
from provprune.ingest import NodeRecord
from provprune.label import (
    BENIGN,
    MALICIOUS,
    LabelTable,
    MaliciousNodeList,
    build_malicious_list,
    label_node_sets,
    label_table_from_json,
    parse_ioc_file,
)
from provprune.nodeset import NodeSet

from oracles import (
    Event,
    chain_batch,
    graph_of,
    random_graph_records,
    reference_ioc_matches,
    reference_table_json,
    rewritten_sidecar,
    sequential_labels,
    table_json,
    traced_peak,
    underflowing_twin,
    window_edge_features,
)


def make_set(ids, feature):
    feat = np.asarray(feature, dtype=np.float64)
    return NodeSet(node_ids=tuple(ids), edge_indices=tuple(range(len(ids) - 1)),
                   feature=feat)


def label_sets(sets, malicious, threshold=1.0):
    """label_node_sets over a batch holding the given sets."""
    return label_node_sets(chain_batch(sets, dim=8), malicious,
                           threshold=threshold)


def unit(direction, dim=8):
    v = np.zeros(dim)
    v[direction] = 1.0
    return v


def test_ioc_file_parsing(tmp_path):
    path = tmp_path / "iocs.tsv"
    path.write_text("# note\n"
                    "ioc\t/tmp/evil.sh\n"
                    "\n"
                    "id\tnode-42\n"
                    "ioc\t198.51.100.7:1337\n")
    iocs, explicit = parse_ioc_file(path)
    assert iocs == ["/tmp/evil.sh", "198.51.100.7:1337"]
    assert explicit == ["node-42"]


def test_ioc_file_rejects_unknown_directive(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("hash\tdeadbeef\n")
    with pytest.raises(ValueError):
        parse_ioc_file(path)


def test_ioc_file_rejects_missing_tab(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("ioc /tmp/evil\n")
    with pytest.raises(ValueError):
        parse_ioc_file(path)


def five_node_graph():
    nodes = [
        NodeRecord(id="pA", kind="process", cmdline="loader"),
        NodeRecord(id="pB", kind="process", cmdline="viewer"),
        NodeRecord(id="fEvil", kind="file", path="/opt/payload.bin"),
        NodeRecord(id="fLog", kind="file", path="/var/log/app"),
        NodeRecord(id="pC", kind="process", cmdline="idle"),
    ]
    events = [
        Event(subject="pA", object="fEvil", syscall="read", ts=1),
        Event(subject="pB", object="fEvil", syscall="read", ts=2),
        Event(subject="pB", object="fLog", syscall="write", ts=3),
    ]
    return graph_of(nodes, events)


def test_empty_inputs_give_empty_list():
    out = build_malicious_list(five_node_graph(), [], [])
    assert out.ids == set()
    assert out.warnings == []


def test_ioc_match_expands_one_hop():
    """One infected file read by two processes flags exactly three nodes."""
    out = build_malicious_list(five_node_graph(), ["payload.bin"], [])
    assert out.ids == {"fEvil", "pA", "pB"}
    assert out.warnings == []


def test_expansion_is_single_hop():
    # pB touches fEvil and fLog; fLog must stay clean.
    out = build_malicious_list(five_node_graph(), ["payload.bin"], [])
    assert "fLog" not in out.ids


def test_explicit_ids_do_not_expand():
    out = build_malicious_list(five_node_graph(), [], ["fEvil"])
    assert out.ids == {"fEvil"}


def test_unmatched_ioc_warned_not_fatal():
    out = build_malicious_list(five_node_graph(), ["definitely-absent"], [])
    assert out.ids == set()
    assert any("definitely-absent" in w for w in out.warnings)


def test_unknown_explicit_id_warned():
    out = build_malicious_list(five_node_graph(), [], ["ghost"])
    assert out.ids == set()
    assert any("ghost" in w for w in out.warnings)


def test_ioc_inside_a_matched_text_is_not_warned():
    """An IoC is warned only when no node's text contains it: one that
    another IoC earlier in the list already matched still counts."""
    out = build_malicious_list(five_node_graph(), ["payload", "payload.bin"],
                               [])
    assert out.ids == {"fEvil", "pA", "pB"}
    assert out.warnings == []


def test_ioc_matching_equals_per_node_scan():
    """Shared texts, overlapping and repeated IoCs: a node is flagged when
    its text contains any IoC, and an IoC is warned, in list order, when no
    node's text contains it."""
    rng = random.Random(88)
    pool = ["cmd-1", "cmd", "/data/1", "1", "", "/data/", "10.1.2.3:",
            "absent"]
    for _ in range(40):
        g = graph_of(*random_graph_records(rng))
        iocs = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        matched, unmatched = reference_ioc_matches(g, iocs)
        out = build_malicious_list(g, iocs, [])
        assert out.warnings == [f"ioc matched no nodes: {ioc!r}"
                                for ioc in unmatched]
        assert set(matched) <= out.ids


def test_classify_set_rules():
    mal = MaliciousNodeList(ids={"x"})
    dirty = make_set(["a", "x", "b", "c", "d"], unit(0))
    clean = make_set(["a", "e", "b", "c", "d"], unit(0))
    all_bad = make_set(["x"] * 1 + ["y", "z", "w", "v"], unit(0))
    mal_all = MaliciousNodeList(ids={"x", "y", "z", "w", "v"})
    assert label_sets([dirty], mal).polarity == [MALICIOUS]
    assert label_sets([clean], mal).polarity == [BENIGN]
    assert label_sets([all_bad], mal_all).polarity == [MALICIOUS]


def test_identical_features_share_one_label():
    sets = [make_set(["a", "b"], unit(1)), make_set(["c", "d"], unit(1))]
    table = label_sets(sets, MaliciousNodeList(), threshold=1.0)
    assert table.labels == table.polarity == [BENIGN]
    assert table.member_count == [2]
    assert table.assignment == [0, 0]


def test_scaled_feature_still_matches_at_threshold_one():
    sets = [make_set(["a", "b"], unit(2)),
            make_set(["c", "d"], 3.0 * unit(2))]
    table = label_sets(sets, MaliciousNodeList(), threshold=1.0)
    assert len(table.labels) == 1


def test_order_sensitivity_of_polarity():
    """A malicious first member poisons the label for identical successors."""
    mal = MaliciousNodeList(ids={"a"})
    sets = [make_set(["a", "b"], unit(3)), make_set(["c", "d"], unit(3))]
    table = label_sets(sets, mal, threshold=1.0)
    assert table.polarity == [MALICIOUS]
    assert table.member_count == [2]


def test_distinct_features_distinct_labels():
    sets = [make_set([f"n{i}", f"m{i}"], unit(i)) for i in range(6)]
    table = label_sets(sets, MaliciousNodeList(), threshold=1.0)
    assert len(table.labels) == 6
    assert table.assignment == list(range(6))
    assert table.representatives.tolist() == [
        unit(i).tolist() for i in range(6)]


def test_representative_is_first_member_frozen():
    sets = [make_set(["a", "b"], 2.0 * unit(4)),
            make_set(["c", "d"], 5.0 * unit(4))]
    table = label_sets(sets, MaliciousNodeList(), threshold=1.0)
    assert table.representatives.tolist() == [(2.0 * unit(4)).tolist()]


def test_representatives_share_no_memory_with_features():
    """The table holds copies of its founders' rows, so it keeps no chain's
    feature matrix alive, and neither side can change the other."""
    sets = chain_batch([make_set([f"x{i}", f"y{i}"], unit(i % 3))
                        for i in range(7)], dim=8)
    table = label_node_sets(sets, MaliciousNodeList())
    assert table.assignment == [0, 1, 2, 0, 1, 2, 0]
    assert np.array_equal(table.representatives, sets.features[:3])
    assert not np.shares_memory(table.representatives, sets.features)


def test_lower_threshold_groups_more():
    a = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    b = np.array([0.9, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    sets = [make_set(["a", "b"], a), make_set(["c", "d"], b)]
    strict = label_sets(sets, MaliciousNodeList(), threshold=1.0)
    loose = label_sets(sets, MaliciousNodeList(), threshold=0.9)
    assert len(strict.labels) == 2
    assert len(loose.labels) == 1


def test_tie_goes_to_earliest_label():
    """Two orthogonal reps both sit at cosine 0 from a third axis; the
    earlier label wins the tie when the cutoff admits zero."""
    sets = [make_set(["a", "b"], unit(0)), make_set(["c", "d"], unit(1)),
            make_set(["e", "f"], unit(2))]
    table = label_sets(sets, MaliciousNodeList(), threshold=0.0)
    assert table.assignment == [0, 0, 0]


def test_zero_vector_sets_always_mint():
    z = np.zeros(8)
    sets = [make_set(["a", "b"], z), make_set(["c", "d"], z),
            make_set(["e", "f"], unit(0))]
    table = label_sets(sets, MaliciousNodeList(), threshold=0.5)
    assert table.zero_vector_sets == 2
    assert len(table.labels) == 3


def test_zero_vector_rep_matches_only_when_cutoff_admits_zero():
    z = np.zeros(8)
    sets = [make_set(["a", "b"], z), make_set(["c", "d"], unit(1))]
    at_zero = label_sets(sets, MaliciousNodeList(), threshold=0.0)
    assert at_zero.assignment == [0, 0]
    above_zero = label_sets(sets, MaliciousNodeList(), threshold=0.5)
    assert above_zero.assignment == [0, 1]


def test_threshold_validation():
    with pytest.raises(ValueError):
        label_sets([], MaliciousNodeList(), threshold=1.5)


def test_unfeaturized_set_rejected():
    bare = NodeSet(node_ids=("a", "b"), edge_indices=(0,))
    with pytest.raises(ValueError):
        label_sets([bare], MaliciousNodeList())


def test_assignment_totality_random():
    rng = random.Random(606)
    pool = [unit(i) for i in range(8)]
    sets = []
    for i in range(200):
        feat = rng.choice(pool) * rng.choice([1.0, 2.0])
        sets.append(make_set([f"x{i}", f"y{i}"], feat))
    mal = MaliciousNodeList(ids={"x3", "x77"})
    table = label_sets(sets, mal, threshold=1.0)
    assert len(table.assignment) == len(sets)
    assert table.member_count == np.bincount(table.assignment).tolist()
    assert sum(table.member_count) == len(sets)
    assert set(table.assignment) == set(range(len(table.labels)))


def test_threshold_monotone_label_count():
    rng = random.Random(607)
    sets = []
    for i in range(60):
        feat = np.array([rng.gauss(0, 1) for _ in range(8)])
        sets.append(make_set([f"x{i}", f"y{i}"], feat))
    counts = []
    for threshold in (1.0, 0.95, 0.8, 0.5, 0.0, -1.0):
        table = label_sets(sets, MaliciousNodeList(), threshold=threshold)
        counts.append(len(table.labels))
    assert counts == sorted(counts, reverse=True)


def test_polarity_sound_at_creation():
    rng = random.Random(608)
    mal = MaliciousNodeList(ids={f"x{i}" for i in range(0, 40, 7)})
    sets = []
    for i in range(40):
        feat = np.array([rng.gauss(0, 1) for _ in range(8)])
        sets.append(make_set([f"x{i}", f"y{i}"], feat))
    table = label_sets(sets, mal, threshold=1.0)
    first_member = {}
    for idx, label_id in enumerate(table.assignment):
        first_member.setdefault(label_id, idx)
    for label_id, kind in enumerate(table.polarity):
        founder = sets[first_member[label_id]]
        expected = MALICIOUS if set(founder.node_ids) & mal.ids else BENIGN
        assert kind == expected


def test_table_json_equals_whole_payload_dump():
    rng = random.Random(611)
    sets = [make_set([f"x{i}", f"y{i}"],
                     np.array([rng.gauss(0, 1) for _ in range(8)]))
            for i in range(30)]
    table = label_sets(sets, MaliciousNodeList(ids={"x3"}), threshold=0.5)
    table.zero_vector_sets = 2
    payload = {
        "labels": [{"label_id": i, "polarity": table.polarity[i],
                    "member_count": table.member_count[i],
                    "created_seq": i,
                    "representative": table.representatives[i].tolist()}
                   for i in range(len(table.labels))],
        "assignment": table.assignment,
        "zero_vector_sets": table.zero_vector_sets,
    }
    assert len(table.labels) > 1
    assert table_json(table) == json.dumps(payload, sort_keys=True,
                                         separators=(",", ":"))
    assert table_json(LabelTable()) == \
        '{"assignment":[],"labels":[],"zero_vector_sets":0}'


def test_labeling_deterministic_bytes():
    rng = random.Random(609)
    sets = []
    for i in range(100):
        feat = np.array([rng.gauss(0, 1) for _ in range(8)])
        sets.append(make_set([f"x{i}", f"y{i}"], feat))
    sets_twice = [make_set(list(s.node_ids), np.array(s.feature))
                  for s in sets]
    a = table_json(label_sets(sets, MaliciousNodeList(), threshold=0.7))
    b = table_json(label_sets(sets_twice, MaliciousNodeList(),
                              threshold=0.7))
    assert a == b


def test_write_json_streams_the_to_json_bytes(tmp_path):
    rng = random.Random(612)
    sets = [make_set([f"x{i}", f"y{i}"],
                     np.array([rng.gauss(0, 1) for _ in range(8)]))
            for i in range(25)]
    table = label_sets(sets, MaliciousNodeList(ids={"x4"}), threshold=0.3)
    assert table_json(table) == reference_table_json(table)
    table.save(tmp_path / "labels.json", STAMP)
    assert (tmp_path / "labels.json").read_text(encoding="utf-8") == \
        reference_table_json(table) + "\n"


@pytest.mark.parametrize("chunk", [1, 3, label.WRITE_LABELS])
def test_write_json_writes_special_floats_as_json_dumps(monkeypatch, chunk):
    """Signed zeros, NaNs of any payload, infinities, subnormals and the
    neighbours of the magnitudes where json.dumps turns to exponent
    notation come out as json.dumps writes them, across chunk
    boundaries."""
    monkeypatch.setattr(label, "WRITE_LABELS", chunk)
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64).view(np.float64)
    edges = [float(x) for edge in (1e-4, 1e16) for x in (
        np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf))]
    specials = [0.0, -0.0, np.nan, *nans, np.inf, -np.inf, 5e-324,
                -2.2250738585072014e-308, 0.1, 1 / 3, 1e300,
                *edges, *(-x for x in edges)]
    rng = random.Random(625)
    reps = [np.zeros(6)]
    for _ in range(9):
        reps.append(np.array([rng.choice(specials) for _ in range(6)]))
    reps.append(reps[3].copy())
    table = LabelTable(
        polarity=[BENIGN if i % 3 else MALICIOUS for i in range(len(reps))],
        member_count=[1 + i % 4 for i in range(len(reps))],
        representatives=np.array(reps),
        assignment=list(range(len(reps))), zero_vector_sets=1)
    assert table_json(table) == reference_table_json(table)
    assert table_json(LabelTable()) == reference_table_json(LabelTable())


def mixed_features(rng, count, dim=4):
    """Noisy copies of a few directions, exact and scaled duplicates of
    earlier features, and zero vectors."""
    bases = [np.array([rng.gauss(0, 1) for _ in range(dim)]) for _ in range(5)]
    out = []
    for i in range(count):
        roll = rng.random()
        if out and roll < 0.2:
            feat = np.array(rng.choice(out))
        elif out and roll < 0.3:
            feat = rng.choice([0.5, 3.0, 1e-3]) * rng.choice(out)
        elif roll < 0.35:
            feat = np.zeros(dim)
        else:
            feat = rng.choice(bases) + np.array(
                [rng.gauss(0, rng.choice([0.01, 0.3])) for _ in range(dim)])
        out.append(feat)
    return [make_set([f"x{i}", f"y{i}"], feat)
            for i, feat in enumerate(out)]


def assert_labels_match_sequential(sets, threshold, malicious_ids=()):
    malicious = MaliciousNodeList(ids=set(malicious_ids))
    got = label_sets(sets, malicious, threshold=threshold)
    want = sequential_labels(sets, malicious.ids,
                             effective_threshold(threshold))
    assert table_json(got) == table_json(want)
    return got


THRESHOLDS = [1.0, 0.999, 0.99, 0.9, 0.0, -1.0]


def edge_sets(rng, count, threshold, dim=6):
    return [make_set([f"x{i}", f"y{i}"], feat) for i, feat in
            enumerate(window_edge_features(rng, count, dim, threshold))]


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_blocked_labeling_matches_sequential_reference(threshold):
    block = label.LABEL_BLOCK
    rng = random.Random(613)
    for count in (0, 1, block - 1, block, block + 1, 3 * block + 17):
        for sets in (mixed_features(rng, count),
                     edge_sets(rng, count, threshold)):
            assert_labels_match_sequential(
                sets, threshold,
                malicious_ids={f"x{i}" for i in range(0, count, 9)})


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_blocked_labeling_with_small_blocks_and_chunks(monkeypatch, threshold):
    """Tiny blocks and representative chunks put every tie and near-miss
    across block and chunk boundaries."""
    monkeypatch.setattr(label, "LABEL_BLOCK", 5)
    monkeypatch.setattr(label, "REP_CHUNK", 3)
    rng = random.Random(614)
    for count in (4, 5, 6, 40, 203):
        assert_labels_match_sequential(mixed_features(rng, count), threshold)
        assert_labels_match_sequential(edge_sets(rng, count, threshold),
                                       threshold)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_features_match_sequential_reference():
    rng = random.Random(615)
    sets = mixed_features(rng, 600)
    sets[300] = make_set(["nan0", "nan1"], np.array([np.nan, 1.0, 0.0, 0.0]))
    sets[450] = make_set(["inf0", "inf1"], np.array([np.inf, 1.0, 0.0, 0.0]))
    for threshold in THRESHOLDS:
        assert_labels_match_sequential(sets, threshold)


@pytest.mark.parametrize("tiny_first", [False, True])
def test_underflowing_norm_takes_the_exact_scan(tiny_first):
    """A row longer than unit can reach the cutoff from far outside the
    candidate window, so labeling falls back to the exact scan."""
    tiny, twin = underflowing_twin(np.random.default_rng(618), 8)
    feats = [tiny, twin] if tiny_first else [twin, tiny]
    for before in (0, label.LABEL_BLOCK):
        filler = [unit(i % 8) * (2 + i) for i in range(before)]
        sets = [make_set([f"x{i}", f"y{i}"], feat)
                for i, feat in enumerate(filler + feats)]
        table = assert_labels_match_sequential(sets, 1.0)
        assert table.assignment[-1] == table.assignment[-2]


def test_scan_work_at_threshold_one_stays_near_linear(monkeypatch):
    """Distinct random features at threshold 1.0 meet almost no label
    inside their windows: a few similarities per chain, where a scan of
    every label computes count**2 / 2."""
    computed = []

    def counting(name, count):
        scan = getattr(label._RepMatrix, name)

        def counted(self, *args):
            out = scan(self, *args)
            computed.append(count(self, args, out))
            return out
        monkeypatch.setattr(label._RepMatrix, name, counted)

    counting("_top_two_of_all", lambda self, args, out: args[0].shape[0]
             * self._count)
    counting("_top_two_in_windows", lambda self, args, out: args[3])
    counting("recent_similarities", lambda self, args, out: out.size)
    counting("best_match", lambda self, args, out: self._count)
    rng = np.random.default_rng(619)
    for count in (2000, 8000):
        computed.clear()
        feats = rng.standard_normal((count, 16))
        sets = [make_set([f"x{i}", f"y{i}"], feat)
                for i, feat in enumerate(feats)]
        table = label_node_sets(chain_batch(sets, dim=16), MaliciousNodeList())
        assert len(table.labels) == count
        assert sum(computed) <= 4 * count


def test_labeling_holds_one_copy_of_each_representative():
    """Every chain of the batch mints. The scan's row store is allocated
    once, for as many rows as the batch has chains, and freed before the
    representatives are copied out, so labeling holds about one copy of the
    features at a time: under 2.2 times their bytes (1.44 measured). A
    store grown by doubling would hold its 4,096 old rows beside 8,192 new
    ones for the 4,097th label, about 3.2 times."""
    rng = np.random.default_rng(642)
    feats = rng.standard_normal((4097, 64))
    batch = chain_batch([make_set([f"x{i}", f"y{i}"], feat)
                         for i, feat in enumerate(feats)])
    table, peak = traced_peak(label_node_sets, batch, MaliciousNodeList())
    assert len(table.polarity) == len(feats)
    assert peak < 2.2 * batch.features.nbytes


def near_tie_sets(positions, lead):
    """Two labels equally close to a later query, give or take `lead`.

    a and b sit at cosine 0.95 from e0 on opposite sides, so they stay two
    labels at threshold 0.9; the query e0 then scores a and b within 1e-13
    of each other. Fillers are orthogonal to all three.
    """
    c = 0.95
    s = np.sqrt(1.0 - c * c)
    a = np.array([c, s, 0.0, 0.0, 0.0, 0.0])
    b = np.array([c + lead, -s, 0.0, 0.0, 0.0, 0.0])
    query = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    count = max(positions) + 3
    filler = np.eye(6)[2:]
    feats = [filler[i % 4] * (1 + i) for i in range(count)]
    for pos, feat in zip(positions, (a, b, query)):
        feats[pos] = feat
    return [make_set([f"x{i}", f"y{i}"], feat)
            for i, feat in enumerate(feats)]


@pytest.fixture
def exact_scans(monkeypatch):
    """Records each call of the exact scan over every label."""
    calls = []
    exact = label._RepMatrix.best_match

    def counted(self, normalized):
        calls.append(1)
        return exact(self, normalized)

    monkeypatch.setattr(label._RepMatrix, "best_match", counted)
    return calls


@pytest.mark.parametrize("lead", [0.0, 4e-14, -4e-14])
def test_near_tie_across_block_boundary_takes_exact_scan(exact_scans, lead):
    block = label.LABEL_BLOCK
    for positions in ((block - 2, block - 1, block),     # both before
                      (block - 1, block, block + 1),     # one each side
                      (block, block + 1, block + 2)):    # both inside
        exact_scans.clear()
        sets = near_tie_sets(positions, lead)
        table = assert_labels_match_sequential(sets, 0.9)
        a, b, query = (table.assignment[p] for p in positions)
        assert a != b
        assert query == (b if lead > 0 else a)
        assert exact_scans


@pytest.mark.parametrize("lead", [0.0, 1e-9, -1e-9])
def test_near_tie_inside_a_window_takes_exact_scan(exact_scans, lead):
    """At threshold 1.0 two labels 6e-5 apart both reach a query halfway
    between them, within 3e-14 of each other; scored within its window,
    the query still goes to the exact scan."""
    block = label.LABEL_BLOCK
    query = np.array([0.6, 0.8, 0.0, 0.0, 0.0, 0.0])
    off = np.array([0.8, -0.6, 0.0, 0.0, 0.0, 0.0])
    a, b = query + 3e-5 * off, query - (3e-5 + lead) * off
    # Distinct labels fill both blocks, so the windows hold a tiny share
    # of all pairs and the query meets a and b in its own window.
    filler = np.random.default_rng(624).normal(size=(2 * block, 6))
    for positions in ((block - 2, block - 1, block),
                      (block, block + 1, block + 2)):
        exact_scans.clear()
        feats = list(filler)
        for pos, feat in zip(positions, (a, b, query)):
            feats[pos] = feat
        sets = [make_set([f"x{i}", f"y{i}"], feat)
                for i, feat in enumerate(feats)]
        table = assert_labels_match_sequential(sets, 1.0)
        first, second, got = (table.assignment[p] for p in positions)
        assert first != second and got in (first, second)
        assert exact_scans


@pytest.mark.parametrize("offset", [5e-13, 0.0, -5e-13])
def test_near_cutoff_takes_exact_scan(exact_scans, offset):
    """A query whose best cosine sits within the margin of the cutoff is
    decided by the exact scan, on whichever side of a block it falls."""
    block = label.LABEL_BLOCK
    c = 0.9 + offset
    rep = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    query = np.array([c, np.sqrt(1.0 - c * c), 0.0, 0.0, 0.0])
    filler = np.eye(5)[2:]
    for rep_at, query_at in ((block - 1, block), (block, block + 1)):
        exact_scans.clear()
        feats = [filler[i % 3] * (1 + i) for i in range(block + 2)]
        feats[rep_at], feats[query_at] = rep, query
        sets = [make_set([f"x{i}", f"y{i}"], feat)
                for i, feat in enumerate(feats)]
        table = assert_labels_match_sequential(sets, 0.9)
        joined = table.assignment[query_at] == table.assignment[rep_at]
        if offset:
            assert joined == (offset > 0)
        assert exact_scans


STAMP = {"format": 2, "model": "hash-ngrams", "dim": 6, "seed": 97,
         "set_size": 5, "cap_per_anchor": 8, "threshold": 1.0}


def saved_table(path, table, stamp=STAMP):
    """Save table as labels.json at path plus its sidecar; return the
    table's text."""
    table.save(path, stamp)
    return path.read_text(encoding="utf-8")


def sidecar_tables():
    """Tables with zero-vector sets, signed zeros, NaNs of other payloads,
    infinities, both polarities, one label and no labels."""
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64).view(np.float64)
    rng = np.random.default_rng(640)
    rows = rng.normal(size=(9, 6))
    rows[0] = 0.0
    rows[1, :3] = -0.0
    rows[2, :2] = nans
    rows[3, 1:3] = np.inf, -np.inf
    rows[4] = -0.0
    mixed = LabelTable(
        polarity=[MALICIOUS if i % 3 else BENIGN for i in range(9)],
        member_count=[1 + i % 4 for i in range(9)], representatives=rows,
        assignment=[*range(9), *(i for i in range(9) for _ in range(i % 4))],
        zero_vector_sets=2)
    one = LabelTable(polarity=[BENIGN], member_count=[3],
                     representatives=np.array([[-0.0, 1.5]]),
                     assignment=[0, 0, 0])
    return {"mixed": mixed, "one": one, "none": LabelTable()}


@pytest.mark.parametrize("name", ["mixed", "one", "none"])
def test_sidecar_gives_the_json_table(tmp_path, name):
    """From a sidecar bound to its bytes, label_table_from_json gives the
    table that was written, field by field, representatives bit for bit,
    NaN payloads included."""
    path = tmp_path / "labels.json"
    want = sidecar_tables()[name]
    text = saved_table(path, want)
    got, stamp = label_table_from_json(text, label.sidecar_path(path))
    assert type(got) is LabelTable
    assert stamp == STAMP
    assert label.sidecar_path(path) == tmp_path / "labels.npz"
    assert got.assignment == want.assignment
    assert type(got.zero_vector_sets) is int
    assert got.zero_vector_sets == want.zero_vector_sets
    assert got.labels == got.polarity == want.polarity
    assert got.member_count == want.member_count
    assert all(type(v) is str for v in got.polarity)
    assert all(type(v) is int for v in got.member_count + got.assignment)
    assert got.representatives.dtype == np.float64
    assert got.representatives.shape == want.representatives.shape
    assert got.representatives.view(np.uint64).tolist() == \
        want.representatives.view(np.uint64).tolist()
    assert table_json(got) + "\n" == text


def test_sidecar_bytes_are_deterministic(tmp_path):
    table = sidecar_tables()["mixed"]
    saved_table(tmp_path / "labels.json", table)
    first = (tmp_path / "labels.npz").read_bytes()
    saved_table(tmp_path / "labels.json", table)
    assert (tmp_path / "labels.npz").read_bytes() == first


def spoiled_member(**members):
    return lambda path, data: rewritten_sidecar(path, **members)


@pytest.mark.parametrize("spoil, why", [
    (lambda p, d: p.unlink(), "missing"),
    (lambda p, d: p.write_bytes(d[: len(d) // 2]), "unreadable"),
    (lambda p, d: p.write_bytes(d[:-30]), "unreadable"),
    (lambda p, d: p.write_bytes(b"not a table\n" * 50), "unreadable"),
    (lambda p, d: p.write_bytes(b""), "unreadable"),
    (lambda p, d: (p.unlink(), p.mkdir()), "unreadable"),
    (spoiled_member(representatives=np.array([[1.0, "x"]], dtype=object)),
     "unreadable"),
    (spoiled_member(representatives=np.zeros(9)), "unreadable"),
    (spoiled_member(representatives=np.zeros((9, 6), dtype=np.float32)),
     "unreadable"),
    (spoiled_member(polarity=np.array(["benign"])), "unreadable"),
    (spoiled_member(polarity=np.zeros(9, dtype=np.int64)), "unreadable"),
    (spoiled_member(polarity=np.array([["benign"]] * 9)), "unreadable"),
    (spoiled_member(representatives=np.zeros((8, 6))), "unreadable"),
    (spoiled_member(assignment=np.zeros(3)), "unreadable"),
    (spoiled_member(assignment=np.zeros((3, 1), dtype=np.int64)),
     "unreadable"),
    (spoiled_member(assignment=np.zeros(21, dtype=np.uint64)), "unreadable"),
    (spoiled_member(assignment=np.zeros(21, dtype=bool)), "unreadable"),
    (spoiled_member(zero_vector_sets=np.array([2])), "unreadable"),
    (spoiled_member(zero_vector_sets=np.array(2.0)), "unreadable"),
    (spoiled_member(stamp=np.array("[1]")), "unreadable"),
    (spoiled_member(stamp=np.array("{")), "unreadable"),
    (spoiled_member(sha256=np.array("0" * 64)), "digest mismatch"),
    (spoiled_member(polarity=np.array(["benign"] * 8 + ["neutral"])),
     "unreadable"),
    *((spoiled_member(**{name: None}), "unreadable") for name in (
        "sha256", "stamp", "polarity", "representatives", "assignment",
        "zero_vector_sets")),
    (spoiled_member(assignment=np.full(21, 1_000_000)), "unreadable"),
    (spoiled_member(assignment=np.array([*range(9), 9] + [0] * 11)),
     "unreadable"),
    (spoiled_member(assignment=np.array([-1, *range(1, 9)] + [0] * 12)),
     "unreadable"),
    # Refused before any count is taken: counting would need 2**62 bins.
    (spoiled_member(assignment=np.array([*range(8), 2 ** 62] + [0] * 12)),
     "unreadable"),
    (spoiled_member(zero_vector_sets=np.array(-1)), "unreadable"),
    (spoiled_member(zero_vector_sets=np.array(22)), "unreadable"),
    # Every entry names a label, but no labeling gives the assignment: label
    # 1 is never founded, labels are founded out of order, the last label
    # has no member, and nine labels have no chain.
    (spoiled_member(assignment=np.array([0, *range(2, 9), 0] + [0] * 12)),
     "unreadable"),
    (spoiled_member(assignment=np.array([1, 0, *range(2, 9)] + [0] * 12)),
     "unreadable"),
    (spoiled_member(assignment=np.array([*range(8)] + [0] * 13)),
     "unreadable"),
    (spoiled_member(assignment=np.zeros(0, dtype=np.int64),
                    zero_vector_sets=np.array(0)), "unreadable"),
])
def test_sidecar_that_fails_a_check_leaves_the_json(tmp_path, spoil, why):
    """A sidecar that fails a check is refused, naming it and why: the
    table is never read from the JSON instead."""
    path = tmp_path / "labels.json"
    text = saved_table(path, sidecar_tables()["mixed"])
    sidecar = label.sidecar_path(path)
    spoil(sidecar, sidecar.read_bytes())
    with pytest.raises(ValueError) as refused:
        label_table_from_json(text, sidecar)
    assert str(refused.value) == f"label table {sidecar}: {why}; rerun label"


def test_sidecar_arrays_that_agree_are_used(tmp_path):
    """Each consistency check admits its bounds: every chain a zero vector,
    and an assignment rewritten alone, whose counts become the member
    counts."""
    path = tmp_path / "labels.json"
    text = saved_table(path, sidecar_tables()["mixed"])
    sidecar = label.sidecar_path(path)
    rewritten_sidecar(sidecar, zero_vector_sets=np.array(21))
    assert label_table_from_json(text, sidecar)[0].zero_vector_sets == 21
    assignment = [*range(9), *[8] * 12]
    rewritten_sidecar(sidecar, assignment=np.array(assignment))
    got, _ = label_table_from_json(text, sidecar)
    assert (got.assignment, got.member_count) == (assignment, [1] * 8 + [13])


def test_sidecar_of_other_bytes_is_not_used(tmp_path):
    """One polarity changed in labels.json: its sidecar no longer matches."""
    path = tmp_path / "labels.json"
    text = saved_table(path, sidecar_tables()["mixed"])
    edited = text.replace('"polarity":"benign"', '"polarity":"malicious"', 1)
    assert edited != text
    sidecar = label.sidecar_path(path)
    with pytest.raises(ValueError) as refused:
        label_table_from_json(edited, sidecar)
    assert str(refused.value) == \
        f"label table {sidecar}: digest mismatch; rerun label"
    assert label_table_from_json(text, sidecar)[1] == STAMP


def test_sidecar_write_holds_no_second_table(tmp_path):
    """The sidecar is written from the table's own rows, a few at a time,
    and binds the digest it is given: the write never holds a second copy
    of the representatives, let alone the whole file."""
    rng = np.random.default_rng(641)
    reps = rng.normal(size=(8192, 64))
    table = LabelTable(polarity=[BENIGN] * 8192, member_count=[1] * 8192,
                       representatives=reps, assignment=list(range(8192)))
    path = tmp_path / "labels.json"
    table.save(path, STAMP)
    assert path.stat().st_size > 2 * reps.nbytes
    _, peak = traced_peak(table._write_sidecar, path, STAMP,
                          label.file_sha256(path))
    assert peak < reps.nbytes / 4
    # The load hashes the text a block at a time: encoding it whole would
    # hold len(text) bytes on top of the arrays.
    text = path.read_text()
    (back, stamp), peak = traced_peak(label_table_from_json, text,
                                      tmp_path / "labels.npz")
    assert peak < len(text)
    assert stamp == STAMP
    assert np.array_equal(back.representatives, reps)
