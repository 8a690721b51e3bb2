import math
import random
import statistics

import numpy as np
import pytest

from provprune.embed import (
    DEFAULT_DIM,
    HashNgramEmbedder,
    VectorFileEmbedder,
    candidate_window,
    compute_weights,
    effective_threshold,
    get_embedder,
    window_holds,
)
from provprune.ingest import NodeRecord, compute_corpus_stats

from oracles import (
    EDGE_TEXTS,
    Event,
    expected_weights,
    graph_of,
    python_cosine,
    random_graph_records,
    reference_embed_text,
    reference_weights,
    weight_for,
    weights_by_id,
)


def embed_text(text, dim=DEFAULT_DIM, seed=97):
    """A text's vector from a fresh embedder: nothing memoized."""
    return HashNgramEmbedder(dim, seed).embed(text)


@pytest.mark.parametrize("dim", [8, DEFAULT_DIM])
@pytest.mark.parametrize("seed", [97, 2 ** 70 + 5])
def test_memoized_slots_give_embed_text_bits(dim, seed):
    """A fresh embedder and one whose gram-slot memo has seen most n-grams
    before give the bits of one += per gram."""
    texts = EDGE_TEXTS + ["", "日本語のテキスト", "café au lait", "a" * 40,
                          "/usr/bin/python3", "/usr/bin/python3 -m x"]
    texts += [a + b for a in EDGE_TEXTS for b in EDGE_TEXTS[:4]]
    # Lone and reversed surrogates, which JSON escapes can carry into a text.
    texts += ["a\ud800b", "\udfff", "x\udc00\ud83dy", "\ud83d\ude00"]
    # A whole-text gram ("\x00" + padded) that is another text's n-gram:
    # "\x00<a>" memoized first as a whole text, "\x00<bc>" as an n-gram.
    texts += ["a", "x\x00<a>y", "x\x00<bc>", "bc"]
    emb = HashNgramEmbedder(dim=dim, seed=seed)
    for text in texts:
        want = reference_embed_text(text, dim, seed).tobytes()
        assert embed_text(text, dim, seed).tobytes() == want, text
        assert emb.embed(text).tobytes() == want, text


def test_embed_deterministic():
    a = embed_text("/usr/bin/python3 -m http.server")
    b = embed_text("/usr/bin/python3 -m http.server")
    assert (a == b).all()


def test_embed_unit_norm():
    for text in ("x", "/etc/passwd", "curl -s http://example.com", "日本語"):
        assert math.isclose(float(np.linalg.norm(embed_text(text))), 1.0,
                            rel_tol=1e-12)


def test_self_cosine_is_one():
    v = embed_text("tar -czf backup.tgz /home")
    assert python_cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_empty_text_sentinel():
    v = embed_text("")
    assert v[0] == 1.0
    assert float(np.abs(v[1:]).sum()) == 0.0


def test_dim_must_be_at_least_eight():
    with pytest.raises(ValueError):
        HashNgramEmbedder(dim=4)


def test_dim_configurable():
    assert embed_text("abc", dim=32).shape == (32,)
    assert embed_text("abc").shape == (DEFAULT_DIM,)


def test_seed_changes_vectors():
    a = embed_text("ls -la", seed=97)
    b = embed_text("ls -la", seed=98)
    assert not (a == b).all()


def test_distinct_texts_rarely_collide():
    """Frozen-seed spot check backing the documented collision bound."""
    rng = random.Random(20240815)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789/._-: "
    texts = set()
    while len(texts) < 10_000:
        n = rng.randint(1, 60)
        texts.add("".join(rng.choice(alphabet) for _ in range(n)))
    seen = set()
    dups = 0
    for t in sorted(texts):
        key = embed_text(t).tobytes()
        if key in seen:
            dups += 1
        seen.add(key)
    assert dups / len(texts) < 0.001


def test_port_number_affects_netflow_vector():
    same = 0
    for i in range(1000):
        a = embed_text(f"172.16.4.9:{2000 + i}")
        b = embed_text(f"172.16.4.9:{52000 + i}")
        if (a == b).all():
            same += 1
    assert same == 0


def test_node_vector_uses_kind_attribute():
    emb = HashNgramEmbedder()
    proc = NodeRecord(id="p", kind="process", cmdline="sshd -D")
    fil = NodeRecord(id="f", kind="file", path="sshd -D")
    assert (emb.node_vector(proc) == emb.node_vector(fil)).all()
    net = NodeRecord(id="n", kind="netflow", remote_addr="9.9.9.9",
                     remote_port=53)
    assert (emb.node_vector(net) == emb.embed("9.9.9.9:53")).all()


def test_empty_cmdline_gets_sentinel():
    emb = HashNgramEmbedder()
    proc = NodeRecord(id="p", kind="process", cmdline="")
    assert emb.node_vector(proc)[0] == 1.0


def corpus_fixture():
    nodes = {
        "p1": NodeRecord(id="p1", kind="process", cmdline="worker"),
        "f1": NodeRecord(id="f1", kind="file", path="/lib/libc.so"),
        "f2": NodeRecord(id="f2", kind="file", path="/tmp/out"),
        "n1": NodeRecord(id="n1", kind="netflow", remote_addr="8.8.8.8",
                         remote_port=53),
        "f_unused": NodeRecord(id="f_unused", kind="file", path="/idle"),
    }
    events = []
    events += [Event(subject="p1", object="f1", syscall="read", ts=i)
               for i in range(100)]
    events += [Event(subject="p1", object="f2", syscall="write", ts=i)
               for i in range(10)]
    events += [Event(subject="p1", object="n1", syscall="sendto", ts=i)
               for i in range(40)]
    return nodes, events


def weights_of(nodes, events):
    """compute_weights over the graph of the records, keyed by node id."""
    g = graph_of(nodes, events)
    return weights_by_id(g.table, compute_weights(
        compute_corpus_stats(g.events), g.table))


def test_saturated_entity_weight_exactly_zero():
    nodes, events = corpus_fixture()
    events = [e for e in events if e.object == "f1"]
    weights = weights_of(nodes.values(), events)
    assert weights["f1"] == 0.0


def test_weight_log_ratio_values():
    nodes, events = corpus_fixture()
    weights = weights_of(nodes.values(), events)
    assert weights["f1"] == pytest.approx(math.log(150 / 100), rel=1e-12)
    assert weights["f2"] == pytest.approx(math.log(15.0), rel=1e-12)
    assert weights["n1"] == pytest.approx(math.log(150 / 40), rel=1e-12)


def test_weight_hundredfold_ratio():
    """1000 events with the entity in 10 gives ln(100), about 4.60517."""
    n = {"p1": NodeRecord(id="p1", kind="process", cmdline="w"),
         "f1": NodeRecord(id="f1", kind="file", path="/a"),
         "f2": NodeRecord(id="f2", kind="file", path="/b")}
    events = [Event(subject="p1", object="f1", syscall="read", ts=i)
              for i in range(990)]
    events += [Event(subject="p1", object="f2", syscall="read", ts=i)
               for i in range(10)]
    weights = weights_of(n.values(), events)
    assert weights["f2"] == pytest.approx(4.605170185988092, rel=1e-12)
    # The natural-log choice pins the scale: a ratio of e means weight 1.
    assert math.log(math.e) == 1.0


def test_unused_entities_weigh_zero():
    nodes, events = corpus_fixture()
    weights = weights_of(nodes.values(), events)
    assert weight_for(weights, nodes["f_unused"]) == 0.0


def test_process_weight_is_pooled_mean():
    """Every process gets the fmean of the used entities' weights, bit for
    bit; an unused entity's 0 is not in the pool."""
    nodes, events = corpus_fixture()
    weights = weights_of(nodes.values(), events)
    pool = [weights["f1"], weights["f2"], weights["n1"]]
    assert weights["p1"] == statistics.fmean(pool)
    assert weights["p1"] == pytest.approx(sum(pool) / 3, rel=1e-12)
    assert min(pool) <= weights["p1"] <= max(pool)


def test_zero_event_corpus_rejected():
    with pytest.raises(ValueError, match="zero events"):
        weights_of([], [])


def test_compute_weights_reads_the_table_its_stats_counted():
    """A graph's node map reads as its table; a table that numbers the
    nodes otherwise is refused."""
    nodes, events = corpus_fixture()
    g = graph_of(nodes.values(), events)
    stats = compute_corpus_stats(g.events)
    assert np.array_equal(compute_weights(stats, g.nodes),
                          compute_weights(stats, g.table))
    other = graph_of(list(nodes.values())[::-1], events)
    with pytest.raises(ValueError, match="corpus stats number"):
        compute_weights(stats, other.table)


def test_weights_nonnegative_and_match_oracle_on_random_corpora():
    rng = random.Random(990)
    for _ in range(40):
        nodes, events = random_graph_records(rng)
        if not events:
            continue
        by_id = {n.id: n for n in nodes}
        g = graph_of(nodes, events)
        column = compute_weights(compute_corpus_stats(g.events), g.table)
        assert column.dtype == np.float64
        weights = weights_by_id(g.table, column)
        assert weights == reference_weights(events, by_id)
        want = expected_weights(events, by_id)
        for nid, expected in want.items():
            assert weights[nid] >= 0.0
            assert weights[nid] == pytest.approx(expected, rel=1e-12,
                                                 abs=1e-12)
        used = [weights[nid] for nid in want]
        for nid, node in by_id.items():
            if node.kind == "process" and used:
                assert min(used) <= weights[nid] <= max(used)
            elif nid not in want:
                assert weights[nid] == 0.0


def test_cosine_zero_vector_rule():
    z = np.zeros(8)
    v = np.ones(8)
    assert python_cosine(z, v) == 0.0
    assert python_cosine(z, z) == 0.0


@pytest.mark.parametrize("dim", [8, 64, 1000])
def test_candidate_window_holds_pairs_at_the_floor(dim):
    """Unit rows whose difference lies along the window's direction, with
    a computed similarity at or just above the floor, project within the
    radius; it is the worst case of the bound."""
    rng = np.random.default_rng(623)
    for floor in (1.0 - 1e-9 - 3e-12, 0.999, 0.5, 0.0, -0.99):
        direction, radius = candidate_window(floor, dim)
        assert abs(float(direction @ direction) - 1.0) < 1e-14
        checked = 0
        for k in range(-8, 9):
            noise = rng.normal(size=dim)
            across = noise - (noise @ direction) * direction
            across /= np.linalg.norm(across)
            half = math.sqrt((1.0 - floor) / 2.0) * (1.0 + k * 2.0 ** -52)
            along = math.sqrt(1.0 - half * half)
            a, b = (along * across + half * direction,
                    along * across - half * direction)
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            assert window_holds(np.array([a, b])).all()
            if float(a @ b) >= floor:
                checked += 1
                assert abs(float(a @ direction) - float(b @ direction)) \
                    <= radius
        assert checked


def test_effective_threshold_slack():
    assert effective_threshold(1.0) == 1.0 - 1e-9
    assert effective_threshold(0.5) == 0.5


def test_weight_column_follows_table_rows():
    """Row v of the column is node v's weight, whatever order kinds are
    declared in: processes share the pooled mean, an unused entity weighs
    0."""
    nodes = [NodeRecord(id="f", kind="file", path="/"),
             NodeRecord(id="n", kind="netflow", remote_addr="1.1.1.1",
                        remote_port=1),
             NodeRecord(id="p", kind="process", cmdline="a"),
             NodeRecord(id="f2", kind="file", path="/x"),
             NodeRecord(id="q", kind="process", cmdline="b"),
             NodeRecord(id="n2", kind="netflow", remote_addr="2.2.2.2",
                        remote_port=2)]
    events = [Event(subject="p", object="f", syscall="read", ts=0),
              Event(subject="q", object="f", syscall="read", ts=1),
              Event(subject="p", object="n", syscall="sendto", ts=2),
              Event(subject="q", object="p", syscall="clone", ts=3)]
    g = graph_of(nodes, events)
    column = compute_weights(compute_corpus_stats(g.events), g.table)
    f, n = math.log(4 / 2), math.log(4 / 1)
    pooled = statistics.fmean([f, n])
    assert g.table.ids == ["f", "n", "p", "f2", "q", "n2"]
    assert column.tolist() == [f, n, pooled, 0.0, pooled, 0.0]


def test_vectors_file_roundtrip(tmp_path):
    path = tmp_path / "vecs.txt"
    dim = 8
    rows = {
        "alpha": [1.0] + [0.0] * 7,
        "beta": [0.0, 2.0] + [0.0] * 6,
    }
    path.write_text("".join(
        f"{tok} {' '.join(str(x) for x in vec)}\n" for tok, vec in rows.items()))
    emb = VectorFileEmbedder(path)
    assert emb.dim == dim
    assert emb.embed("alpha")[0] == 1.0
    assert emb.embed("beta")[1] == 1.0
    assert emb.misses == 0
    fallback = emb.embed("gamma")
    assert emb.misses == 1
    assert float(np.linalg.norm(fallback)) == pytest.approx(1.0, rel=1e-12)


def test_vectors_file_width_mismatch(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1 2 3 4 5 6 7 8\nb 1 2\n")
    with pytest.raises(ValueError):
        VectorFileEmbedder(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999", "x",
                                 ""])
def test_vectors_file_refuses_non_finite_components(tmp_path, bad):
    """A NaN component would otherwise pass unnormalized (its norm is not
    > 0) and reach matching as a NaN feature. A component that is no
    number is refused at its line too."""
    path = tmp_path / "vecs.txt"
    path.write_text(f"ok 1 2 3 4 5 6 7 8\ntok {bad} 1 2 3 4 5 6 7\n")
    with pytest.raises(ValueError, match=f"vecs.txt:2: .*finite"):
        VectorFileEmbedder(path)


def test_vectors_file_skips_a_line_without_a_token_or_components(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("alone\n 1 2 3 4 5 6 7 8\nok 1 2 3 4 5 6 7 8\n")
    emb = VectorFileEmbedder(path)
    assert emb.dim == 8
    emb.embed("alone")
    assert emb.misses == 1


@pytest.mark.parametrize("text", ["", "alone\n", "a 1 2 3 4 5 6 7\n"])
def test_vectors_file_without_a_vector_of_width_8_is_refused(tmp_path, text):
    path = tmp_path / "vecs.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="vecs.txt is empty or narrower"):
        VectorFileEmbedder(path)


def test_get_embedder_dispatch(tmp_path):
    assert isinstance(get_embedder("hash-ngrams"), HashNgramEmbedder)
    path = tmp_path / "v.txt"
    path.write_text("tok " + " ".join(["0.5"] * 16) + "\n")
    assert isinstance(get_embedder(f"vectors-file:{path}"), VectorFileEmbedder)
    with pytest.raises(ValueError):
        get_embedder("word2vec")
