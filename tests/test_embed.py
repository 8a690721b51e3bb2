import math
import random

import numpy as np
import pytest

from provprune.embed import (
    DEFAULT_DIM,
    HashNgramEmbedder,
    VectorFileEmbedder,
    WeightTable,
    candidate_window,
    compute_weights,
    effective_threshold,
    embed_text,
    get_embedder,
    window_holds,
)
from provprune.ingest import Event, NodeRecord, compute_corpus_stats

from oracles import (
    EDGE_TEXTS,
    expected_weights,
    python_cosine,
    random_graph_records,
    reference_embed_text,
)


@pytest.mark.parametrize("dim", [8, DEFAULT_DIM])
@pytest.mark.parametrize("seed", [97, 2 ** 70 + 5])
def test_memoized_slots_give_embed_text_bits(dim, seed):
    """embed_text and the embedder, whose gram-slot memo has seen most
    n-grams before, give the bits of one += per gram."""
    texts = EDGE_TEXTS + ["", "日本語のテキスト", "café au lait", "a" * 40,
                          "/usr/bin/python3", "/usr/bin/python3 -m x"]
    texts += [a + b for a in EDGE_TEXTS for b in EDGE_TEXTS[:4]]
    # Lone and reversed surrogates, which JSON escapes can carry into a text.
    texts += ["a\ud800b", "\udfff", "x\udc00\ud83dy", "\ud83d\ude00"]
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
        embed_text("x", dim=4)


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


def test_embedder_cache_returns_readonly():
    emb = HashNgramEmbedder()
    v = emb.embed("cat /var/log/syslog")
    with pytest.raises(ValueError):
        v[0] = 5.0


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


def test_saturated_entity_weight_exactly_zero():
    nodes, events = corpus_fixture()
    events = [e for e in events if e.object == "f1"]
    stats = compute_corpus_stats(events, nodes.values())
    table = compute_weights(stats, nodes)
    assert table.file_weight["f1"] == 0.0


def test_weight_log_ratio_values():
    nodes, events = corpus_fixture()
    stats = compute_corpus_stats(events, nodes.values())
    table = compute_weights(stats, nodes)
    assert table.file_weight["f1"] == pytest.approx(math.log(150 / 100),
                                                    rel=1e-12)
    assert table.file_weight["f2"] == pytest.approx(math.log(15.0), rel=1e-12)
    assert table.netflow_weight["n1"] == pytest.approx(math.log(150 / 40),
                                                       rel=1e-12)


def test_weight_hundredfold_ratio():
    """1000 events with the entity in 10 gives ln(100), about 4.60517."""
    n = {"p1": NodeRecord(id="p1", kind="process", cmdline="w"),
         "f1": NodeRecord(id="f1", kind="file", path="/a"),
         "f2": NodeRecord(id="f2", kind="file", path="/b")}
    events = [Event(subject="p1", object="f1", syscall="read", ts=i)
              for i in range(990)]
    events += [Event(subject="p1", object="f2", syscall="read", ts=i)
               for i in range(10)]
    stats = compute_corpus_stats(events, n.values())
    table = compute_weights(stats, n)
    assert table.file_weight["f2"] == pytest.approx(4.605170185988092,
                                                    rel=1e-12)
    # The natural-log choice pins the scale: a ratio of e means weight 1.
    assert math.log(math.e) == 1.0


def test_unused_entities_absent_from_table():
    nodes, events = corpus_fixture()
    stats = compute_corpus_stats(events, nodes.values())
    table = compute_weights(stats, nodes)
    assert "f_unused" not in table.file_weight
    unused = nodes["f_unused"]
    assert table.weight_for(unused) == 0.0


def test_process_weight_is_pooled_mean():
    nodes, events = corpus_fixture()
    stats = compute_corpus_stats(events, nodes.values())
    table = compute_weights(stats, nodes)
    pool = [table.file_weight["f1"], table.file_weight["f2"],
            table.netflow_weight["n1"]]
    assert table.process_weight == pytest.approx(sum(pool) / 3, rel=1e-12)
    assert min(pool) <= table.process_weight <= max(pool)


def test_zero_event_corpus_rejected():
    stats = compute_corpus_stats([], [])
    with pytest.raises(ValueError):
        compute_weights(stats, {})


def test_weights_nonnegative_and_match_oracle_on_random_corpora():
    rng = random.Random(990)
    for _ in range(40):
        nodes, events = random_graph_records(rng)
        if not events:
            continue
        by_id = {n.id: n for n in nodes}
        stats = compute_corpus_stats(events, nodes)
        table = compute_weights(stats, by_id)
        want = expected_weights(events, by_id)
        got = dict(table.file_weight)
        got.update(table.netflow_weight)
        assert set(got) == set(want)
        for nid, expected in want.items():
            assert got[nid] >= 0.0
            assert got[nid] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        if got:
            values = list(got.values())
            assert min(values) <= table.process_weight <= max(values)


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


def test_weight_table_routing():
    table = WeightTable(file_weight={"f": 2.0}, netflow_weight={"n": 3.0},
                        process_weight=1.5)
    assert table.weight_for(NodeRecord(id="f", kind="file", path="/")) == 2.0
    assert table.weight_for(NodeRecord(id="n", kind="netflow")) == 3.0
    assert table.weight_for(NodeRecord(id="p", kind="process")) == 1.5


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


def test_get_embedder_dispatch(tmp_path):
    assert isinstance(get_embedder("hash-ngrams"), HashNgramEmbedder)
    path = tmp_path / "v.txt"
    path.write_text("tok " + " ".join(["0.5"] * 16) + "\n")
    assert isinstance(get_embedder(f"vectors-file:{path}"), VectorFileEmbedder)
    with pytest.raises(ValueError):
        get_embedder("word2vec")
