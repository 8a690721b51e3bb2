import random
import time

import numpy as np
import pytest

from provprune import nodeset
from provprune.embed import HashNgramEmbedder, compute_weights
from provprune.ingest import NodeRecord, compute_corpus_stats
from provprune.nodeset import _half_edges, enumerate_node_sets, featurize_sets

from oracles import (
    Event,
    brute_force_chains,
    compose_feature,
    EDGE_TS,
    edge_graph_records,
    event_records,
    graph_of,
    multigraph_records,
    ordered_chains,
    random_graph_records,
    sum_feature_by_hand,
    synth_graph,
    traced_peak,
    weights_by_id,
)


def chain_fixture(n=5, ts_step=10):
    """A straight process chain of n nodes with strictly increasing edges."""
    nodes = [NodeRecord(id=f"p{i}", kind="process", cmdline=f"step-{i}")
             for i in range(n)]
    events = [Event(subject=f"p{i}", object=f"p{i+1}", syscall="clone",
                    ts=(i + 1) * ts_step)
              for i in range(n - 1)]
    return graph_of(nodes, events)


def test_five_node_chain_yields_exactly_one_set():
    sets = enumerate_node_sets(chain_fixture(5), size=5, cap_per_anchor=0)
    assert len(sets) == 1
    only = sets[0]
    assert only.node_ids == ("p0", "p1", "p2", "p3", "p4")
    assert only.edge_indices == (0, 1, 2, 3)


def test_too_few_nodes_yields_nothing():
    assert len(enumerate_node_sets(chain_fixture(4), size=5)) == 0


def test_size_two_emits_both_orientations():
    g = chain_fixture(2)
    sets = enumerate_node_sets(g, size=2, cap_per_anchor=0)
    assert {s.node_ids for s in sets} == {("p0", "p1"), ("p1", "p0")}


def test_size_validation():
    with pytest.raises(ValueError):
        enumerate_node_sets(chain_fixture(3), size=1)
    with pytest.raises(ValueError):
        enumerate_node_sets(chain_fixture(3), size=5, cap_per_anchor=-2)


def test_equal_timestamps_may_extend():
    g = chain_fixture(5, ts_step=0)
    sets = enumerate_node_sets(g, size=5, cap_per_anchor=0)
    assert ("p0", "p1", "p2", "p3", "p4") in {s.node_ids for s in sets}


def test_decreasing_timestamps_do_not_extend():
    """Only the time-respecting direction of a bent chain is walkable."""
    nodes = [NodeRecord(id=f"p{i}", kind="process", cmdline="x")
             for i in range(3)]
    events = [Event(subject="p0", object="p1", syscall="clone", ts=50),
              Event(subject="p1", object="p2", syscall="clone", ts=40)]
    g = graph_of(nodes, events)
    sets = enumerate_node_sets(g, size=3, cap_per_anchor=0)
    assert [s.node_ids for s in sets] == [("p2", "p1", "p0")]


def test_self_loops_never_enter_chains():
    nodes = [NodeRecord(id="p0", kind="process", cmdline="a"),
             NodeRecord(id="p1", kind="process", cmdline="b"),
             NodeRecord(id="p2", kind="process", cmdline="c")]
    events = [Event(subject="p0", object="p0", syscall="clone", ts=1),
              Event(subject="p0", object="p1", syscall="clone", ts=2),
              Event(subject="p1", object="p2", syscall="clone", ts=3)]
    g = graph_of(nodes, events)
    for s in enumerate_node_sets(g, size=3, cap_per_anchor=0):
        assert len(set(s.node_ids)) == 3
        assert 0 not in s.edge_indices


def test_cap_keeps_earliest_extensions():
    """With a fan-out of three, cap 1 must keep the chain through the
    earliest outgoing edge."""
    nodes = [NodeRecord(id=f"p{i}", kind="process", cmdline="x")
             for i in range(5)]
    events = [Event(subject="p0", object="p1", syscall="clone", ts=1),
              Event(subject="p1", object="p2", syscall="clone", ts=2),
              Event(subject="p1", object="p3", syscall="clone", ts=3),
              Event(subject="p1", object="p4", syscall="clone", ts=4)]
    g = graph_of(nodes, events)
    capped = enumerate_node_sets(g, size=3, cap_per_anchor=1)
    by_anchor = [s for s in capped if s.edge_indices[0] == 0]
    assert by_anchor == [s for s in capped if s.node_ids == ("p0", "p1", "p2")]
    full = enumerate_node_sets(g, size=3, cap_per_anchor=0)
    anchored = [s for s in full if s.edge_indices[0] == 0]
    assert len(anchored) == 3


def test_cap_counts_across_orientations():
    g = chain_fixture(2)
    assert len(enumerate_node_sets(g, size=2, cap_per_anchor=1)) == 1


def test_enumeration_is_deterministic():
    rng = random.Random(314)
    nodes, events = random_graph_records(rng)
    g = graph_of(nodes, events)
    a = enumerate_node_sets(g, size=4, cap_per_anchor=0)
    b = enumerate_node_sets(g, size=4, cap_per_anchor=0)
    assert [(s.node_ids, s.edge_indices) for s in a] == \
           [(s.node_ids, s.edge_indices) for s in b]


def test_chain_invariants_on_random_graphs():
    rng = random.Random(271)
    for _ in range(25):
        nodes, events = random_graph_records(rng)
        g = graph_of(nodes, events)
        sets = enumerate_node_sets(g, size=5, cap_per_anchor=0)
        # A chain's node numbers are rows of the graph's own node table.
        assert sets.ids is g.table.ids
        read = event_records(g.events)
        for s in sets:
            assert len(set(s.node_ids)) == 5
            stamps = [read[i].ts for i in s.edge_indices]
            assert stamps == sorted(stamps)
            for a, b, idx in zip(s.node_ids, s.node_ids[1:], s.edge_indices):
                ev = read[idx]
                assert {ev.subject, ev.object} == {a, b}


def test_matches_bruteforce_on_random_graphs():
    rng = random.Random(555)
    for _ in range(30):
        nodes, events = random_graph_records(rng, allow_self_loops=True)
        g = graph_of(nodes, events)
        size = rng.choice([3, 4, 5])
        ours = {(s.node_ids, s.edge_indices)
                for s in enumerate_node_sets(g, size=size, cap_per_anchor=0)}
        assert ours == brute_force_chains(event_records(g.events), size)


def ordered(sets):
    return [(s.node_ids, s.edge_indices) for s in sets]


def assert_matches_ordered_oracle(g, sizes=(2, 3, 4, 5), caps=(0, 1, 3, 8)):
    for size in sizes:
        for cap in caps:
            assert ordered(enumerate_node_sets(g, size=size,
                                               cap_per_anchor=cap)) == \
                ordered_chains(event_records(g.events), size, cap), (size, cap)


def test_timestamps_at_the_int64_bounds_keep_the_oracle_order():
    """Timestamps at both ends of int64 are ranked before numpy does
    arithmetic on them; chains and their order stay those of the unpruned
    search."""
    rng = random.Random(4343)
    bounds = {min(EDGE_TS), max(EDGE_TS)}
    at_bounds = 0
    for _ in range(30):
        nodes, events = edge_graph_records(rng, wide=False)
        g = graph_of(nodes, events)
        at_bounds += bool(bounds & set(g.events.ts.tolist()))
        assert_matches_ordered_oracle(g, sizes=(2, 3, 4))
    assert at_bounds >= 10


def test_capped_order_matches_ordered_oracle_with_ties():
    """Dense timestamp ties and self-loops stress the reach bound's edges."""
    rng = random.Random(4242)
    for _ in range(40):
        nodes, events = random_graph_records(rng, max_nodes=rng.choice([8, 30]),
                                             allow_self_loops=True)
        top = rng.choice([1, 2, 3, 20])
        events = [ev._replace(ts=rng.randint(1, top)) for ev in events]
        assert_matches_ordered_oracle(graph_of(nodes, events))


def test_repeated_events_match_ordered_oracle():
    """Parallel edges both ways, self-loops and tied timestamps: a step
    back to the node just left, over any of their edges, is never part of
    a chain, and leaving it out of the reach bound loses none."""
    rng = random.Random(2626)
    for _ in range(100):
        g = graph_of(*multigraph_records(rng))
        assert_matches_ordered_oracle(g, sizes=(2, 3, 4, 5, 6), caps=(0, 1, 3))


def star_graph(leaves, hub="h", ts=lambda i: i + 1, prefix="f"):
    nodes = [NodeRecord(id=hub, kind="process", cmdline="hub")]
    nodes += [NodeRecord(id=f"{prefix}{i}", kind="file", path=f"/{prefix}/{i}")
              for i in range(leaves)]
    events = [Event(subject=hub, object=f"{prefix}{i}", syscall="read",
                    ts=ts(i)) for i in range(leaves)]
    return nodes, events


def process_chain(names, first_ts):
    nodes = [NodeRecord(id=n, kind="process", cmdline=n) for n in names]
    events = [Event(subject=a, object=b, syscall="clone", ts=first_ts + i)
              for i, (a, b) in enumerate(zip(names, names[1:]))]
    return nodes, events


@pytest.mark.parametrize("ts", [lambda i: i + 1, lambda i: 7,
                                lambda i: 30 - i, lambda i: i % 3])
def test_hub_shapes_match_ordered_oracle(ts):
    # Star.
    assert_matches_ordered_oracle(graph_of(*star_graph(12, ts=ts)))
    # Double star: two hubs joined by one edge.
    a_nodes, a_events = star_graph(8, hub="a", ts=ts, prefix="x")
    b_nodes, b_events = star_graph(8, hub="b", ts=ts, prefix="y")
    bridge = Event(subject="a", object="b", syscall="clone", ts=ts(4))
    assert_matches_ordered_oracle(graph_of(
        a_nodes + b_nodes, a_events + b_events + [bridge]))
    # Hub plus chain: one leaf is read by a process that starts a chain.
    h_nodes, h_events = star_graph(10, ts=ts)
    c_nodes, c_events = process_chain(["q", "r", "s", "t"], first_ts=ts(5))
    link = Event(subject="q", object="f5", syscall="read", ts=ts(5))
    assert_matches_ordered_oracle(graph_of(
        h_nodes + c_nodes, h_events + c_events + [link]))


def test_large_star_is_not_quadratic():
    """A 20,000-leaf star has no 5-node chain and must cost about linear."""
    g = graph_of(*star_graph(20000))
    t0 = time.perf_counter()
    assert len(enumerate_node_sets(g, size=5)) == 0
    assert time.perf_counter() - t0 < 5.0


def test_star_lists_its_half_edges_and_no_live_anchor():
    """The work count behind the star timing: each of the 20,000 edges
    enters the table once per end, and no anchor orientation can reach a
    5-node chain, so the DFS starts from none."""
    g = graph_of(*star_graph(20000))
    table = _half_edges(g.events, len(g.table), 5)
    assert len(table.ts) == len(table.edge) == len(table.neighbor) == 40000
    assert len(table.reach) == 40000
    assert len(table.anchors) == len(table.starts) == len(table.nexts) == 0


def test_half_edge_bounds_are_each_nodes_block():
    """bounds[v] counts the half-edges of nodes before v, self-loops left
    out: where v's block starts in the node-sorted half-edges."""
    rng = random.Random(2627)
    for _ in range(100):
        g = graph_of(*multigraph_records(rng))
        keep = g.events.src != g.events.dst
        ends = np.sort(np.concatenate([g.events.src[keep],
                                       g.events.dst[keep]]))
        want = np.searchsorted(ends, np.arange(len(g.table) + 1)).tolist()
        for size in (2, 3, 5):
            assert list(_half_edges(g.events, len(g.table), size).bounds) \
                == want


def single_writer(m):
    """One process writes one file m times."""
    nodes = [NodeRecord(id="w", kind="process", cmdline="w"),
             NodeRecord(id="log", kind="file", path="/log")]
    events = [Event(subject="w", object="log", syscall="write", ts=i)
              for i in range(m)]
    return nodes, events


def config_writer(m, configs=41):
    """A writer reads its config files, then appends to a log m times; a
    reader then reads the log and writes one output."""
    nodes = [NodeRecord(id=n, kind="process", cmdline=n)
             for n in ("writer", "reader")]
    nodes += [NodeRecord(id=f"c{i}", kind="file", path=f"/etc/{i}")
              for i in range(configs)]
    nodes += [NodeRecord(id=n, kind="file", path=f"/{n}")
              for n in ("log", "out")]
    events = [Event(subject="writer", object=f"c{i}", syscall="read", ts=i)
              for i in range(configs)]
    events += [Event(subject="writer", object="log", syscall="write",
                     ts=configs + i) for i in range(m)]
    events += [Event(subject="reader", object="log", syscall="read",
                     ts=configs + m),
               Event(subject="reader", object="out", syscall="write",
                     ts=configs + m + 1)]
    return nodes, events


class CountedReads:
    """A reach table that counts the entries read from it."""

    def __init__(self, reach):
        self.reach, self.count = reach, 0

    def __getitem__(self, pos):
        self.count += 1
        return self.reach[pos]


def reach_reads(monkeypatch, graph):
    """The chains of graph at the defaults and the reach entries the search
    read to find them."""
    tables = []

    def counted(*args):
        table = _half_edges(*args)
        tables.append(CountedReads(table.reach))
        return table._replace(reach=tables[-1])

    monkeypatch.setattr(nodeset, "_half_edges", counted)
    sets = enumerate_node_sets(graph)
    return len(sets), tables[0].count


@pytest.mark.parametrize("shape, chains", [(single_writer, 0),
                                           (config_writer, 41 * 8)])
def test_repeated_events_cost_linear_work(monkeypatch, shape, chains):
    """Stepping back over a parallel edge is no way forward, so each
    repeated event costs the search a bounded number of reads: doubling
    the events at most doubles them."""
    reads = []
    for m in (500, 1000, 2000):
        found, count = reach_reads(monkeypatch, graph_of(*shape(m)))
        assert found == chains
        reads.append(count)
    assert reads[1] <= 2 * reads[0] and reads[2] <= 2 * reads[1]


def test_single_writer_lists_no_live_anchor():
    g = graph_of(*single_writer(8000))
    table = _half_edges(g.events, len(g.table), 5)
    assert len(table.reach) == 16000
    assert len(table.anchors) == len(table.starts) == len(table.nexts) == 0


def test_set_size_has_no_depth_limit():
    """A 1,200-node chain is found on a 1,300-node temporal path: one per
    run of consecutive nodes, each anchored at its own first edge."""
    names = [f"p{i}" for i in range(1300)]
    g = graph_of(*process_chain(names, first_ts=0))
    sets = enumerate_node_sets(g, size=1200)
    assert [(s.node_ids, s.edge_indices) for s in sets] == [
        (tuple(names[i:i + 1200]), tuple(range(i, i + 1199)))
        for i in range(101)]


# tracemalloc peak of enumerate_node_sets on synth_graph(), measured at
# 596,966 bytes (Python 3.11, numpy 2.4) with the search on typed arrays;
# lists sharing one int per number took 645,701, and building them through
# fresh ints and full-size temporaries 1,727,398.
ENUMERATE_PEAK_BYTES = 596_966


def test_enumerate_peak_memory_stays_at_its_measure():
    g = synth_graph()
    sets, peak = traced_peak(enumerate_node_sets, g)
    assert len(sets) == 537
    assert peak < 1.25 * ENUMERATE_PEAK_BYTES


def test_hub_leaf_that_continues_still_yields_its_chain():
    h_nodes, h_events = star_graph(20000)
    c_nodes, c_events = process_chain(["q", "r", "s"], first_ts=50000)
    link = Event(subject="q", object="f0", syscall="read", ts=40000)
    g = graph_of(h_nodes + c_nodes, h_events + c_events + [link])
    t0 = time.perf_counter()
    sets = enumerate_node_sets(g, size=5)
    assert time.perf_counter() - t0 < 5.0
    assert [s.node_ids for s in sets] == [("h", "f0", "q", "r", "s")]


def weights_for(graph):
    return compute_weights(compute_corpus_stats(graph.events), graph.table)


def test_compose_zero_weight_chain_is_zero_vector():
    emb = HashNgramEmbedder()
    files = [NodeRecord(id=f"f{i}", kind="file", path=f"/{i}")
             for i in range(3)]
    feature = compose_feature(files, {"f0": 0.0, "f1": 0.0, "f2": 0.0}, emb)
    assert float(np.abs(feature).sum()) == 0.0


def test_compose_single_weighted_node_is_scaled_vector():
    emb = HashNgramEmbedder()
    f = NodeRecord(id="f0", kind="file", path="/hot")
    others = [NodeRecord(id=f"f{i}", kind="file", path=f"/{i}")
              for i in range(1, 3)]
    table = {"f0": 2.5, "f1": 0.0, "f2": 0.0}
    feature = compose_feature([f] + others, table, emb)
    assert np.allclose(feature, 2.5 * emb.embed("/hot"))


def test_compose_matches_hand_summation():
    rng = random.Random(808)
    emb = HashNgramEmbedder()
    for _ in range(15):
        nodes, events = random_graph_records(rng)
        if not events:
            continue
        g = graph_of(nodes, events)
        table = weights_by_id(g.table, weights_for(g))
        ids = list(g.nodes)
        chain = [g.nodes[i] for i in rng.sample(ids, min(5, len(ids)))]
        got = compose_feature(chain, table, emb)
        want = sum_feature_by_hand(chain, table, emb)
        assert np.allclose(got, np.array(want), rtol=1e-9, atol=1e-12)


def test_compose_additive_over_partition():
    emb = HashNgramEmbedder()
    g = chain_fixture(5)
    table = dict.fromkeys(g.nodes, 1.7)
    chain = [g.nodes[f"p{i}"] for i in range(5)]
    whole = compose_feature(chain, table, emb)
    parts = compose_feature(chain[:2], table, emb) + \
        compose_feature(chain[2:], table, emb)
    assert np.allclose(whole, parts, rtol=1e-12)


class CountingEmbedder(HashNgramEmbedder):
    """A HashNgramEmbedder that lists the texts node_vector is asked for."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def node_vector(self, node):
        self.asked.append(node.attr_text())
        return super().node_vector(node)


def shared_text_graph():
    """Two processes with one command line, a file whose path is that
    command line, a process with an empty one and a netflow, all in
    chains of three."""
    nodes = [NodeRecord(id="p1", kind="process", cmdline="make all"),
             NodeRecord(id="p2", kind="process", cmdline="make all"),
             NodeRecord(id="f1", kind="file", path="make all"),
             NodeRecord(id="p3", kind="process", cmdline=""),
             NodeRecord(id="n1", kind="netflow", remote_addr="10.0.0.1",
                        remote_port=80)]
    events = [Event("p1", "p2", "clone", 1), Event("p2", "f1", "write", 2),
              Event("p3", "f1", "read", 3), Event("p3", "n1", "sendto", 4)]
    return graph_of(nodes, events)


def test_featurize_matches_compose_bitwise():
    """Features equal compose_feature's, and the embedder is asked once per
    distinct attribute text among the chains' nodes."""
    rng = random.Random(909)
    graphs = [graph_of(*random_graph_records(rng)) for _ in range(10)]
    graphs.append(shared_text_graph())
    for g in graphs:
        if not g.events:
            continue
        column = weights_for(g)
        sets = enumerate_node_sets(g, size=3, cap_per_anchor=0)
        emb = CountingEmbedder()
        done = featurize_sets(sets, g, column, emb)
        texts = {g.nodes[nid].attr_text() for s in done for nid in s.node_ids}
        assert sorted(emb.asked) == sorted(texts)
        table = weights_by_id(g.table, column)
        for s in done:
            chain = [g.nodes[nid] for nid in s.node_ids]
            direct = compose_feature(chain, table, emb)
            assert s.feature.tobytes() == direct.tobytes()
    # The last graph is the shared-text one.
    assert texts == {"make all", "", "10.0.0.1:80"}


@pytest.mark.parametrize("chunk", [1, 7, 4096, 32768])
def test_featurize_bits_do_not_depend_on_chunk(monkeypatch, chunk):
    """FEATURE_CHUNK only bounds the temporary: every row sums its nodes in
    chain position order whatever the chunk."""
    monkeypatch.setattr(nodeset, "FEATURE_CHUNK", chunk)
    g = synth_graph()
    emb = HashNgramEmbedder()
    column = weights_for(g)
    done = featurize_sets(enumerate_node_sets(g), g, column, emb)
    table = weights_by_id(g.table, column)
    assert len(done) == 537
    for s in done:
        direct = compose_feature([g.nodes[nid] for nid in s.node_ids],
                                 table, emb)
        assert s.feature.tobytes() == direct.tobytes()


def test_featurize_empty_input():
    emb = HashNgramEmbedder()
    g = chain_fixture(3)
    done = featurize_sets(enumerate_node_sets(g, size=5), g,
                          np.zeros(len(g.table)), emb)
    assert len(done) == 0 and list(done) == []
    assert done.features.shape == (0, emb.dim)


@pytest.mark.parametrize("size", [3, 5])
@pytest.mark.parametrize("delta", [-1, 1])
def test_featurize_refuses_weights_of_another_length(size, delta):
    """A weight column one row short or long of the graph's node table is
    refused, with or without chains, rather than read out of line."""
    g = chain_fixture(4)
    weights = np.ones(len(g.table) + delta)
    with pytest.raises(ValueError, match="weights for a graph of 4 nodes"):
        featurize_sets(enumerate_node_sets(g, size=size), g, weights,
                       HashNgramEmbedder())


def test_feature_is_readonly_and_finite():
    emb = HashNgramEmbedder()
    g = chain_fixture(5)
    sets = featurize_sets(enumerate_node_sets(g, size=5), g,
                          weights_for(g), emb)
    feat = sets[0].feature
    assert np.isfinite(feat).all()
    with pytest.raises(ValueError):
        feat[0] = 1.0
