import json
import random

import pytest

from provprune import synthgen
from provprune.graph import build_graph
from provprune.ingest import parse_stream
from provprune.synthgen import (
    AttackSpec,
    GroundTruth,
    PatternSpec,
    SynthSpec,
    generate,
    ioc_file_lines,
    planned_records,
    sample_spec_json,
    spec_from_json,
    validate_spec,
)

from oracles import event_records


def one_pattern(reps=10, kinds=None, texts=None):
    kinds = kinds or ("process",) * 5
    texts = texts or ("alpha job", "beta job", "gamma job", "delta job",
                      "epsilon job")
    return PatternSpec(kinds=kinds, texts=texts, repetitions=reps)


def test_pure_pattern_corpus():
    spec = SynthSpec(seed=2, benign_patterns=[one_pattern(10)])
    lines, truth = generate(spec)
    assert truth.total_nodes == 50
    assert truth.total_events == 40
    assert truth.planted_share == 1.0
    assert truth.malicious_ids == []
    assert len(truth.pattern_node_ids) == 50


def test_same_seed_byte_identical():
    spec_a = SynthSpec(seed=42, benign_patterns=[one_pattern(5)],
                       noise_events=30, attack=AttackSpec())
    spec_b = SynthSpec(seed=42, benign_patterns=[one_pattern(5)],
                       noise_events=30, attack=AttackSpec())
    assert generate(spec_a)[0] == generate(spec_b)[0]


def test_different_seed_differs():
    base = dict(benign_patterns=[one_pattern(5)], noise_events=30)
    a, _ = generate(SynthSpec(seed=1, **base))
    b, _ = generate(SynthSpec(seed=2, **base))
    assert a != b


def test_round_trip_loses_nothing():
    spec = SynthSpec(seed=5, benign_patterns=[one_pattern(8)],
                     noise_events=100, attack=AttackSpec())
    lines, truth = generate(spec)
    nodes, events, stats = parse_stream(lines)
    assert stats.malformed_lines == 0
    assert stats.malformed_events == 0
    assert stats.dangling_events == 0
    assert stats.accepted_nodes == truth.total_nodes
    assert stats.accepted_events == truth.total_events


def test_ground_truth_ids_exist_in_stream():
    spec = SynthSpec(seed=6, benign_patterns=[one_pattern(4)],
                     noise_events=40, attack=AttackSpec())
    lines, truth = generate(spec)
    nodes, events, _ = parse_stream(lines)
    all_ids = {n.id for n in nodes}
    assert set(truth.malicious_ids) <= all_ids
    assert set(truth.pattern_node_ids) <= all_ids


def test_share_targeting_within_one_percent():
    for share in (0.1, 0.3, 0.5):
        spec = SynthSpec(seed=7, benign_patterns=[one_pattern(60)],
                         target_benign_share=share, attack=AttackSpec())
        _, truth = generate(spec)
        assert truth.planted_share == pytest.approx(share, abs=0.01)


def test_share_overrides_noise_events_knob():
    spec = SynthSpec(seed=8, benign_patterns=[one_pattern(40)],
                     noise_events=1, target_benign_share=0.5)
    _, truth = generate(spec)
    assert truth.planted_share == pytest.approx(0.5, abs=0.01)
    assert truth.total_nodes > 40 * 5


def test_infeasible_share_rejected():
    spec = SynthSpec(seed=9, benign_patterns=[one_pattern(2)],
                     target_benign_share=1.0, attack=AttackSpec())
    with pytest.raises(ValueError):
        generate(spec)


def test_share_out_of_range_rejected():
    spec = SynthSpec(seed=9, benign_patterns=[one_pattern(2)],
                     target_benign_share=1.5)
    with pytest.raises(ValueError):
        validate_spec(spec)


def test_zero_repetitions_rejected():
    spec = SynthSpec(seed=9, benign_patterns=[one_pattern(0)])
    with pytest.raises(ValueError):
        validate_spec(spec)


def test_chain_without_subject_rejected():
    bad = PatternSpec(kinds=("file", "file"), texts=("/a", "/b"),
                      repetitions=1)
    with pytest.raises(ValueError):
        validate_spec(SynthSpec(seed=1, benign_patterns=[bad]))


def test_unknown_kind_rejected():
    bad = PatternSpec(kinds=("process", "socket"), texts=("a", "b"),
                      repetitions=1)
    with pytest.raises(ValueError):
        validate_spec(SynthSpec(seed=1, benign_patterns=[bad]))


def test_attack_text_overlap_rejected_in_disjoint_mode():
    pattern = one_pattern(texts=("zz-dropper --fetch stage1", "b", "c", "d",
                                 "e"))
    spec = SynthSpec(seed=1, benign_patterns=[pattern], attack=AttackSpec())
    with pytest.raises(ValueError):
        validate_spec(spec)
    spec.disjoint_mode = False
    validate_spec(spec)


def test_attack_chain_is_isolated_component():
    spec = SynthSpec(seed=10, benign_patterns=[one_pattern(5)],
                     noise_events=50, attack=AttackSpec())
    lines, truth = generate(spec)
    nodes, events, _ = parse_stream(lines)
    g = build_graph(nodes, events)
    attack = set(truth.malicious_ids)
    for ev in event_records(g.events):
        touches = {ev.subject, ev.object} & attack
        assert touches in (set(), {ev.subject, ev.object})


def test_event_timestamps_strictly_increase():
    spec = SynthSpec(seed=11, benign_patterns=[one_pattern(3)],
                     noise_events=20, attack=AttackSpec())
    lines, _ = generate(spec)
    _, events, _ = parse_stream(lines)
    stamps = events.ts.tolist()
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


def test_ioc_lines_cover_attack_texts():
    spec = SynthSpec(seed=12, benign_patterns=[one_pattern(2)],
                     attack=AttackSpec())
    _, truth = generate(spec)
    body = "\n".join(ioc_file_lines(truth))
    for text in set(AttackSpec().texts):
        assert f"ioc\t{text}" in body


def test_spec_json_round_trip():
    text = sample_spec_json()
    spec = spec_from_json(text)
    assert spec.seed == 7
    assert len(spec.benign_patterns) == 3
    assert spec.attack is not None
    assert spec.target_benign_share == 0.3
    lines, truth = generate(spec)
    assert truth.total_nodes > 0


def test_spec_json_attack_variants():
    assert spec_from_json('{"attack": null}').attack is None
    assert spec_from_json('{"attack": false}').attack is None
    custom = spec_from_json(json.dumps({
        "attack": {"kinds": ["process", "process"], "texts": ["qq-a", "qq-b"]},
    }))
    assert custom.attack.kinds == ("process", "process")


def test_ground_truth_json_fields():
    spec = SynthSpec(seed=13, benign_patterns=[one_pattern(2)],
                     attack=AttackSpec())
    _, truth = generate(spec)
    payload = json.loads(truth.to_json())
    assert payload["total_nodes"] == truth.total_nodes
    assert payload["malicious_ids"] == truth.malicious_ids
    assert isinstance(payload["planted_share"], float)


def test_hosts_shard_node_ids():
    spec = SynthSpec(seed=14, hosts=3, benign_patterns=[one_pattern(6)])
    lines, _ = generate(spec)
    nodes, _, _ = parse_stream(lines)
    prefixes = {n.id.split(":")[0] for n in nodes}
    assert prefixes == {"h0", "h1", "h2"}


def test_planned_records_bound_the_lines_written():
    """planned_records is an upper bound on generate's lines, and exact for
    a spec of patterns and an attack chain only."""
    exact = SynthSpec(seed=5, benign_patterns=[one_pattern(7)],
                      attack=AttackSpec())
    assert len(generate(exact)[0]) == planned_records(exact) == 7 * 9 + 17
    rng = random.Random(3)
    for seed in range(40):
        pattern = one_pattern(rng.randint(1, 20),
                              kinds=("process",) * rng.randint(2, 5))
        pattern.texts = pattern.texts[:len(pattern.kinds)]
        spec = SynthSpec(seed=seed, benign_patterns=[pattern],
                         noise_events=rng.randint(0, 300),
                         attack=rng.choice([None, AttackSpec()]),
                         target_benign_share=rng.choice(
                             [None, 0.05, 0.3, 0.9, 1.0]))
        try:
            lines, _ = generate(spec)
        except ValueError:  # a share its patterns cannot reach
            continue
        assert len(lines) <= planned_records(spec)


def test_spec_over_the_record_limit_is_refused(monkeypatch):
    spec = SynthSpec(seed=6, benign_patterns=[one_pattern(4)],
                     noise_events=30, attack=AttackSpec())
    monkeypatch.setattr(synthgen, "MAX_RECORDS", planned_records(spec))
    validate_spec(spec)
    monkeypatch.setattr(synthgen, "MAX_RECORDS", planned_records(spec) - 1)
    with pytest.raises(ValueError, match="plans up to"):
        generate(spec)


def test_spec_json_takes_each_value_of_its_json_type():
    spec = spec_from_json('{"seed": 12345678901234567890, "hosts": 3, '
                          '"disjoint_mode": false}')
    assert (spec.seed, spec.hosts) == (12345678901234567890, 3)
    assert spec.disjoint_mode is False
