"""Traced in-process run of provprune commands, instrumented from outside.

Usage: python3 trace.py <checkout root> <job.json>

The job file names the command argument lists and the result path. The
commands run untraced, traced, then untraced again, all through
`provprune.cli.main`. For the traced pass, the public functions of ingest,
graph, embed, nodeset, label and reduce are wrapped where `provprune.cli`
and `provprune.reduce` look them up, so spans nest the way the calls do.
Counts come from the wrapped calls' return values. A function that is never
called leaves its metrics out of the result rather than reporting zero.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import os
import sys
import time


class Tracer:
    """Spans kept in memory: name, start, end, parent, and child seconds."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "parent": parent, "child_s": 0.0,
                    "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self.charge(span["end"] - span["start"])
            if counts is not None:
                span["counts"] = counts(result, fn, args, kwargs)
            return result
        return traced

    def charge(self, seconds: float) -> None:
        """Book time spent inside the innermost open span's callees."""
        if self._stack:
            self.spans[self._stack[-1]]["child_s"] += seconds


class CountingEmbedder:
    """Proxy around an embedder that times and counts node_vector calls."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.calls = 0
        self.seconds = 0.0
        self.texts: set[str] = set()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def node_vector(self, node):
        t0 = time.perf_counter()
        vec = self._inner.node_vector(node)
        dt = time.perf_counter() - t0
        self._tracer.charge(dt)
        self.seconds += dt
        self.calls += 1
        self.texts.add(node.attr_text())
        return vec


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _parse_counts(result, fn, args, kwargs) -> dict:
    stats = result[2]
    rejected = (stats.dropped_events + stats.malformed_events
                + stats.dangling_events + stats.malformed_nodes
                + stats.duplicate_nodes + stats.malformed_lines)
    return {"events_accepted": stats.accepted_events,
            "records_rejected": rejected}


def _chain_counts(result, fn, args, kwargs) -> dict:
    cap = _bound(fn, args, kwargs)["cap_per_anchor"]
    per_anchor: dict[int, int] = {}
    for chain in result:
        anchor = chain.edge_indices[0]
        per_anchor[anchor] = per_anchor.get(anchor, 0) + 1
    return {"chains": len(result), "anchor_edges": len(per_anchor),
            "capped_anchors": sum(1 for c in per_anchor.values()
                                  if cap and c >= cap)}


def _label_counts(result, fn, args, kwargs) -> dict:
    return {"sets_labeled": len(result.assignment),
            "labels_minted": len(result.labels)}


def _table_counts(result, fn, args, kwargs) -> dict:
    return {"table_bytes": len(_bound(fn, args, kwargs)["text"].encode())}


def _malicious_counts(result, fn, args, kwargs) -> dict:
    return {"malicious_nodes": len(result.ids)}


def _sweep_counts(result, fn, args, kwargs) -> dict:
    return {"reps_used": max((r.labels_used for r in result), default=0)}


def _export_counts(result, fn, args, kwargs) -> dict:
    return {"export_bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


# (module, function name, span name, count extractor)
TARGETS = [
    ("cli", "parse_file", "ingest.parse", _parse_counts),
    ("cli", "compute_corpus_stats", "ingest.corpus_stats", None),
    ("cli", "build_graph", "graph.build", None),
    ("cli", "compute_weights", "embed.weights", None),
    ("cli", "enumerate_node_sets", "nodeset.enumerate", _chain_counts),
    ("cli", "featurize_sets", "nodeset.featurize", None),
    ("cli", "label_node_sets", "label.label", _label_counts),
    ("cli", "label_table_from_json", "label.table_load", _table_counts),
    ("cli", "parse_ioc_file", "label.iocs", None),
    ("cli", "build_malicious_list", "label.iocs", _malicious_counts),
    ("cli", "sweep_top_n", "reduce.sweep", _sweep_counts),
    ("cli", "remove_nodes", "graph.remove", None),
    ("cli", "save_graph", "graph.export", _export_counts),
    ("reduce", "enumerate_node_sets", "nodeset.enumerate", _chain_counts),
    ("reduce", "featurize_sets", "nodeset.featurize", None),
]


def instrument(modules: dict, tracer: Tracer, embedders: list) -> list:
    """Wrap every target present; returns (module, name, original) triples."""
    originals = []
    for mod_name, attr, span_name, counts in TARGETS:
        module = modules[mod_name]
        fn = getattr(module, attr, None)
        if fn is not None:
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(span_name, fn, counts))
    factory = getattr(modules["cli"], "get_embedder", None)
    if factory is not None:
        def counting_factory(*args, **kwargs):
            proxy = CountingEmbedder(factory(*args, **kwargs), tracer)
            embedders.append(proxy)
            return proxy
        originals.append((modules["cli"], "get_embedder", factory))
        modules["cli"].get_embedder = counting_factory
    return originals


def layer_metrics(tracer: Tracer, embedders: list) -> dict:
    """Per-layer totals over every traced command; absent spans stay absent."""
    spans = tracer.spans
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name, key=None):
        group = by_name[name]
        if key is None:
            return sum(s["end"] - s["start"] for s in group)
        if key == "self":
            return sum(s["end"] - s["start"] - s["child_s"] for s in group)
        return sum(s["counts"][key] for s in group)

    out: dict[str, float] = {}
    plain = {
        "ingest.parse_s": ("ingest.parse", None),
        "ingest.events_accepted": ("ingest.parse", "events_accepted"),
        "ingest.records_rejected": ("ingest.parse", "records_rejected"),
        "ingest.corpus_stats_s": ("ingest.corpus_stats", None),
        "embed.weights_s": ("embed.weights", None),
        "graph.build_s": ("graph.build", None),
        "graph.remove_s": ("graph.remove", None),
        "graph.export_s": ("graph.export", None),
        "graph.export_bytes": ("graph.export", "export_bytes"),
        "nodeset.enumerate_s": ("nodeset.enumerate", None),
        "nodeset.anchor_edges": ("nodeset.enumerate", "anchor_edges"),
        "nodeset.chains": ("nodeset.enumerate", "chains"),
        "nodeset.capped_anchors": ("nodeset.enumerate", "capped_anchors"),
        "nodeset.featurize_s": ("nodeset.featurize", "self"),
        "label.label_s": ("label.label", None),
        "label.sets_labeled": ("label.label", "sets_labeled"),
        "label.labels_minted": ("label.label", "labels_minted"),
        "label.iocs_s": ("label.iocs", None),
        "label.table_load_s": ("label.table_load", None),
        "label.table_bytes": ("label.table_load", "table_bytes"),
        "reduce.sweep_self_s": ("reduce.sweep", "self"),
        "reduce.reps_used": ("reduce.sweep", "reps_used"),
        "cli.other_s": ("cli.main", "self"),
    }
    for metric, (name, key) in plain.items():
        if name in by_name:
            out[metric] = total(name, key)
    if "label.iocs" in by_name:
        out["label.malicious_nodes"] = sum(
            s["counts"]["malicious_nodes"] for s in by_name["label.iocs"]
            if "counts" in s)
    if out.get("nodeset.anchor_edges"):
        out["nodeset.chains_per_anchor"] = (out["nodeset.chains"]
                                            / out["nodeset.anchor_edges"])
    if "reduce.sweep" in by_name:
        # Chains matched per sweep times the representatives they meet.
        pairs = 0
        for idx, span in enumerate(spans):
            if span["name"] != "reduce.sweep":
                continue
            chains = sum(s["counts"]["chains"] for s in spans
                         if s["parent"] == idx
                         and s["name"] == "nodeset.enumerate")
            pairs += chains * span["counts"]["reps_used"]
        out["reduce.match_pairs"] = pairs
    if embedders and any(e.calls for e in embedders):
        out["embed.node_vector_s"] = sum(e.seconds for e in embedders)
        out["embed.node_vector_calls"] = sum(e.calls for e in embedders)
        out["embed.distinct_texts"] = sum(len(e.texts) for e in embedders)
    return out


def main(argv: list[str]) -> int:
    root, job_path = argv[1], argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    from provprune import cli, reduce

    result = {"exit_codes": []}

    def run_commands(main_fn) -> float:
        seconds = 0.0
        for args in job["commands"]:
            gc.collect()
            t0 = time.perf_counter()
            result["exit_codes"].append(main_fn(args))
            seconds += time.perf_counter() - t0
        return seconds

    # Untraced passes before and after the traced one, so that a drift
    # between early and late passes does not read as tracing overhead.
    plain = cli.main
    before = run_commands(plain)
    tracer = Tracer()
    embedders: list[CountingEmbedder] = []
    originals = instrument({"cli": cli, "reduce": reduce}, tracer, embedders)
    traced = run_commands(tracer.wrap("cli.main", plain))
    for module, attr, fn in originals:
        setattr(module, attr, fn)
    after = run_commands(plain)

    metrics = layer_metrics(tracer, embedders)
    metrics["trace.overhead_s"] = traced - (before + after) / 2.0
    result["metrics"] = metrics
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
