"""Frequent-benign-activity extraction and provenance graph reduction.

Each public name is imported from its module the first time it is read
(PEP 562), so `import provprune` loads neither numpy nor any stage.
"""

__version__ = "0.1.0"

# Each module and the public names it defines, each named once.
_EXPORTS = {
    "constants": ("DEFAULT_DIM", "DEFAULT_SEED"),
    "embed": ("HashNgramEmbedder", "VectorFileEmbedder", "compute_weights",
              "get_embedder"),
    "graph": ("Graph", "build_graph", "remove_nodes"),
    "ingest": ("CorpusStats", "EventTable", "NodeRecord", "NodeTable",
               "ParseStats", "cmdline_frequency", "compute_corpus_stats",
               "parse_file", "parse_stream", "top_commands"),
    "label": ("LabelTable", "MaliciousNodeList", "build_malicious_list",
              "label_node_sets"),
    "nodeset": ("ChainBatch", "NodeSet", "enumerate_node_sets",
                "featurize_sets"),
    "reduce": ("ReductionReport", "rank_benign_labels", "representatives",
               "sweep_top_n"),
    "synthgen": ("GroundTruth", "SynthSpec", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
