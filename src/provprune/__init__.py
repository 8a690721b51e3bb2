"""Frequent-benign-activity extraction and provenance graph reduction."""

__version__ = "0.1.0"

from .embed import (
    DEFAULT_DIM,
    DEFAULT_SEED,
    HashNgramEmbedder,
    VectorFileEmbedder,
    compute_weights,
    get_embedder,
)
from .graph import Graph, build_graph, remove_nodes
from .ingest import (
    ANALYZED_SYSCALLS,
    CorpusStats,
    Event,
    EventTable,
    NodeRecord,
    NodeTable,
    ParseStats,
    cmdline_frequency,
    compute_corpus_stats,
    parse_file,
    parse_stream,
    top_commands,
)
from .label import (
    LabelTable,
    MaliciousNodeList,
    build_malicious_list,
    label_node_sets,
)
from .nodeset import ChainBatch, NodeSet, enumerate_node_sets, featurize_sets
from .reduce import (
    ReductionReport,
    rank_benign_labels,
    representatives,
    sweep_top_n,
)
from .synthgen import GroundTruth, SynthSpec, generate

__all__ = [
    "ANALYZED_SYSCALLS",
    "ChainBatch",
    "CorpusStats",
    "DEFAULT_DIM",
    "DEFAULT_SEED",
    "Event",
    "EventTable",
    "Graph",
    "GroundTruth",
    "HashNgramEmbedder",
    "LabelTable",
    "MaliciousNodeList",
    "NodeRecord",
    "NodeSet",
    "NodeTable",
    "ParseStats",
    "ReductionReport",
    "SynthSpec",
    "VectorFileEmbedder",
    "build_graph",
    "build_malicious_list",
    "cmdline_frequency",
    "compute_corpus_stats",
    "compute_weights",
    "enumerate_node_sets",
    "featurize_sets",
    "generate",
    "get_embedder",
    "label_node_sets",
    "parse_file",
    "parse_stream",
    "rank_benign_labels",
    "remove_nodes",
    "representatives",
    "sweep_top_n",
    "top_commands",
]
