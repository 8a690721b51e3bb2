"""Text-to-vector embedding and event-frequency entity weights.

The embedder hashes character n-grams (n in 3..5) of the padded text into a
fixed number of signed dimensions and L2-normalizes the sum. It needs no
training, is reproducible from a seed constant, and sits behind a small
interface so a pretrained-vector file can stand in for it.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass, field

import numpy as np

from .ingest import KIND_FILE, KIND_NETFLOW, KIND_PROCESS, CorpusStats, NodeRecord

DEFAULT_DIM = 64
DEFAULT_SEED = 97
NGRAM_SIZES = (3, 4, 5)
# A cosine threshold of exactly 1.0 still has to accept the vector it was
# built from after a round of float arithmetic.
COSINE_SLACK = 1e-9


def _seed_key(seed: int) -> bytes:
    return (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def _hashed_vector(text: str, dim: int, key: bytes,
                   memo: dict[bytes, tuple[int, float]]) -> np.ndarray:
    """The normalized signed sum of text's hashed grams; empty text is e0.

    memo maps each gram already seen under this dim and key to its slot and
    sign, and learns the new ones.
    """
    if not text:
        vec = np.zeros(dim, dtype=np.float64)
        vec[0] = 1.0
        return vec
    padded = "<" + text + ">"
    # The whole text counts as one feature alongside its n-grams; the 0x00
    # prefix keeps it out of the n-gram hash domain.
    grams = [b"\x00" + padded.encode("utf-8", "surrogatepass")]
    for n in NGRAM_SIZES:
        grams.extend(padded[i:i + n].encode("utf-8", "surrogatepass")
                     for i in range(len(padded) - n + 1))
    slots, signs = [], []
    for gram in grams:
        hit = memo.get(gram)
        if hit is None:
            h = int.from_bytes(
                hashlib.blake2b(gram, digest_size=8, key=key).digest(),
                "little")
            hit = memo[gram] = (h % dim, 1.0 if h >> 63 else -1.0)
        slots.append(hit[0])
        signs.append(hit[1])
    # Sums of +-1.0 are exact, so the order of the adds changes no bit.
    vec = np.bincount(slots, weights=signs, minlength=dim)
    norm = math.sqrt(float(np.dot(vec, vec)))
    if norm == 0.0:
        vec[:] = 0.0
        vec[0] = 1.0
        return vec
    vec /= norm
    return vec


def embed_text(text: str, dim: int = DEFAULT_DIM, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Deterministic L2-normalized vector for a text; empty text maps to e0."""
    if dim < 8:
        raise ValueError(f"dim must be at least 8, got {dim}")
    return _hashed_vector(text, dim, _seed_key(seed), {})


class HashNgramEmbedder:
    """Default backend: seeded n-gram hashing with a per-text cache.

    Texts share most of their n-grams, so each gram's slot and sign are also
    kept, and hashed once per instance.
    """

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = DEFAULT_SEED):
        if dim < 8:
            raise ValueError(f"dim must be at least 8, got {dim}")
        self.dim = dim
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}
        self._key = _seed_key(seed)
        self._slots: dict[bytes, tuple[int, float]] = {}

    def embed(self, text: str) -> np.ndarray:
        vec = self._cache.get(text)
        if vec is None:
            vec = _hashed_vector(text, self.dim, self._key, self._slots)
            vec.setflags(write=False)
            self._cache[text] = vec
        return vec

    def node_vector(self, node: NodeRecord) -> np.ndarray:
        return self.embed(node.attr_text())


class VectorFileEmbedder:
    """Lookup backend fed by a token-per-line vector file.

    Each line is a token followed by its components, space-separated. Texts
    absent from the file fall back to the hashing scheme so the pipeline never
    stalls on vocabulary gaps; the misses counter makes the gap measurable.
    """

    def __init__(self, path, seed: int = DEFAULT_SEED):
        table: dict[str, np.ndarray] = {}
        dim = None
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                parts = line.rstrip("\n").split(" ")
                if len(parts) < 2 or not parts[0]:
                    continue
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
                if dim is None:
                    dim = vec.shape[0]
                elif vec.shape[0] != dim:
                    raise ValueError(f"inconsistent vector width in {path}")
                norm = float(np.linalg.norm(vec))
                if norm > 0.0:
                    vec = vec / norm
                vec.setflags(write=False)
                table[parts[0]] = vec
        if dim is None or dim < 8:
            raise ValueError(f"vector file {path} is empty or narrower than 8")
        self.dim = dim
        self.seed = seed
        self.misses = 0
        self._table = table
        self._fallback = HashNgramEmbedder(dim=dim, seed=seed)

    def embed(self, text: str) -> np.ndarray:
        vec = self._table.get(text)
        if vec is None:
            self.misses += 1
            vec = self._fallback.embed(text)
        return vec

    def node_vector(self, node: NodeRecord) -> np.ndarray:
        return self.embed(node.attr_text())


def get_embedder(model: str = "hash-ngrams", dim: int = DEFAULT_DIM,
                 seed: int = DEFAULT_SEED):
    """Build the configured backend: 'hash-ngrams' or 'vectors-file:<path>'."""
    if model == "hash-ngrams":
        return HashNgramEmbedder(dim=dim, seed=seed)
    if model.startswith("vectors-file:"):
        return VectorFileEmbedder(model.split(":", 1)[1], seed=seed)
    raise ValueError(f"unknown embedding model: {model!r}")


@dataclass
class WeightTable:
    """Per-entity log-frequency weights plus the single process weight."""

    file_weight: dict[str, float] = field(default_factory=dict)
    netflow_weight: dict[str, float] = field(default_factory=dict)
    process_weight: float = 0.0

    def weight_for(self, node: NodeRecord) -> float:
        if node.kind == KIND_PROCESS:
            return self.process_weight
        if node.kind == KIND_FILE:
            return self.file_weight.get(node.id, 0.0)
        return self.netflow_weight.get(node.id, 0.0)


def compute_weights(stats: CorpusStats, nodes: dict[str, NodeRecord]) -> WeightTable:
    """ln(P / P_f) per file and netflow entity; process weight = pooled mean.

    Entities that never appear in an event are left out of the table and act
    as weight-0 contributors. An empty corpus has no defined weights.
    """
    total = stats.total_events
    if total == 0:
        raise ValueError("weights are undefined for a corpus with zero events")
    table = WeightTable()
    for node in nodes.values():
        count = stats.per_entity_event_count.get(node.id, 0)
        if count < 1:
            continue
        if node.kind == KIND_FILE:
            table.file_weight[node.id] = math.log(total / count)
        elif node.kind == KIND_NETFLOW:
            table.netflow_weight[node.id] = math.log(total / count)
    pool = list(table.file_weight.values()) + list(table.netflow_weight.values())
    table.process_weight = statistics.fmean(pool) if pool else 0.0
    return table


def effective_threshold(threshold: float) -> float:
    """Lower the cutoff just enough that exact matches survive rounding."""
    return min(threshold, 1.0 - COSINE_SLACK)


# Seed of the direction the cosine scans project rows onto. Which pairs can
# match never depends on it; only how many pairs get scored does.
PROJECTION_SEED = 8191


def candidate_window(floor: float, dim: int) -> tuple[np.ndarray, float]:
    """A fixed unit direction for dim, and the distance between two rows'
    projections onto it beyond which their computed similarity is below
    floor, for rows that pass window_holds.

    For unit a, b and w, |w.a - w.b| <= |a - b| = sqrt(2 - 2 a.b). With
    u = 2**-53: a dot product computed in float64 is within dim u of a.b,
    and a row passing window_holds has |a|**2 <= 1 + (3 dim + 8) u, so a
    computed similarity at or above floor puts |a - b|**2 within
    2 (1 - floor) + eta. The 1e-7 added covers the rest, a few dim u: each
    computed projection is within about 2 dim u of w.a, and w's own norm
    is within dim u of 1. A radius of 2 or more spans every pair.
    """
    draw = random.Random(PROJECTION_SEED)
    direction = np.array([draw.gauss(0.0, 1.0) for _ in range(dim)])
    direction /= math.sqrt(float(direction @ direction))
    eta = 8.0 * (dim + 2) * 2.0 ** -53
    return direction, math.sqrt(2.0 * (1.0 - floor) + eta) + 1e-7


def window_holds(rows: np.ndarray) -> np.ndarray:
    """Per normalized row, whether candidate_window's radius holds for it:
    the row is no longer than unit length plus rounding, as every row
    normalized from a norm without underflow is. NaN rows fail."""
    squares = np.einsum("ij,ij->i", rows, rows)
    return squares <= 1.0 + (2 * rows.shape[1] + 8) * 2.0 ** -53
