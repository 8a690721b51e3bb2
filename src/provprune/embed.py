"""Text-to-vector embedding and event-frequency entity weights.

The embedder hashes character n-grams (n in 3..5) of the padded text into a
fixed number of signed dimensions and L2-normalizes the sum. It needs no
training, is reproducible from a seed constant, and sits behind a small
interface so a pretrained-vector file can stand in for it. The weights are
one float64 per node-table row.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np

from .constants import DEFAULT_DIM, DEFAULT_SEED
from .ingest import (PROCESS, CorpusStats, NodeRecord, NodeTable,
                     check_numbering)

NGRAM_SIZES = (3, 4, 5)
# A cosine threshold of exactly 1.0 still has to accept the vector it was
# built from after a round of float arithmetic.
COSINE_SLACK = 1e-9


def _seed_key(seed: int) -> bytes:
    return (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def _hashed_vector(text: str, dim: int, key: bytes,
                   memo: dict[str, int]) -> np.ndarray:
    """The normalized signed sum of text's hashed grams; empty text is e0.

    memo maps each gram already seen under this dim and key to its code,
    2 * slot + 1 for a plus sign and 2 * slot for a minus, and learns the
    new ones.
    """
    if not text:
        vec = np.zeros(dim, dtype=np.float64)
        vec[0] = 1.0
        return vec
    padded = "<" + text + ">"
    # The whole text counts as one feature alongside its n-grams; the 0x00
    # prefix makes it longer than any of them. A gram is hashed as its UTF-8
    # bytes, which the str determines, so the memo is keyed by the str: a
    # whole-text gram equal to another text's n-gram is the same gram.
    grams = ["\x00" + padded] + [padded[i:i + n] for n in NGRAM_SIZES
                                  for i in range(len(padded) - n + 1)]
    codes = list(map(memo.get, grams))
    if None in codes:
        for i, gram in enumerate(grams):
            if codes[i] is None:
                code = memo.get(gram)  # a gram may recur in one text
                if code is None:
                    h = int.from_bytes(hashlib.blake2b(
                        gram.encode("utf-8", "surrogatepass"),
                        digest_size=8, key=key).digest(), "little")
                    code = memo[gram] = 2 * (h % dim) + (h >> 63)
                codes[i] = code
    # Counts of +1 and -1 per slot: their difference is the sum of the signs,
    # exactly, in whatever order they are added.
    counts = np.bincount(codes, minlength=2 * dim)
    vec = (counts[1::2] - counts[0::2]).astype(np.float64)
    norm = math.sqrt(float(np.dot(vec, vec)))
    if norm == 0.0:
        vec[:] = 0.0
        vec[0] = 1.0
        return vec
    vec /= norm
    return vec


class HashNgramEmbedder:
    """Default backend: seeded n-gram hashing.

    Texts share most of their n-grams, so each gram's slot and sign are
    kept, and hashed once per instance.
    """

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = DEFAULT_SEED):
        if dim < 8:
            raise ValueError(f"dim must be at least 8, got {dim}")
        self.dim = dim
        self._key = _seed_key(seed)
        self._slots: dict[str, int] = {}

    def embed(self, text: str) -> np.ndarray:
        return _hashed_vector(text, self.dim, self._key, self._slots)

    def node_vector(self, node: NodeRecord) -> np.ndarray:
        return self.embed(node.attr_text())


class VectorFileEmbedder:
    """Lookup backend fed by a token-per-line vector file.

    Each line is a token followed by its components, space-separated. Texts
    absent from the file fall back to the hashing scheme so the pipeline never
    stalls on vocabulary gaps; the misses counter makes the gap measurable.
    A component that is no number, NaN or infinite is refused, naming its
    line: no cosine with it means anything.
    """

    def __init__(self, path, seed: int = DEFAULT_SEED):
        table: dict[str, np.ndarray] = {}
        dim = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split(" ")
                if len(parts) < 2 or not parts[0]:
                    continue
                try:
                    vec = np.array([float(x) for x in parts[1:]])
                except ValueError:  # a component that is no number
                    vec = None
                if vec is None or not np.isfinite(vec).all():
                    raise ValueError(f"{path}:{lineno}: vector components "
                                     f"must be finite numbers")
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


def compute_weights(stats: CorpusStats, nodes) -> np.ndarray:
    """One float64 weight per node-table row: ln(P / P_f) for a file or
    netflow, the mean of those values for every process.

    nodes is the NodeTable stats was counted over, or a graph's node map
    (whose values() is that table). A file or netflow that never appears in
    an event weighs 0. An empty corpus has no defined weights.
    """
    total = stats.total_events
    if total == 0:
        raise ValueError("weights are undefined for a corpus with zero events")
    table = nodes if isinstance(nodes, NodeTable) else nodes.values()
    check_numbering(table.ids, stats.ids, "the corpus stats")
    counts = stats.entity_counts
    rows = np.flatnonzero((table.kind != PROCESS) & (counts >= 1))
    pool = [math.log(total / c) for c in counts[rows].tolist()]
    weights = np.zeros(len(table))
    weights[rows] = pool
    if pool:
        # statistics.fmean, bit for bit.
        weights[table.kind == PROCESS] = math.fsum(pool) / len(pool)
    return weights


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
