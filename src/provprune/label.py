"""Malicious-node listing and incremental node-set labeling.

Node-sets are processed one at a time in enumeration order. Each is compared
against every existing label representative by cosine similarity; the best
match at or above the threshold absorbs it, otherwise it founds a new label
whose polarity comes from its own nodes. Representatives are frozen at label
creation. Labeling scores chains a block at a time but decides each one
exactly as the one-at-a-time flow would.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .embed import effective_threshold
from .graph import Graph
from .nodeset import ChainBatch

BENIGN = "benign"
MALICIOUS = "malicious"

PROV_EXPLICIT = "explicit"
PROV_ADJACENT = "event-adjacent"


@dataclass
class MaliciousNodeList:
    """Node ids tied to attack activity, with how each one got flagged."""

    ids: set[str] = field(default_factory=set)
    provenance: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


@dataclass
class Label:
    label_id: int
    polarity: str
    representative: np.ndarray
    member_count: int
    created_seq: int


@dataclass
class LabelTable:
    labels: list[Label] = field(default_factory=list)
    assignment: list[int] = field(default_factory=list)
    zero_vector_sets: int = 0

    def write_json(self, fh) -> None:
        """Write compact JSON with sorted keys to fh, one label at a time.

        The text equals json.dumps of the whole payload, but only one
        representative's float objects and text are alive at once.
        """
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        fh.write(f'{{"assignment":{encode(self.assignment)},"labels":[')
        for i, lb in enumerate(self.labels):
            if i:
                fh.write(",")
            fh.write(encode({
                "label_id": lb.label_id,
                "polarity": lb.polarity,
                "member_count": lb.member_count,
                "created_seq": lb.created_seq,
                "representative": np.asarray(lb.representative,
                                             dtype=np.float64).tolist(),
            }))
        fh.write(f'],"zero_vector_sets":{encode(self.zero_vector_sets)}}}')


def label_table_from_json(text: str) -> LabelTable:
    """Inverse of LabelTable.write_json."""
    payload = json.loads(text)
    labels = [
        Label(
            label_id=entry["label_id"],
            polarity=entry["polarity"],
            representative=np.array(entry["representative"], dtype=np.float64),
            member_count=entry["member_count"],
            created_seq=entry["created_seq"],
        )
        for entry in payload["labels"]
    ]
    return LabelTable(labels=labels, assignment=list(payload["assignment"]),
                      zero_vector_sets=payload.get("zero_vector_sets", 0))


def parse_ioc_file(path) -> tuple[list[str], list[str]]:
    """Read `ioc<TAB>substring` and `id<TAB>node-id` lines; '#' starts a comment."""
    iocs: list[str] = []
    explicit: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            directive, sep, value = line.partition("\t")
            if not sep or not value:
                raise ValueError(f"{path}:{lineno}: expected 'ioc<TAB>text' "
                                 f"or 'id<TAB>node-id'")
            if directive == "ioc":
                iocs.append(value)
            elif directive == "id":
                explicit.append(value)
            else:
                raise ValueError(f"{path}:{lineno}: unknown directive "
                                 f"{directive!r}")
    return iocs, explicit


def build_malicious_list(graph: Graph, iocs: list[str],
                         explicit_ids: list[str]) -> MaliciousNodeList:
    """Flag nodes by IoC substring match, explicit id, and one-hop adjacency.

    Adjacency expands from the substring matches only, and only once. IoCs or
    explicit ids that hit nothing produce warnings rather than errors.
    """
    out = MaliciousNodeList()
    hits_per_ioc = {ioc: 0 for ioc in iocs}
    matched: dict[str, str] = {}
    # Many nodes share an attribute text; scan the IoCs once per text.
    first_ioc: dict[str, str | None] = {}
    for node_id in sorted(graph.nodes):
        text = graph.nodes[node_id].attr_text()
        if text not in first_ioc:
            first_ioc[text] = next(
                (ioc for ioc in iocs if ioc and ioc in text), None)
        ioc = first_ioc[text]
        if ioc is not None:
            matched[node_id] = ioc
            hits_per_ioc[ioc] += 1
    for ioc, hits in hits_per_ioc.items():
        if hits == 0:
            out.warnings.append(f"ioc matched no nodes: {ioc!r}")

    adjacent: set[str] = set()
    for ev in graph.events:
        if ev.subject in matched and ev.object not in matched:
            adjacent.add(ev.object)
        if ev.object in matched and ev.subject not in matched:
            adjacent.add(ev.subject)

    for node_id, ioc in matched.items():
        out.ids.add(node_id)
        out.provenance[node_id] = ioc
    for node_id in explicit_ids:
        if node_id not in graph.nodes:
            out.warnings.append(f"explicit id not in graph: {node_id!r}")
            continue
        out.ids.add(node_id)
        out.provenance.setdefault(node_id, PROV_EXPLICIT)
    for node_id in sorted(adjacent):
        out.ids.add(node_id)
        out.provenance.setdefault(node_id, PROV_ADJACENT)
    return out


# Chains labeled per block, and representative rows per GEMM chunk: a
# 256 x 2048 float64 similarity temporary is 4 MB however many labels exist.
LABEL_BLOCK = 256
REP_CHUNK = 2048
# GEMM and gemv each round the dot product of two unit vectors of dimension
# d to within about d * 2**-53 of its true value, so the two differ by at
# most about 2 * d * 2**-53 (1.4e-14 at d = 64). The margin, scaled with d
# above 64, is about seventy times wider.
MARGIN = 1e-12


class _RepMatrix:
    """Growable row store of normalized representatives for the cosine scan."""

    def __init__(self, dim: int):
        self._rows = np.empty((64, dim), dtype=np.float64)
        self._count = 0

    def add(self, normalized: np.ndarray) -> None:
        if self._count == self._rows.shape[0]:
            grown = np.empty((self._rows.shape[0] * 2, self._rows.shape[1]))
            grown[: self._count] = self._rows
            self._rows = grown
        self._rows[self._count] = normalized
        self._count += 1

    def best_match(self, normalized: np.ndarray) -> tuple[int, float]:
        """Index and similarity of the best row; first row wins ties."""
        if self._count == 0:
            return -1, -2.0
        sims = self._rows[: self._count] @ normalized
        best = int(np.argmax(sims))
        return best, float(sims[best])

    def top_two_before(self, stop: int, block: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per block row, over rows [0, stop): the best similarity, its
        first row (-1 if none) and the best similarity of any other row.

        One GEMM per REP_CHUNK rows; a later chunk takes the lead only when
        strictly better, so the first row keeps a tie.
        """
        n = block.shape[0]
        top, arg, runner = (np.full(n, -np.inf), np.full(n, -1),
                            np.full(n, -np.inf))
        every = np.arange(n)
        for lo in range(0, stop, REP_CHUNK):
            sims = block @ self._rows[lo:min(lo + REP_CHUNK, stop)].T
            chunk_arg = sims.argmax(axis=1)
            chunk_top = sims[every, chunk_arg]
            sims[every, chunk_arg] = -np.inf
            chunk_runner = sims.max(axis=1)
            wins = chunk_top > top
            runner = np.where(wins, np.maximum(top, chunk_runner),
                              np.maximum(runner, chunk_top))
            arg = np.where(wins, lo + chunk_arg, arg)
            top = np.where(wins, chunk_top, top)
        return top, arg, runner

    def similarities_since(self, start: int,
                           normalized: np.ndarray) -> np.ndarray:
        """Similarities with rows [start, count)."""
        return self._rows[start: self._count] @ normalized


def label_node_sets(sets: ChainBatch, malicious: MaliciousNodeList,
                    threshold: float = 1.0) -> LabelTable:
    """Run the sequential similarity-reuse flow over featurized node-sets.

    Chains go in blocks of LABEL_BLOCK. One GEMM per chunk of representatives
    scores each chain of a block against the labels minted before the block;
    a scan of the labels minted earlier in the block covers the rest. A
    chain whose best score sits a margin below the cutoff mints; one whose
    best score sits a margin above the cutoff, and two margins above every
    other score, joins that label. Any other chain is decided by the exact
    scan over every label, so assignments, ties and polarity equal those of
    labeling one chain at a time. A label is malicious when any node of its
    founding chain is on the malicious list.
    """
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [-1, 1], got {threshold}")
    features = sets.features
    if features is None:
        raise ValueError("node-sets have no features; featurize first")
    cutoff = effective_threshold(threshold)
    table = LabelTable()
    if not len(sets):
        return table
    flagged = np.fromiter((nid in malicious.ids for nid in sets.ids),
                          dtype=bool, count=len(sets.ids))
    polarity = [MALICIOUS if bad else BENIGN
                for bad in flagged[sets.nodes].any(axis=1).tolist()]
    dim = features.shape[1]
    reps = _RepMatrix(dim)
    margin = MARGIN * max(1.0, dim / 64)
    mint_below, join_from = cutoff - margin, cutoff + margin
    # The rounding bounds hold for finite values only: from the first block
    # with a non-finite norm on, every chain takes the exact scan.
    exact_only = False

    for lo in range(0, len(sets), LABEL_BLOCK):
        block = features[lo:lo + LABEL_BLOCK]
        normalized = np.zeros((len(block), dim))
        nonzero = []
        # A norm per row: an axis=1 norm is a different reduction and may
        # round differently.
        for i, feature in enumerate(block):
            norm = float(np.linalg.norm(feature))
            nonzero.append(norm != 0.0)
            exact_only = exact_only or not math.isfinite(norm)
            if norm != 0.0:
                normalized[i] = feature / norm
        start = len(table.labels)
        if not exact_only:
            tops, args, runners = (part.tolist() for part in
                                   reps.top_two_before(start, normalized))

        for i, feature in enumerate(block):
            kind = polarity[lo + i]
            if not nonzero[i]:
                table.zero_vector_sets += 1
                _mint_label(table, reps, feature, kind, None)
                continue
            row = normalized[i]
            if not exact_only:
                top, arg, runner = tops[i], args[i], runners[i]
                inside = reps.similarities_since(start, row)
                if inside.size:
                    j = int(inside.argmax())
                    inside_top = float(inside[j])
                    if inside_top > top:
                        top, arg, runner = inside_top, start + j, top
                    else:
                        runner = max(runner, inside_top)
                if top < mint_below:
                    _mint_label(table, reps, feature, kind, row)
                    continue
                if inside.size > 1:
                    inside[j] = -np.inf
                    runner = max(runner, float(inside.max()))
                if top >= join_from and runner < top - 2 * margin:
                    _join_label(table, arg)
                    continue
            best, similarity = reps.best_match(row)
            if best >= 0 and similarity >= cutoff:
                _join_label(table, best)
            else:
                _mint_label(table, reps, feature, kind, row)
    return table


def _join_label(table: LabelTable, index: int) -> None:
    table.labels[index].member_count += 1
    table.assignment.append(table.labels[index].label_id)


def _mint_label(table: LabelTable, reps: _RepMatrix, feature: np.ndarray,
                polarity: str, normalized: np.ndarray | None) -> None:
    seq = len(table.labels)
    label = Label(label_id=seq, polarity=polarity,
                  representative=feature, member_count=1, created_seq=seq)
    table.labels.append(label)
    table.assignment.append(seq)
    if normalized is None:
        # Zero vectors never win a cosine comparison; store a zero row so
        # row indices keep matching label ids.
        reps.add(np.zeros(feature.shape[0]))
    else:
        reps.add(normalized)
