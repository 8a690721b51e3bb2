"""Malicious-node listing and incremental node-set labeling.

Node-sets are processed one at a time in enumeration order. Each is compared
against every existing label representative by cosine similarity; the best
match at or above the threshold absorbs it, otherwise it founds a new label
whose polarity comes from its own nodes. Representatives are frozen at label
creation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .embed import effective_threshold
from .graph import Graph
from .nodeset import NodeSet

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

    def member_total(self) -> int:
        return sum(lb.member_count for lb in self.labels)

    def to_json(self) -> str:
        """Compact JSON with sorted keys, encoded one label at a time.

        The text equals json.dumps of the whole payload, but only one
        representative's float objects are alive at once.
        """
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        labels = ",".join(
            encode({
                "label_id": lb.label_id,
                "polarity": lb.polarity,
                "member_count": lb.member_count,
                "created_seq": lb.created_seq,
                "representative": np.asarray(lb.representative,
                                             dtype=np.float64).tolist(),
            })
            for lb in self.labels)
        return (f'{{"assignment":{encode(self.assignment)},'
                f'"labels":[{labels}],'
                f'"zero_vector_sets":{encode(self.zero_vector_sets)}}}')


def label_table_from_json(text: str) -> LabelTable:
    """Inverse of LabelTable.to_json."""
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
    for node_id in sorted(graph.nodes):
        text = graph.nodes[node_id].attr_text()
        for ioc in iocs:
            if ioc and ioc in text:
                matched[node_id] = ioc
                hits_per_ioc[ioc] += 1
                break
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


def classify_set(node_set: NodeSet, malicious: MaliciousNodeList) -> str:
    """Malicious as soon as one member node is on the list."""
    if any(nid in malicious.ids for nid in node_set.node_ids):
        return MALICIOUS
    return BENIGN


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


def label_node_sets(sets: list[NodeSet], malicious: MaliciousNodeList,
                    threshold: float = 1.0) -> LabelTable:
    """Run the sequential similarity-reuse flow over featurized node-sets."""
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [-1, 1], got {threshold}")
    cutoff = effective_threshold(threshold)
    table = LabelTable()
    reps: _RepMatrix | None = None

    for node_set in sets:
        feature = node_set.feature
        if feature is None:
            raise ValueError("node-set has no feature; featurize first")
        if reps is None:
            reps = _RepMatrix(feature.shape[0])
        norm = float(np.linalg.norm(feature))
        if norm == 0.0:
            table.zero_vector_sets += 1
            _mint_label(table, reps, node_set, malicious, feature, None)
            continue
        normalized = feature / norm
        best, similarity = reps.best_match(normalized)
        if best >= 0 and similarity >= cutoff:
            table.labels[best].member_count += 1
            table.assignment.append(table.labels[best].label_id)
        else:
            _mint_label(table, reps, node_set, malicious, feature, normalized)
    return table


def _mint_label(table: LabelTable, reps: _RepMatrix, node_set: NodeSet,
                malicious: MaliciousNodeList, feature: np.ndarray,
                normalized: np.ndarray | None) -> None:
    seq = len(table.labels)
    label = Label(label_id=seq, polarity=classify_set(node_set, malicious),
                  representative=feature, member_count=1, created_seq=seq)
    table.labels.append(label)
    table.assignment.append(seq)
    if normalized is None:
        # Zero vectors never win a cosine comparison; store a zero row so
        # row indices keep matching label ids.
        reps.add(np.zeros(feature.shape[0]))
    else:
        reps.add(normalized)
