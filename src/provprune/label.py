"""Malicious-node listing and incremental node-set labeling.

Node-sets are processed one at a time in enumeration order. Each is compared
against every existing label representative by cosine similarity; the best
match at or above the threshold absorbs it, otherwise it founds a new label
whose polarity comes from its own nodes. Representatives are frozen at label
creation. Labeling scores chains a block at a time but decides each one
exactly as the one-at-a-time flow would.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .embed import candidate_window, effective_threshold, window_holds
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


# Labels whose representatives share one table of float texts in
# LabelTable.write_json: repeats are common among nearby labels, and the
# texts of 64k floats stay a few MB.
WRITE_LABELS = 1024


@dataclass
class LabelTable:
    labels: list[Label] = field(default_factory=list)
    assignment: list[int] = field(default_factory=list)
    zero_vector_sets: int = 0

    def write_json(self, fh) -> None:
        """Write compact JSON with sorted keys to fh, WRITE_LABELS labels at
        a time.

        The text equals json.dumps of the whole payload. Each distinct float
        bit pattern among a chunk's representatives is turned into text
        once, by the same encoder, and each label's list is joined from
        those texts.
        """
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        fh.write(f'{{"assignment":{encode(self.assignment)},"labels":[')
        for lo in range(0, len(self.labels), WRITE_LABELS):
            chunk = self.labels[lo:lo + WRITE_LABELS]
            reps = [np.asarray(lb.representative, dtype=np.float64)
                    for lb in chunk]
            # Bits, not values: -0.0 keeps its own text, and every NaN is
            # written as the encoder writes NaN.
            distinct, which = np.unique(
                np.concatenate(reps).view(np.uint64), return_inverse=True)
            texts = encode(distinct.view(np.float64).tolist())[1:-1].split(",")
            which = which.tolist()
            end = 0
            for i, (lb, rep) in enumerate(zip(chunk, reps)):
                start, end = end, end + rep.size
                fh.write(f'{"," if lo + i else ""}'
                         f'{{"created_seq":{lb.created_seq},'
                         f'"label_id":{lb.label_id},'
                         f'"member_count":{lb.member_count},'
                         f'"polarity":{encode(lb.polarity)},'
                         f'"representative":['
                         f'{",".join(map(texts.__getitem__, which[start:end]))}'
                         f']}}')
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
# A pair scored on its own (two row gathers and a dot product) costs as
# much as 100 to 250 pairs of the contiguous GEMM: 0.4 to 0.9 us against
# 3.7 ns, for 256 rows against 16,000 labels of dimension 64 on one CPU.
PAIR_COST = 256
# GEMM and gemv each round the dot product of two unit vectors of dimension
# d to within about d * 2**-53 of its true value, so the two differ by at
# most about 2 * d * 2**-53 (1.4e-14 at d = 64). The margin, scaled with d
# above 64, is about seventy times wider.
MARGIN = 1e-12
_NO_SCORES = np.empty(0)
_NO_SCORES.setflags(write=False)


class _RepMatrix:
    """Growable row store of normalized representatives for the cosine scan.

    Each row keeps its projection onto the direction of the candidate
    window (embed.candidate_window); the rows added before the last
    top_two_before are also indexed by projection.
    """

    def __init__(self, dim: int):
        self._rows = np.empty((64, dim), dtype=np.float64)
        self._proj = np.empty(64)
        self._count = 0
        # Rows [0, _indexed) by ascending projection: ids and projections.
        # While the last top_two_before scored windows, the projections of
        # the rows added since, ascending; None otherwise.
        self._indexed = 0
        self._by_proj = np.empty(0, dtype=np.int64)
        self._sorted_proj = np.empty(0)
        self._recent: list[float] | None = None

    def add(self, normalized: np.ndarray, projection: float) -> None:
        if self._count == self._rows.shape[0]:
            grown = np.empty((self._rows.shape[0] * 2, self._rows.shape[1]))
            grown[: self._count] = self._rows
            self._rows = grown
            self._proj = np.resize(self._proj, grown.shape[0])
        self._rows[self._count] = normalized
        self._proj[self._count] = projection
        self._count += 1
        if self._recent is not None:
            bisect.insort(self._recent, projection)

    def best_match(self, normalized: np.ndarray) -> tuple[int, float]:
        """Index and similarity of the best row; first row wins ties."""
        if self._count == 0:
            return -1, -2.0
        sims = self._rows[: self._count] @ normalized
        best = int(np.argmax(sims))
        return best, float(sims[best])

    def top_two_before(self, block: np.ndarray, proj: np.ndarray,
                       radius: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per block row, over the rows so far: the best similarity, its
        first row (-1 if none) and the best similarity of any other row.

        A row whose projection lies more than radius from the block row's
        proj may be left out, as it scores below the floor the radius was
        drawn for. So when those windows hold under 1/PAIR_COST of all
        pairs, each block row is scored against its own window only;
        otherwise against every row.
        """
        self._index_new_rows()
        begin = np.searchsorted(self._sorted_proj, proj - radius, side="left")
        counts = np.searchsorted(self._sorted_proj, proj + radius,
                                 side="right") - begin
        total = int(counts.sum())
        windowed = PAIR_COST * total <= block.shape[0] * self._count
        self._recent = [] if windowed else None
        if windowed:
            return self._top_two_in_windows(block, begin, counts, total)
        return self._top_two_of_all(block)

    def _top_two_of_all(self, block: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """top_two_before over every row, one GEMM per REP_CHUNK rows.

        A later chunk takes the lead only when strictly better, so the first
        row keeps a tie.
        """
        n = block.shape[0]
        top, arg, runner = (np.full(n, -np.inf), np.full(n, -1),
                            np.full(n, -np.inf))
        every = np.arange(n)
        for lo in range(0, self._count, REP_CHUNK):
            sims = block @ self._rows[lo:min(lo + REP_CHUNK, self._count)].T
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

    def _top_two_in_windows(self, block: np.ndarray, begin: np.ndarray,
                            counts: np.ndarray, total: int
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """top_two_before over each block row's window: counts[i] rows of
        the projection order from begin[i] on.

        Pairs are scored LABEL_BLOCK * REP_CHUNK gathered elements at a
        time, then ordered by block row, descending score and ascending
        row, so each block row's first pair is its best, on its first row.
        """
        n = block.shape[0]
        top, arg, runner = (np.full(n, -np.inf), np.full(n, -1),
                            np.full(n, -np.inf))
        if not total:
            return top, arg, runner
        firsts = np.cumsum(counts) - counts
        queries = np.repeat(np.arange(n), counts)
        ids = self._by_proj[np.arange(total)
                            - np.repeat(firsts - begin, counts)]
        sims = np.empty(total)
        step = max(1, LABEL_BLOCK * REP_CHUNK // block.shape[1])
        for lo in range(0, total, step):
            sims[lo:lo + step] = np.einsum(
                "ij,ij->i", block[queries[lo:lo + step]],
                self._rows[ids[lo:lo + step]])
        order = np.lexsort((ids, -sims, queries))
        sims, ids = sims[order], ids[order]
        some, two = counts > 0, counts > 1
        top[some], arg[some] = sims[firsts[some]], ids[firsts[some]]
        runner[two] = sims[firsts[two] + 1]
        return top, arg, runner

    def _index_new_rows(self) -> None:
        """Merge the rows added since the last call into the projection
        order."""
        new = np.arange(self._indexed, self._count)
        new = new[np.argsort(self._proj[new], kind="stable")]
        at = np.searchsorted(self._sorted_proj, self._proj[new], side="right")
        self._sorted_proj = np.insert(self._sorted_proj, at, self._proj[new])
        self._by_proj = np.insert(self._by_proj, at, new)
        self._indexed = self._count

    def recent_similarities(self, normalized: np.ndarray, projection: float,
                            radius: float) -> np.ndarray:
        """Similarities with the rows added since the last top_two_before,
        or none when that scored windows and none of the rows lies within
        radius of projection."""
        if self._recent is not None:
            at = bisect.bisect_left(self._recent, projection - radius)
            if (at == len(self._recent)
                    or self._recent[at] > projection + radius):
                return _NO_SCORES
        return self._rows[self._indexed: self._count] @ normalized


def label_node_sets(sets: ChainBatch, malicious: MaliciousNodeList,
                    threshold: float = 1.0) -> LabelTable:
    """Run the sequential similarity-reuse flow over featurized node-sets.

    Chains go in blocks of LABEL_BLOCK. Each chain of a block is scored
    against the labels minted before the block, and a scan of the labels
    minted earlier in the block covers the rest. Both may skip a label whose
    projection onto a fixed direction lies out of reach of the chain's
    (embed.candidate_window): the reach is drawn for three margins below
    the cutoff, so such a label changes none of the decisions below. A chain
    whose best score sits a margin below the cutoff mints; one whose best
    score sits a margin above the cutoff, and two margins above every other
    score, joins that label. Any other chain is decided by the exact scan
    over every label, so assignments, ties and polarity equal those of
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
    direction, radius = candidate_window(cutoff - 3 * margin, dim)
    # The rounding bounds hold for finite rows of at most unit length: from
    # the first block with a non-finite norm, or with a row normalized from a
    # norm lost to underflow, on, every chain takes the exact scan.
    exact_only = False

    for lo in range(0, len(sets), LABEL_BLOCK):
        block = features[lo:lo + LABEL_BLOCK]
        normalized = np.zeros((len(block), dim))
        nonzero = []
        # A norm per row, the bits of np.linalg.norm: an axis=1 norm is a
        # different reduction and may round differently.
        for i, feature in enumerate(block):
            norm = math.sqrt(float(feature @ feature))
            nonzero.append(norm != 0.0)
            exact_only = exact_only or not math.isfinite(norm)
            if norm != 0.0:
                normalized[i] = feature / norm
        exact_only = exact_only or not window_holds(normalized).all()
        start = len(table.labels)
        proj = normalized @ direction
        if not exact_only:
            tops, args, runners = (part.tolist() for part in
                                   reps.top_two_before(normalized, proj,
                                                       radius))
        projs = proj.tolist()

        for i, feature in enumerate(block):
            kind = polarity[lo + i]
            if not nonzero[i]:
                table.zero_vector_sets += 1
                _mint_label(table, reps, feature, kind, None, projs[i])
                continue
            row = normalized[i]
            if not exact_only:
                top, arg, runner = tops[i], args[i], runners[i]
                inside = reps.recent_similarities(row, projs[i], radius)
                if inside.size:
                    j = int(inside.argmax())
                    inside_top = float(inside[j])
                    if inside_top > top:
                        top, arg, runner = inside_top, start + j, top
                    else:
                        runner = max(runner, inside_top)
                if top < mint_below:
                    _mint_label(table, reps, feature, kind, row, projs[i])
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
                _mint_label(table, reps, feature, kind, row, projs[i])
    return table


def _join_label(table: LabelTable, index: int) -> None:
    table.labels[index].member_count += 1
    table.assignment.append(table.labels[index].label_id)


def _mint_label(table: LabelTable, reps: _RepMatrix, feature: np.ndarray,
                polarity: str, normalized: np.ndarray | None,
                projection: float) -> None:
    seq = len(table.labels)
    label = Label(label_id=seq, polarity=polarity,
                  representative=feature, member_count=1, created_seq=seq)
    table.labels.append(label)
    table.assignment.append(seq)
    if normalized is None:
        # Zero vectors never win a cosine comparison; store a zero row so
        # row indices keep matching label ids.
        reps.add(np.zeros(feature.shape[0]), projection)
    else:
        reps.add(normalized, projection)
