"""Malicious-node listing and incremental node-set labeling.

Node-sets are processed one at a time in enumeration order. Each is compared
against every existing label representative by cosine similarity; the best
match at or above the threshold absorbs it, otherwise it founds a new label
whose polarity comes from its own nodes. Representatives are frozen at label
creation. Labeling scores chains a block at a time but decides each one
exactly as the one-at-a-time flow would. A LabelTable holds the labels as
columns, label i in row i of each.

A table is saved as labels.json and, beside it, labels.npz: the same table
as arrays, bound to the bytes of labels.json by their sha256. A table is
read back only from its labels.npz, without parsing a float; one whose
labels.npz is missing, unreadable or bound to other bytes is refused.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embed import candidate_window, effective_threshold, window_holds
from .graph import Graph, NodeIndex
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


# Representative rows per orjson call in LabelTable.write_json: the text of
# 1024 rows of dimension 64 is about 1.3 MB.
WRITE_LABELS = 1024


@dataclass
class LabelTable:
    """Labels as columns. Label i is row i: i is its id and its creation
    order, and representatives[i] (labels x dim, float64) is the feature of
    the chain that founded it. assignment[k] is the label chain k joined or
    founded."""

    polarity: list[str] = field(default_factory=list)
    member_count: list[int] = field(default_factory=list)
    representatives: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0)))
    assignment: list[int] = field(default_factory=list)
    zero_vector_sets: int = 0

    @property
    def labels(self) -> list[str]:
        """Each label's polarity, in label order."""
        return self.polarity

    def write_json(self, fh) -> None:
        """Write compact JSON with sorted keys to fh, WRITE_LABELS labels at
        a time.

        The text equals json.dumps of the whole payload, which lists each
        label as an object with its label_id and created_seq, both i. A
        chunk's representatives are turned into text by one orjson call and
        split into rows. orjson writes the shortest text that round-trips,
        as float.__repr__ does, but lays it out differently for a value that
        is not finite or whose magnitude is nonzero and below 1e-4 or from
        1e16 on, where float.__repr__ turns to exponent notation; a row
        holding one is written by the json encoder.
        """
        import orjson  # only here: reduce and --version never load it

        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        fh.write(f'{{"assignment":{encode(self.assignment)},"labels":[')
        for lo in range(0, len(self.polarity), WRITE_LABELS):
            hi = lo + WRITE_LABELS
            reps = np.ascontiguousarray(self.representatives[lo:hi],
                                        dtype=np.float64)
            rows = orjson.dumps(reps, option=orjson.OPT_SERIALIZE_NUMPY)
            rows = rows[2:-2].decode().split("],[")
            size = np.abs(reps)
            plain = (size == 0) | ((size >= 1e-4) & (size < 1e16))
            for k in np.flatnonzero(~plain.all(axis=1)).tolist():
                rows[k] = encode(reps[k].tolist())[1:-1]
            for i, (kind, members, row) in enumerate(zip(
                    self.polarity[lo:hi], self.member_count[lo:hi], rows), lo):
                fh.write(f'{"," if i else ""}'
                         f'{{"created_seq":{i},"label_id":{i},'
                         f'"member_count":{members},'
                         f'"polarity":{encode(kind)},'
                         f'"representative":[{row}]}}')
        fh.write(f'],"zero_vector_sets":{encode(self.zero_vector_sets)}}}')


# Bytes, or characters, hashed at a time: a table is never held twice to be
# hashed.
HASH_BLOCK = 1 << 16


def file_sha256(path) -> str:
    """The sha256 (hex) of the bytes of the file at path."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(HASH_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


def sidecar_path(table_path) -> Path:
    """The labels.npz beside a labels.json: same directory and stem."""
    return Path(table_path).with_suffix(".npz")


# Representative rows per write to the sidecar: a 32 KB block at dim 64.
SIDECAR_ROWS = 64
# Every sidecar member is stored, not compressed, under this date, so equal
# tables give equal bytes.
_SIDECAR_DATE = (1980, 1, 1, 0, 0, 0)
_SIDECAR_INTS = ("label_id", "member_count", "created_seq", "assignment",
                 "zero_vector_sets")


def write_sidecar(table: LabelTable, table_path, stamp: dict) -> None:
    """Write table as the labels.npz beside the labels.json at table_path,
    bound to that file's bytes by their sha256.

    The members are .npy arrays: sha256 and stamp (stamp as JSON) as
    strings; label_id, polarity, member_count and created_seq per label
    (label_id and created_seq are 0..n-1); representatives, labels x dim
    float64; assignment and zero_vector_sets. The file is hashed a block at
    a time and the representatives are written SIDECAR_ROWS rows at a
    time. A NaN component is stored as the NaN that json.loads gives for
    the table's `NaN`, so both files give the same bits.
    """
    import zipfile

    count = len(table.polarity)
    arrays = {
        "sha256": np.array(file_sha256(table_path)),
        "stamp": np.array(json.dumps(stamp, sort_keys=True)),
        "label_id": np.arange(count, dtype=np.int64),
        "polarity": np.array(table.polarity, dtype=str),
        "member_count": np.array(table.member_count, dtype=np.int64),
        "created_seq": np.arange(count, dtype=np.int64),
        "assignment": np.array(table.assignment, dtype=np.int64),
        "zero_vector_sets": np.array(table.zero_vector_sets, dtype=np.int64),
    }

    def member(name: str) -> zipfile.ZipInfo:
        info = zipfile.ZipInfo(f"{name}.npy", date_time=_SIDECAR_DATE)
        # Unix attributes whatever the platform, which would otherwise show
        # in the bytes.
        info.create_system = 3
        info.external_attr = 0o644 << 16
        return info

    reps = table.representatives
    with zipfile.ZipFile(sidecar_path(table_path), "w") as zf:
        for name, array in arrays.items():
            with zf.open(member(name), "w") as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)
        with zf.open(member("representatives"), "w") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": "<f8", "fortran_order": False,
                "shape": reps.shape})
            for lo in range(0, count, SIDECAR_ROWS):
                block = np.array(reps[lo:lo + SIDECAR_ROWS], dtype="<f8")
                np.copyto(block, np.nan, where=np.isnan(block))
                fh.write(block.tobytes())


def label_table_from_json(text: str, sidecar) -> tuple[LabelTable, dict]:
    """The table saved as a labels.json whose text is text, and the stamp
    it was written with, read from sidecar, the labels.npz that
    write_sidecar wrote beside it.

    The sidecar is used when its zip opens, every member loads without
    pickles, its sha256 is that of text's UTF-8 bytes (hashed HASH_BLOCK
    characters at a time), kinds, shapes and label_id and created_seq
    (0..n-1) are those write_sidecar writes, every assignment names a label,
    member_count counts each label's assignments and zero_vector_sets is
    in 0..len(assignment). Otherwise a ValueError names the sidecar and why
    not: missing, digest mismatch or unreadable.
    """
    import zipfile

    def refuse(why: str):
        raise ValueError(f"label table {sidecar}: {why}; rerun label")

    try:
        with zipfile.ZipFile(sidecar) as zf:
            def read(name: str) -> np.ndarray:
                with zf.open(f"{name}.npy") as fh:
                    return np.lib.format.read_array(fh, allow_pickle=False)

            arrays = {name: read(name) for name in (
                "sha256", "stamp", "polarity", "representatives",
                *_SIDECAR_INTS)}
        stamp = json.loads(str(arrays["stamp"]))
    except FileNotFoundError:
        refuse("missing")
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        refuse("unreadable")
    digest = hashlib.sha256()
    for lo in range(0, len(text), HASH_BLOCK):
        digest.update(text[lo:lo + HASH_BLOCK].encode("utf-8"))
    if arrays["sha256"].shape or str(arrays["sha256"]) != digest.hexdigest():
        refuse("digest mismatch")
    reps, polarity = arrays["representatives"], arrays["polarity"]
    if not (isinstance(stamp, dict) and reps.dtype == np.float64
            and reps.ndim == 2 and polarity.dtype.kind == "U"
            and all(arrays[name].dtype.kind == "i" for name in _SIDECAR_INTS)
            and polarity.shape == arrays["member_count"].shape
            == reps.shape[:1]
            and all(np.array_equal(arrays[name], np.arange(len(reps)))
                    for name in ("label_id", "created_seq"))
            and arrays["assignment"].ndim == 1
            and arrays["zero_vector_sets"].ndim == 0
            and ((polarity == BENIGN) | (polarity == MALICIOUS)).all()):
        refuse("unreadable")
    # The arrays must agree with each other, as the labeler's do: a count
    # rewritten alone would rank the labels by wrong counts.
    assignment, count = arrays["assignment"], len(reps)
    if not ((not assignment.size
             or 0 <= assignment.min() and assignment.max() < count)
            and np.array_equal(arrays["member_count"],
                               np.bincount(assignment, minlength=count))
            and 0 <= arrays["zero_vector_sets"] <= len(assignment)):
        refuse("unreadable")
    return LabelTable(polarity=polarity.tolist(),
                      member_count=arrays["member_count"].tolist(),
                      representatives=reps,
                      assignment=arrays["assignment"].tolist(),
                      zero_vector_sets=int(arrays["zero_vector_sets"])), stamp


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
    table = graph.table
    ids, order = table.ids, graph.order
    # Many nodes share an attribute text; scan the IoCs once per text.
    first_ioc = np.full(len(table.texts), -1, dtype=np.intp)
    if iocs:
        used = np.zeros(len(table.texts), dtype=bool)
        used[table.text] = True
        for code in np.flatnonzero(used).tolist():
            text = table.texts[code]
            first_ioc[code] = next(
                (i for i, ioc in enumerate(iocs) if ioc and ioc in text), -1)
    hit = first_ioc[table.text]
    matched = hit >= 0
    hits = np.bincount(hit[matched], minlength=len(iocs)).tolist()
    # A repeated IoC's hits all go to its first place in the list.
    for ioc in dict.fromkeys(iocs):
        if not hits[iocs.index(ioc)]:
            out.warnings.append(f"ioc matched no nodes: {ioc!r}")

    src, dst = graph.events.src, graph.events.dst
    adjacent = np.zeros(len(ids), dtype=bool)
    adjacent[dst[matched[src] & ~matched[dst]]] = True
    adjacent[src[matched[dst] & ~matched[src]]] = True

    for v in order[matched[order]].tolist():
        out.ids.add(ids[v])
        out.provenance[ids[v]] = iocs[hit[v]]
    declared = set()
    if explicit_ids:
        declared = {ids[v] for v in np.flatnonzero(
            NodeIndex.of(graph).mask(explicit_ids)).tolist()}
    for node_id in explicit_ids:
        if node_id not in declared:
            out.warnings.append(f"explicit id not in graph: {node_id!r}")
            continue
        out.ids.add(node_id)
        out.provenance.setdefault(node_id, PROV_EXPLICIT)
    for v in order[adjacent[order]].tolist():
        out.ids.add(ids[v])
        out.provenance.setdefault(ids[v], PROV_ADJACENT)
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
    """Row store of normalized representatives for the cosine scan, allocated
    once for capacity rows: no row is ever copied, and rows not yet written
    cost no resident memory. Each row keeps its projection onto the
    direction of the candidate window (embed.candidate_window); the rows
    added before the last top_two_before are also indexed by projection.
    """

    def __init__(self, dim: int, capacity: int):
        self._rows = np.empty((capacity, dim), dtype=np.float64)
        self._proj = np.empty(capacity)
        self._count = 0
        # Rows [0, _ordered) by ascending projection: ids and projections.
        # While the last top_two_before scored windows, the projections of
        # the rows added since, ascending; None otherwise.
        self._ordered = 0
        self._by_proj = np.empty(0, dtype=np.int64)
        self._sorted_proj = np.empty(0)
        self._recent: list[float] | None = None

    def add(self, normalized: np.ndarray, projection: float) -> None:
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
        new = np.arange(self._ordered, self._count)
        new = new[np.argsort(self._proj[new], kind="stable")]
        at = np.searchsorted(self._sorted_proj, self._proj[new], side="right")
        self._sorted_proj = np.insert(self._sorted_proj, at, self._proj[new])
        self._by_proj = np.insert(self._by_proj, at, new)
        self._ordered = self._count

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
        return self._rows[self._ordered: self._count] @ normalized


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
    if not len(sets):
        return LabelTable()
    dim = features.shape[1]
    reps = _RepMatrix(dim, len(sets))  # a chain mints at most one label
    margin = MARGIN * max(1.0, dim / 64)
    mint_below, join_from = cutoff - margin, cutoff + margin
    direction, radius = candidate_window(cutoff - 3 * margin, dim)
    # The rounding bounds hold for finite rows of at most unit length: from
    # the first block with a non-finite norm, or with a row normalized from a
    # norm lost to underflow, on, every chain takes the exact scan.
    exact_only = False
    # Per label, the chain that founded it; per chain, its label.
    founders: list[int] = []
    assignment: list[int] = []
    zero_vector_sets = 0

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
        start = len(founders)
        proj = normalized @ direction
        if not exact_only:
            tops, args, runners = (part.tolist() for part in
                                   reps.top_two_before(normalized, proj,
                                                       radius))
        projs = proj.tolist()

        for i, row in enumerate(normalized):
            # A zero vector never wins a cosine comparison; its label keeps
            # the zero row, so row indices keep matching label ids.
            if not nonzero[i]:
                zero_vector_sets += 1
                _mint(founders, assignment, reps, lo + i, row, projs[i])
                continue
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
                    _mint(founders, assignment, reps, lo + i, row, projs[i])
                    continue
                if inside.size > 1:
                    inside[j] = -np.inf
                    runner = max(runner, float(inside.max()))
                if top >= join_from and runner < top - 2 * margin:
                    assignment.append(arg)
                    continue
            best, similarity = reps.best_match(row)
            if best >= 0 and similarity >= cutoff:
                assignment.append(best)
            else:
                _mint(founders, assignment, reps, lo + i, row, projs[i])
    # The scan's rows go before the founders' features are copied out.
    del reps, normalized
    flagged = sets.index.mask(malicious.ids)
    polarity = [MALICIOUS if bad else BENIGN
                for bad in flagged[sets.nodes[founders]].any(axis=1).tolist()]
    return LabelTable(
        polarity=polarity,
        member_count=np.bincount(assignment,
                                 minlength=len(founders)).tolist(),
        representatives=features[founders], assignment=assignment,
        zero_vector_sets=zero_vector_sets)


def _mint(founders: list[int], assignment: list[int], reps: _RepMatrix,
          chain: int, normalized: np.ndarray, projection: float) -> None:
    assignment.append(len(founders))
    founders.append(chain)
    reps.add(normalized, projection)
