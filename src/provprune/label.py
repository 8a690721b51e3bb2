"""Malicious-node listing and incremental node-set labeling.

Node-sets are processed one at a time in enumeration order. Each is compared
against every existing label representative by cosine similarity; the best
match at or above the threshold absorbs it, otherwise it founds a new label
whose polarity comes from its own nodes. Representatives are frozen at label
creation. Labeling scores chains a block at a time but decides each one
exactly as the one-at-a-time flow would. A LabelTable holds the labels as
columns, label i in row i of each.

A table is saved as labels.json and, beside it, labels.npz: the same table
as arrays, bound to the bytes of labels.json by their sha256, hashed from
the bytes as they are written. A table is read back only from its
labels.npz, without parsing a float; one whose labels.npz is missing,
unreadable or bound to other bytes is refused.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embed import candidate_window, effective_threshold, window_holds
from .graph import Graph, node_mask
from .nodeset import ChainBatch

BENIGN = "benign"
MALICIOUS = "malicious"

# The layout of labels.npz and the features its representatives hold: a
# change to either bumps it, and reduce refuses a table of another format.
TABLE_FORMAT = 2


@dataclass
class MaliciousNodeList:
    """Node ids tied to attack activity, and the IoCs and explicit ids that
    flagged nothing."""

    ids: set[str] = field(default_factory=set)
    warnings: list[str] = field(default_factory=list)


# Labels per piece of a LabelTable's JSON text, each piece one write: the
# text of 1024 labels of dimension 64 is about 1.3 MB.
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

    def save(self, path, stamp: dict) -> None:
        """Write the table to path as labels.json, its JSON text and a
        newline as UTF-8, and beside it as labels.npz, bound to the sha256
        of the bytes as they are written: labels.json is never read back."""
        digest = hashlib.sha256()
        with open(path, "wb") as fh:
            for data in self._json_chunks():
                digest.update(data)
                fh.write(data)
            digest.update(b"\n")
            fh.write(b"\n")
        self._write_sidecar(path, stamp, digest.hexdigest())

    def _json_chunks(self):
        """Compact JSON with sorted keys, as bytes, in pieces of
        WRITE_LABELS labels.

        The text equals json.dumps of the whole payload, which lists each
        label as an object with its label_id and created_seq, both i. Each
        run of labels in a chunk is turned into text by one orjson call.
        orjson writes the shortest text that round-trips, as float.__repr__
        does, but lays it out differently for a value that is not finite or
        whose magnitude is nonzero and below 1e-4 or from 1e16 on, where
        float.__repr__ turns to exponent notation; a label whose
        representative holds one is written by the json encoder, and ends
        the run before it.
        """
        import orjson  # only here: reduce and --version never load it

        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        options = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_SORT_KEYS
        yield f'{{"assignment":{encode(self.assignment)},"labels":['.encode()
        for lo in range(0, len(self.polarity), WRITE_LABELS):
            hi = lo + WRITE_LABELS
            reps = np.ascontiguousarray(self.representatives[lo:hi],
                                        dtype=np.float64)
            labels = [{"created_seq": i, "label_id": i,
                       "member_count": members, "polarity": kind,
                       "representative": row}
                      for i, (kind, members, row) in enumerate(zip(
                          self.polarity[lo:hi], self.member_count[lo:hi],
                          reps), lo)]
            size = np.abs(reps)
            plain = (size == 0) | ((size >= 1e-4) & (size < 1e16))
            texts, start = [], 0
            for k in [*np.flatnonzero(~plain.all(axis=1)).tolist(),
                      len(labels)]:
                if start < k:
                    texts.append(orjson.dumps(labels[start:k],
                                              option=options)[1:-1])
                if k < len(labels):
                    texts.append(encode(dict(
                        labels[k], representative=reps[k].tolist())).encode())
                start = k + 1
            yield (b"," if lo else b"") + b",".join(texts)
        yield f'],"zero_vector_sets":{encode(self.zero_vector_sets)}}}'.encode()

    def _write_sidecar(self, table_path, stamp: dict, digest: str) -> None:
        """Write the table as the labels.npz beside the labels.json at
        table_path, bound to it by digest, the sha256 (hex) of its bytes.

        The members are .npy arrays: sha256 (digest) and stamp (stamp as
        JSON) as strings; polarity per label; representatives, labels x dim
        float64, bit for bit; assignment and zero_vector_sets. A label's id
        and creation order are its row and its member count is its count in
        assignment, so none of them is stored. Each member is written from
        the array's own bytes, with no copy.
        """
        import zipfile

        arrays = {
            "sha256": np.array(digest),
            "stamp": np.array(json.dumps(stamp, sort_keys=True)),
            "polarity": np.array(self.polarity, dtype=str),
            "representatives": np.ascontiguousarray(self.representatives,
                                                    dtype="<f8"),
            "assignment": np.array(self.assignment, dtype=np.int64),
            "zero_vector_sets": np.array(self.zero_vector_sets,
                                         dtype=np.int64),
        }
        with zipfile.ZipFile(sidecar_path(table_path), "w") as zf:
            for name, array in arrays.items():
                info = zipfile.ZipInfo(f"{name}.npy", date_time=_SIDECAR_DATE)
                # Unix attributes whatever the platform, which would
                # otherwise show in the bytes.
                info.create_system = 3
                info.external_attr = 0o644 << 16
                with zf.open(info, "w") as fh:
                    np.lib.format.write_array_header_1_0(
                        fh, np.lib.format.header_data_from_array_1_0(array))
                    fh.write(array.data)


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


# Every sidecar member is stored, not compressed, under this date, so equal
# tables give equal bytes.
_SIDECAR_DATE = (1980, 1, 1, 0, 0, 0)


def label_table_from_json(text: str, sidecar) -> tuple[LabelTable, dict]:
    """The table saved as a labels.json whose text is text, and the stamp
    it was written with, read from sidecar, the labels.npz that
    LabelTable.save wrote beside it.

    The sidecar is used when its zip opens, every member loads without
    pickles, its sha256 is that of text's UTF-8 bytes (hashed HASH_BLOCK
    characters at a time), kinds and shapes are those LabelTable.save writes,
    the assignment is one labeling could give (entries from 0, each at most
    one above every entry before it, the largest naming the last label) and
    zero_vector_sets is in 0..len(assignment). Otherwise a ValueError names
    the sidecar and why not: missing, digest mismatch or unreadable. Each
    label's member count is its count in the assignment.
    """
    import zipfile

    def refuse(why: str):
        raise ValueError(f"label table {sidecar}: {why}; rerun label")

    try:
        with zipfile.ZipFile(sidecar) as zf:
            def read(name: str) -> np.ndarray:
                with zf.open(f"{name}.npy") as fh:
                    return np.lib.format.read_array(fh, allow_pickle=False)

            sha256, stamp, polarity, reps, assignment, zero_vector_sets = (
                read(name) for name in ("sha256", "stamp", "polarity",
                                        "representatives", "assignment",
                                        "zero_vector_sets"))
        stamp = json.loads(str(stamp))
    except FileNotFoundError:
        refuse("missing")
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        refuse("unreadable")
    digest = hashlib.sha256()
    for lo in range(0, len(text), HASH_BLOCK):
        digest.update(text[lo:lo + HASH_BLOCK].encode("utf-8"))
    if sha256.shape or str(sha256) != digest.hexdigest():
        refuse("digest mismatch")
    if not (isinstance(stamp, dict) and reps.dtype == np.float64
            and reps.ndim == 2 and polarity.dtype.kind == "U"
            and polarity.shape == reps.shape[:1]
            and assignment.dtype.kind == zero_vector_sets.dtype.kind == "i"
            and assignment.ndim == 1 and zero_vector_sets.ndim == 0
            and ((polarity == BENIGN) | (polarity == MALICIOUS)).all()):
        refuse("unreadable")
    # The labeler's own order: each chain joins a label founded before it or
    # founds the next, so every label has a member. It bounds the entries
    # before they are counted: an entry of 2**62 would take as many bins.
    count = len(reps)
    founded = np.concatenate([[-1], np.maximum.accumulate(assignment)])
    if not ((assignment >= 0).all() and (assignment <= founded[:-1] + 1).all()
            and founded[-1] == count - 1
            and 0 <= zero_vector_sets <= len(assignment)):
        refuse("unreadable")
    return LabelTable(polarity=polarity.tolist(),
                      member_count=np.bincount(assignment,
                                               minlength=count).tolist(),
                      representatives=reps, assignment=assignment.tolist(),
                      zero_vector_sets=int(zero_vector_sets)), stamp


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

    Adjacency expands from the substring matches only, and only once. An
    IoC that no node's text contains, and an explicit id not in the graph,
    give a warning rather than an error.
    """
    out = MaliciousNodeList()
    table = graph.table
    ids = table.ids
    # Many nodes share an attribute text; scan the IoCs once per text.
    text_hit = np.zeros(len(table.texts), dtype=bool)
    unmatched = dict.fromkeys(iocs)
    if iocs:
        used = np.zeros(len(table.texts), dtype=bool)
        used[table.text] = True
        for code in np.flatnonzero(used).tolist():
            text = table.texts[code]
            if any(ioc and ioc in text for ioc in iocs):
                text_hit[code] = True
                for ioc in [i for i in unmatched if i and i in text]:
                    del unmatched[ioc]
    out.warnings.extend(f"ioc matched no nodes: {ioc!r}" for ioc in unmatched)
    matched = text_hit[table.text]

    src, dst = graph.events.src, graph.events.dst
    flagged = matched.copy()
    flagged[dst[matched[src]]] = True
    flagged[src[matched[dst]]] = True
    out.ids.update(ids[v] for v in np.flatnonzero(flagged).tolist())
    declared = set(explicit_ids).intersection(ids) if explicit_ids else ()
    for node_id in explicit_ids:
        if node_id not in declared:
            out.warnings.append(f"explicit id not in graph: {node_id!r}")
            continue
        out.ids.add(node_id)
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
        # A norm per row, the bits of np.linalg.norm (the root of the row's
        # np.dot with itself): an axis=1 norm is a different reduction and
        # may round differently.
        norms = np.sqrt(np.array(list(map(np.dot, block, block))))[:, None]
        nonzero = norms != 0.0
        normalized = np.divide(block, norms, out=np.zeros_like(block),
                               where=nonzero)
        nonzero = nonzero[:, 0].tolist()
        exact_only = (exact_only or not np.isfinite(norms).all()
                      or not window_holds(normalized).all())
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
    flagged = node_mask(sets.ids, malicious.ids)
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
