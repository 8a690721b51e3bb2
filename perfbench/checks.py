"""Output checks, computed apart from the program under test.

Each check returns a list of problems; an empty list means the output
passed. None of them compares against a saved copy of earlier output: the
expected values come from the generator's ground truth, from recounting the
input records, or from a plain numpy recomputation of the method's
definitions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

# Rows per block in the cosine recomputations; bounds their memory.
BLOCK = 512
# Float slack allowed when comparing recomputed cosines with the cutoff.
COS_TOL = 1e-12


def canon(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Records:
    """A corpus as plain decoded records, independent of provprune.ingest."""

    nodes: dict[str, dict] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)

    @classmethod
    def from_lines(cls, lines) -> "Records":
        out = cls()
        for line in lines:
            obj = json.loads(line)
            if obj["kind"] == "event":
                out.events.append(obj)
            else:
                out.nodes[obj["id"]] = obj
        return out

    def incident_ids(self) -> set[str]:
        ids: set[str] = set()
        for ev in self.events:
            ids.add(ev["subject"])
            ids.add(ev["object"])
        return ids


class ExportExpectation:
    """What a reduced-graph export must hold for a given removed set."""

    def __init__(self, records: Records):
        self.records = records
        self._nodes = [(nid, canon(obj)) for nid, obj in records.nodes.items()]
        self._events = [(ev["subject"], ev["object"], canon(ev))
                        for ev in records.events]

    def expected(self, removed: set[str]) -> list[str]:
        keep = [text for nid, text in self._nodes if nid not in removed]
        keep += [text for s, o, text in self._events
                 if s not in removed and o not in removed]
        keep.sort()
        return keep


def _digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def check_export(text: str, expect: ExportExpectation,
                 removed: set[str]) -> list[str]:
    """The export parses back to the input graph minus exactly `removed`.

    Removed nodes go with every event incident to them; every other node and
    event comes back with all its fields.
    """
    problems = []
    exported_ids = set()
    got = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            return [f"export line is not JSON: {line[:80]!r}"]
        if obj.get("kind") != "event":
            exported_ids.add(obj.get("id"))
        got.append(canon(obj))
    got.sort()
    actually_removed = set(expect.records.nodes) - exported_ids
    if actually_removed != removed:
        missing = sorted(removed - actually_removed)
        extra = sorted(actually_removed - removed)
        problems.append(f"removed ids differ: {len(missing)} expected ids "
                        f"kept (e.g. {missing[:3]}), {len(extra)} unexpected "
                        f"ids removed (e.g. {extra[:3]})")
    want = expect.expected(removed)
    if _digest(got) != _digest(want):
        lost = sorted(set(want) - set(got))
        added = sorted(set(got) - set(want))
        problems.append(f"export content differs: {len(lost)} records lost "
                        f"(e.g. {lost[:1]}), {len(added)} records added or "
                        f"altered (e.g. {added[:1]}), {len(got)} lines vs "
                        f"{len(want)} expected")
    return problems


def check_reports(reports: list[dict], ns: list[int], incident: set[str],
                  removed_by_n: dict[int, set[str]],
                  malicious: set[str]) -> list[str]:
    """Node accounting of every report against the expected removed sets."""
    problems = []
    got_ns = [r.get("n_requested") for r in reports]
    if got_ns != list(ns):
        return [f"reports cover n={got_ns}, expected {list(ns)}"]
    before = len(incident)
    for r, n in zip(reports, ns):
        removed = removed_by_n[n]
        after = before - len(removed)
        fn = len(removed & malicious)
        fp = after - len((malicious & incident) - removed)
        want = {"total_nodes_before": before, "nodes_removed": len(removed),
                "nodes_after": after, "fn_count": fn, "fp_count": fp}
        for key, value in want.items():
            if r.get(key) != value:
                problems.append(f"n={n}: {key}={r.get(key)}, expected {value}")
        if r.get("nodes_after") != r.get("total_nodes_before", 0) - \
                r.get("nodes_removed", 0):
            problems.append(f"n={n}: nodes_after != before - removed")
        rate = 100.0 * len(removed) / before if before else 0.0
        if abs(r.get("reduction_rate", -1.0) - rate) > 1e-9:
            problems.append(f"n={n}: reduction_rate={r.get('reduction_rate')},"
                            f" expected {rate}")
    return problems


def ranked_benign(table: dict) -> list[dict]:
    """Benign labels, most members first, earlier creation breaking ties."""
    benign = [lb for lb in table["labels"] if lb["polarity"] == "benign"]
    return sorted(benign, key=lambda lb: (-lb["member_count"],
                                          lb["created_seq"]))


def check_top_labels(table: dict, member_counts) -> list[str]:
    """The top benign labels are the planted patterns, one chain each."""
    problems = []
    got = [lb["member_count"] for lb in ranked_benign(table)]
    if got[:len(member_counts)] != list(member_counts):
        problems.append(f"top benign member counts {got[:len(member_counts)]}"
                        f", expected the planted {list(member_counts)}")
    total = sum(lb["member_count"] for lb in table["labels"])
    if total != len(table["assignment"]):
        problems.append(f"member counts sum to {total}, but "
                        f"{len(table['assignment'])} sets were assigned")
    return problems


def _normalized(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    return matrix / np.where(norms > 0.0, norms, 1.0)[:, None]


def check_sequential_labels(table: dict, features: np.ndarray,
                            chain_nodes: list[tuple[str, ...]],
                            malicious: set[str], cutoff: float) -> list[str]:
    """The table is the sequential labeling of `features`, in their order.

    Chain i founds a label when no representative minted before it reaches
    the cutoff, and otherwise joins the most similar one, which must reach
    it. Representatives are the founding chain's feature; member counts are
    the assignment histogram.
    """
    labels = table["labels"]
    assignment = np.asarray(table["assignment"], dtype=np.int64)
    n_sets, n_labels = features.shape[0], len(labels)
    if assignment.shape[0] != n_sets:
        return [f"{assignment.shape[0]} assignments for {n_sets} chains"]
    problems = []
    for seq, lb in enumerate(labels):
        if lb["label_id"] != seq or lb["created_seq"] != seq:
            return [f"label {seq} has id {lb['label_id']}, "
                    f"seq {lb['created_seq']}"]
    if n_sets and (assignment.min() < 0 or assignment.max() >= n_labels):
        return ["assignment names a label that does not exist"]
    hist = np.bincount(assignment, minlength=n_labels)
    counts = np.array([lb["member_count"] for lb in labels], dtype=np.int64)
    bad = np.flatnonzero(hist != counts)
    if bad.size:
        problems.append(f"{bad.size} labels' member counts differ from the "
                        f"assignment histogram (label {bad[0]}: "
                        f"{counts[bad[0]]} vs {hist[bad[0]]})")

    # Label l is founded by the first chain assigned to it, in label order.
    first = np.full(n_labels, n_sets, dtype=np.int64)
    np.minimum.at(first, assignment, np.arange(n_sets))
    if np.any(np.diff(first) <= 0) or (n_labels and first[-1] >= n_sets):
        return problems + ["labels are not founded in chain order"]
    reps = np.array([lb["representative"] for lb in labels], dtype=np.float64)
    if not np.allclose(reps, features[first], rtol=1e-12, atol=1e-15):
        problems.append("a representative differs from its founding chain's "
                        "feature")
    for seq, lb in enumerate(labels):
        want = "malicious" if any(nid in malicious
                                  for nid in chain_nodes[first[seq]]) \
            else "benign"
        if lb["polarity"] != want:
            problems.append(f"label {seq} is {lb['polarity']}, "
                            f"expected {want}")
            break
    zero = int(np.count_nonzero(np.linalg.norm(features, axis=1) == 0.0))
    if table.get("zero_vector_sets", 0) != zero:
        problems.append(f"zero_vector_sets={table.get('zero_vector_sets')}, "
                        f"expected {zero}")

    unit = _normalized(features)
    rep_unit = _normalized(reps)
    zero_rows = np.linalg.norm(features, axis=1) == 0.0
    founding = first[assignment] == np.arange(n_sets)
    for lo in range(0, n_sets, BLOCK):
        hi = min(lo + BLOCK, n_sets)
        sims = unit[lo:hi] @ rep_unit.T
        rows = np.arange(lo, hi)
        # Only labels founded before chain i exist when chain i is labeled.
        sims[first[None, :] >= rows[:, None]] = -np.inf
        sims[zero_rows[lo:hi]] = -np.inf
        best = sims.max(axis=1) if n_labels else np.full(hi - lo, -np.inf)
        own = sims[np.arange(hi - lo), assignment[lo:hi]]
        for k in np.flatnonzero(founding[lo:hi]):
            if best[k] >= cutoff + COS_TOL:
                problems.append(
                    f"chain {lo + k} founded label {assignment[lo + k]} "
                    f"though an earlier representative reaches cosine "
                    f"{float(best[k])!r}")
                return problems
        for k in np.flatnonzero(~founding[lo:hi]):
            if own[k] < cutoff - COS_TOL or own[k] < best[k] - COS_TOL:
                problems.append(
                    f"chain {lo + k} joined label {assignment[lo + k]} at "
                    f"cosine {float(own[k])!r}; best existing is "
                    f"{float(best[k])!r}, cutoff {cutoff!r}")
                return problems
    return problems


def brute_force_removed(table: dict, features: np.ndarray,
                        chain_nodes: list[tuple[str, ...]], ns: list[int],
                        cutoff: float) -> dict[int, set[str]]:
    """Nodes of every chain matching any of the top-n benign representatives.

    Each n is matched on its own, every chain against every representative.
    """
    ranked = ranked_benign(table)
    reps = _normalized(np.array([lb["representative"] for lb in ranked],
                                dtype=np.float64).reshape(len(ranked), -1))
    unit = _normalized(features)
    out = {}
    for n in ns:
        top = reps[:n]
        removed: set[str] = set()
        for lo in range(0, unit.shape[0], BLOCK):
            if not top.shape[0]:
                break
            hit = (unit[lo:lo + BLOCK] @ top.T >= cutoff).any(axis=1)
            for k in np.flatnonzero(hit):
                removed.update(chain_nodes[lo + k])
        out[n] = removed
    return out
