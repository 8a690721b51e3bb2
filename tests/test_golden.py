"""Golden-output gate: the CLI's output bytes for a fixed corpus pair.

The output bytes are the contract a refactor must keep: `labels.json` and
`labels.npz`, every `reduced_top*.jsonl`, and `reports.json`/`sweep.csv` with
the wall-clock timings masked. The config echo and `metrics.json` are not compared. Their sha256 digests live in `tests/golden/digests.json`.

After a change that is meant to alter outputs, regenerate the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

from provprune.cli import main
from provprune.graph import build_graph
from provprune.ingest import parse_file
from provprune.nodeset import DEFAULT_CAP_PER_ANCHOR, enumerate_node_sets
from provprune.synthgen import ioc_file_lines, generate

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_acceptance import corpus_pair_specs  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"


def mask_timings(name: str, data: bytes) -> bytes:
    """Zero the wall-clock fields, the only bytes allowed to vary."""
    if name.endswith("reports.json"):
        text = re.sub(r'"(enumerate|featurize|match|select|total)": '
                      r'[-0-9.e+]+', r'"\1": 0', data.decode("utf-8"))
    elif name.endswith("sweep.csv"):
        text = re.sub(r",[0-9.]+(?=\r?$)", ",0", data.decode("utf-8"),
                      flags=re.MULTILINE)
    else:
        return data
    return text.encode("utf-8")


def golden_outputs(root: Path) -> dict[str, str]:
    """Run label, then reduce twice on its table; digest every compared
    file."""
    label_spec, eval_spec = corpus_pair_specs(
        (12, 9, 7), (60, 40, 30), label_seed=606, eval_seed=707)
    # One declared node no event touches, so --include-isolated-nodes
    # changes the evaluation report's denominator.
    isolated = '{"kind": "file", "id": "golden-isolated", "path": "/srv/idle"}'
    paths = {}
    for name, spec in (("labeled", label_spec), ("eval", eval_spec)):
        lines, truth = generate(spec)
        if name == "eval":
            lines.append(isolated)
        paths[name] = root / f"{name}.jsonl"
        paths[name].write_text("\n".join(lines) + "\n")
        paths[name + "_iocs"] = root / f"{name}_iocs.tsv"
        paths[name + "_iocs"].write_text(
            "\n".join(ioc_file_lines(truth)) + "\n")

    runs = {
        "lab": ["label", "--labeled", str(paths["labeled"]),
                "--iocs", str(paths["labeled_iocs"])],
        "red": ["reduce", "--eval", str(paths["eval"]),
                "--labels", str(root / "lab" / "labels.json"),
                "--iocs", str(paths["eval_iocs"]),
                "--top-n", "1,2,5,50", "--emit-graph", "--emit-removed-ids"],
        "iso": ["reduce", "--eval", str(paths["eval"]),
                "--labels", str(root / "lab" / "labels.json"),
                "--iocs", str(paths["eval_iocs"]),
                "--top-n", "1,2,5,50", "--include-isolated-nodes"],
    }
    for out, argv in runs.items():
        assert main(argv + ["--out", str(root / out)]) == 0, out

    digests = {}
    for out in runs:
        for path in sorted((root / out).iterdir()):
            name = f"{out}/{path.name}"
            if path.name in ("run_config.json", "metrics.json"):
                continue
            data = mask_timings(name, path.read_bytes())
            digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def test_cli_outputs_match_golden_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = golden_outputs(tmp_path)
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert got[name] == want[name], name


STAGES = {"parse", "build", "stats", "weights", "iocs", "enumerate",
          "featurize", "total"}


def test_metrics_counts_equal_the_library_counts(tmp_path):
    """metrics.json of each golden run: per corpus, the parse tallies are
    parse_file's, the chains and capped anchors those of
    enumerate_node_sets, and the label count is labels.json's."""
    golden_outputs(tmp_path)
    lab, red, iso = (json.loads((tmp_path / out / "metrics.json").read_text())
                     for out in ("lab", "red", "iso"))
    assert [list(m["corpora"]) for m in (lab, red, iso)] == [
        ["labeled"], ["eval"], ["eval"]]
    for metrics, role in ((lab, "labeled"), (red, "eval"), (iso, "eval")):
        nodes, events, stats = parse_file(tmp_path / f"{role}.jsonl")
        chains = enumerate_node_sets(build_graph(nodes, events))
        per_anchor = Counter(chain.edge_indices[0] for chain in chains)
        corpus = metrics["corpora"][role]
        assert corpus["parse"] == stats.to_dict()
        assert corpus["chains"] == len(chains) > 0
        assert corpus["anchor_edges"] == len(per_anchor)
        assert corpus["capped_anchors"] == sum(
            count >= DEFAULT_CAP_PER_ANCHOR for count in per_anchor.values())
        assert corpus["embedder_misses"] is None
    labels = json.loads((tmp_path / "lab" / "labels.json").read_text())
    assert lab["labels"] == {"minted": len(labels["labels"]),
                             "zero_vector_sets": labels["zero_vector_sets"]}
    assert iso["labels"] == red["labels"]
    assert red["labels"] == {"loaded": len(labels["labels"]),
                             "zero_vector_sets": labels["zero_vector_sets"]}
    assert set(lab["seconds"]) == STAGES | {"label", "table_write"}
    assert set(red["seconds"]) == STAGES | {"match", "select", "table_load",
                                            "export"}
    assert set(iso["seconds"]) == STAGES | {"match", "select", "table_load"}
    assert all(0 < m["start_peak_rss_mb"] <= m["peak_rss_mb"]
               for m in (lab, red, iso))
    # The synthesized corpora are canonical and skip the JSON scanner; the
    # spaced isolated-node line at the end of the evaluation corpus takes
    # it, with the rest of its block.
    assert lab["corpora"]["labeled"]["parse"]["scanned_lines"] == 0
    assert red["corpora"]["eval"]["parse"]["scanned_lines"] >= 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_outputs(Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
