"""The label and reduce commands against the composed per-stage references.

Hypothesis draws small labeled/evaluation corpus pairs with hubs, stars,
timestamp ties, self-loops, shared attribute texts (so duplicate features),
process-only corpora (so zero features), duplicate declarations and
undeclared endpoints (placeholder nodes under --synthesize-dangling). The
CLI's labels.json, reports.json with timings masked, and every reduced graph
must equal what oracles.reference_run computes from the same lines. The
shape settings go to label alone, so reduce matching the reference shows it
ran at the ones stamped on its table.
"""

import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from provprune.cli import main

from oracles import reference_run

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TEXTS = ["make all", "cc -O2 x.c", "/etc/hosts", "", "café  ",
         "/tmp/x"]
ADDRS = ["10.0.0.1", "10.0.0.2"]
# syscall -> kind of its object
SYSCALLS = {"read": "file", "write": "file", "open": "file",
            "clone": "process", "execve": "process",
            "sendto": "netflow", "recvfrom": "netflow"}
TIMINGS = {"enumerate", "featurize", "match", "select", "total"}


@st.composite
def corpus_lines(draw, prefix=""):
    texts = st.sampled_from(TEXTS)
    ids = {"process": [f"{prefix}p{i}" for i in range(draw(st.integers(1, 5)))],
           "file": [f"{prefix}f{i}" for i in range(draw(st.integers(0, 5)))],
           "netflow": [f"{prefix}n{i}" for i in range(draw(st.integers(0, 2)))]}
    lines = []
    for nid in ids["process"]:
        lines.append({"kind": "process", "id": nid, "cmdline": draw(texts)})
    for nid in ids["file"]:
        lines.append({"kind": "file", "id": nid, "path": draw(texts)})
    for nid in ids["netflow"]:
        lines.append({"kind": "netflow", "id": nid,
                      "raddr": draw(st.sampled_from(ADDRS)),
                      "rport": draw(st.sampled_from([80, 443]))})
    if draw(st.booleans()):
        lines.append(dict(draw(st.sampled_from(lines)), cmdline="dup"))
    ghosts = [f"{prefix}g{i}" for i in range(2)]
    stamps = st.integers(0, 4)
    for _ in range(draw(st.integers(0, 30))):
        syscall = draw(st.sampled_from(sorted(SYSCALLS)))
        subject = draw(st.sampled_from(ids["process"] + ghosts[:1]))
        pool = ids[SYSCALLS[syscall]] + ghosts[1:]
        if SYSCALLS[syscall] == "process" and draw(st.booleans()):
            target = subject
        else:
            target = draw(st.sampled_from(pool))
        lines.append({"kind": "event", "syscall": syscall, "subject": subject,
                      "object": target, "ts": draw(stamps)})
    # A hub process touching every file and netflow at tied timestamps.
    if draw(st.booleans()):
        hub = ids["process"][0]
        ts = draw(stamps)
        for target in ids["file"] + ids["netflow"]:
            syscall = "read" if target in ids["file"] else "sendto"
            lines.append({"kind": "event", "syscall": syscall,
                          "subject": hub, "object": target, "ts": ts})
    order = draw(st.permutations(range(len(lines))))
    return [json.dumps(lines[i]) for i in order]


@st.composite
def corpus_pairs(draw):
    labeled = draw(corpus_lines())
    shape = draw(st.sampled_from(["same", "extended", "fresh"]))
    if shape == "same":
        evaluation = list(labeled)
    elif shape == "extended":
        evaluation = labeled + draw(corpus_lines(prefix="e"))
    else:
        evaluation = draw(corpus_lines())
    return labeled, evaluation


def run_cli(root: Path, labeled, evaluation, iocs, cfg):
    (root / "lab.jsonl").write_text("".join(line + "\n" for line in labeled))
    (root / "eval.jsonl").write_text(
        "".join(line + "\n" for line in evaluation))
    substrings, explicit = iocs
    (root / "iocs.tsv").write_text(
        "".join(f"ioc\t{s}\n" for s in substrings)
        + "".join(f"id\t{nid}\n" for nid in explicit))
    common = ["--iocs", str(root / "iocs.tsv")]
    if cfg.synthesize_dangling:
        common.append("--synthesize-dangling")
    shape = ["--dim", str(cfg.dim), "--seed", str(cfg.seed),
             "--set-size", str(cfg.set_size),
             "--cap-per-anchor", str(cfg.cap_per_anchor),
             "--threshold", str(cfg.threshold)]
    codes = [main(["label", "--labeled", str(root / "lab.jsonl"),
                   "--out", str(root / "lab")] + common + shape)]
    if codes[0] == 0:
        reduce_args = ["reduce", "--eval", str(root / "eval.jsonl"),
                       "--labels", str(root / "lab" / "labels.json"),
                       "--top-n", ",".join(map(str, cfg.top_n)),
                       "--emit-removed-ids", "--emit-graph",
                       "--out", str(root / "red")] + common
        if cfg.include_isolated_nodes:
            reduce_args.append("--include-isolated-nodes")
        codes.append(main(reduce_args))
    return codes


@hypothesis.settings(max_examples=100)
@hypothesis.given(
    pair=corpus_pairs(),
    substrings=st.lists(st.sampled_from(["zzz", "hosts", "10.0.0.2"]),
                        max_size=1),
    explicit=st.lists(st.sampled_from(["nope", "p1"]), max_size=1),
    set_size=st.sampled_from([2, 3, 3, 5]),
    cap=st.sampled_from([0, 1, 3, 8]),
    threshold=st.sampled_from([1.0, 0.9]),
    top_n=st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True),
    seed=st.sampled_from([1, 97]),
    dangling=st.booleans(),
    isolated=st.booleans(),
)
def test_cli_label_and_reduce_equal_reference_run(
        pair, substrings, explicit, set_size, cap, threshold, top_n, seed,
        dangling, isolated):
    labeled, evaluation = pair
    cfg = SimpleNamespace(dim=16, seed=seed, set_size=set_size,
                          cap_per_anchor=cap, threshold=threshold,
                          top_n=sorted(top_n), synthesize_dangling=dangling,
                          include_isolated_nodes=isolated)
    iocs = (substrings, explicit)
    want = reference_run(labeled, evaluation, iocs, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        codes = run_cli(root, labeled, evaluation, iocs, cfg)
        if want is None:
            # A corpus without events has no weights; one command refuses it.
            assert codes[-1] == 1 and all(c == 0 for c in codes[:-1])
            return
        assert codes == [0, 0]
        want_labels, want_reports, want_graphs, want_chains = want
        hypothesis.event(f"labels: {min(want_labels.count('label_id'), 3)}+")
        hypothesis.event(f"removes nodes: "
                         f"{any(r['nodes_removed'] for r in want_reports)}")
        assert (root / "lab" / "labels.json").read_text() == want_labels
        reports = json.loads((root / "red" / "reports.json").read_text())
        for report in reports:
            assert set(report.pop("per_stage_seconds")) == TIMINGS
        assert reports == want_reports
        # Enumerated at the stamp's set_size and cap_per_anchor.
        metrics = json.loads(
            (root / "red" / "reduce_metrics.json").read_text())
        assert metrics["corpora"]["eval"]["chains"] == want_chains
        for n, lines in want_graphs.items():
            path = root / "red" / f"reduced_top{n}.jsonl"
            assert path.read_text() == "".join(x + "\n" for x in lines), n
