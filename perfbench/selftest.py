"""Show that every output check of the benchmark can fail.

Usage, from the root of a provprune checkout:

    python3 perfbench/selftest.py

Runs `provprune label` and `reduce --emit-graph` on small versions of the
benchmark's corpora, confirms that each check accepts the real outputs, then
feeds each check deliberately wrong outputs and confirms that it rejects
every one. Exits non-zero if a check accepts a wrong output or rejects a
right one.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()


def main() -> int:
    if not (ROOT / "src" / "provprune" / "__init__.py").is_file():
        print("selftest: run from the root of a provprune checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import checks
    import inputs
    from provprune import cli
    from provprune.embed import effective_threshold
    from run import chain_reference

    cutoff = effective_threshold(1.0)
    work = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results: list[tuple[str, bool]] = []

    def expect(name: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        results.append((name, ok))
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
              + (f" ({problems[0][:100]})" if problems else ""))

    def run_pipeline(tag: str, labeled, evaluation, ns):
        paths = {}
        for name, lines in (("lab", labeled.lines), ("eval", evaluation.lines),
                            ("lab_iocs", labeled.iocs),
                            ("eval_iocs", evaluation.iocs)):
            paths[name] = work / f"{tag}_{name}"
            paths[name].write_text("".join(x + "\n" for x in lines))
        label_args = ["label", "--labeled", str(paths["lab"]),
                      "--out", str(work / f"{tag}_l")]
        reduce_args = ["reduce", "--eval", str(paths["eval"]),
                       "--labels", str(work / f"{tag}_l" / "labels.json"),
                       "--top-n", ",".join(map(str, ns)), "--emit-graph",
                       "--out", str(work / f"{tag}_r")]
        if labeled.iocs:
            label_args += ["--iocs", str(paths["lab_iocs"])]
            reduce_args += ["--iocs", str(paths["eval_iocs"])]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(label_args), cli.main(reduce_args)]
        assert codes == [0, 0], codes
        table = json.loads((work / f"{tag}_l" / "labels.json").read_text())
        reports = json.loads((work / f"{tag}_r" / "reports.json").read_text())
        exports = {n: (work / f"{tag}_r" / f"reduced_top{n}.jsonl").read_text()
                   for n in ns}
        return table, reports, exports

    # Planted workloads (eval-100k, hub-fanout): labels, reports, export.
    labeled = inputs.synth_corpus(11, (5, 4, 3))
    evaluation = inputs.add_hubs(inputs.synth_corpus(12, (20, 15, 10)), 13,
                                 hubs=1, reads=40)
    ns = [3, 10]
    table, reports, exports = run_pipeline("planted", labeled, evaluation, ns)
    records = checks.Records.from_lines(evaluation.lines)
    incident = records.incident_ids()
    export_expect = checks.ExportExpectation(records)
    removed = {n: evaluation.pattern_ids for n in ns}
    malicious = evaluation.malicious_ids

    expect("top labels, real output",
           checks.check_top_labels(table, (5, 4, 3)), False)
    bad = copy.deepcopy(table)
    top = checks.ranked_benign(bad)[0]
    top["member_count"] -= 1
    expect("top labels, one member count lowered",
           checks.check_top_labels(bad, (5, 4, 3)), True)
    bad = copy.deepcopy(table)
    bad["assignment"].append(0)
    expect("top labels, one assignment added",
           checks.check_top_labels(bad, (5, 4, 3)), True)

    expect("reports, real output",
           checks.check_reports(reports, ns, incident, removed, malicious),
           False)
    for key, delta in (("nodes_removed", -1), ("nodes_after", 1),
                       ("fn_count", 1), ("fp_count", -1),
                       ("reduction_rate", 0.01), ("total_nodes_before", 1)):
        bad = copy.deepcopy(reports)
        bad[-1][key] += delta
        expect(f"reports, {key} off by {delta}",
               checks.check_reports(bad, ns, incident, removed, malicious),
               True)
    expect("reports, one n missing",
           checks.check_reports(reports[:1], ns, incident, removed, malicious),
           True)

    text = exports[ns[0]]
    lines = text.splitlines()
    expect("export, real output",
           checks.check_export(text, export_expect, removed[ns[0]]), False)
    event_at = next(i for i, x in enumerate(lines) if '"kind":"event"' in x)
    expect("export, one event deleted",
           checks.check_export("\n".join(lines[:event_at]
                                         + lines[event_at + 1:]),
                               export_expect, removed[ns[0]]), True)
    dropped = sorted(removed[ns[0]])[0]
    expect("export, one removed id dropped from the removal",
           checks.check_export(text + json.dumps(records.nodes[dropped]),
                               export_expect, removed[ns[0]]), True)
    node_at = next(i for i, x in enumerate(lines) if '"kind":"event"' not in x)
    expect("export, one kept node deleted",
           checks.check_export("\n".join(lines[:node_at]
                                         + lines[node_at + 1:]),
                               export_expect, removed[ns[0]]), True)
    event = json.loads(lines[event_at])
    event["ts"] += 1
    expect("export, one event timestamp altered",
           checks.check_export("\n".join(lines[:event_at] + [json.dumps(event)]
                                         + lines[event_at + 1:]),
                               export_expect, removed[ns[0]]), True)

    # Dense workload (label-dense): sequential labels and brute-force match.
    activity = inputs.dense_activity(21, processes=20, files=60, events=200)
    dense_lab = inputs.Corpus(lines=inputs.dense_lines(activity, "a:", 0))
    dense_eval = inputs.Corpus(lines=inputs.dense_lines(
        activity, "b:", inputs.DENSE_REPLAY_SHIFT))
    ns = [2, 20]
    table, reports, exports = run_pipeline("dense", dense_lab, dense_eval, ns)
    features, chains = chain_reference(dense_lab.lines)
    eval_features, eval_chains = chain_reference(dense_eval.lines)

    def labels(tbl):
        return checks.check_sequential_labels(tbl, features, chains, set(),
                                              cutoff)

    expect("sequential labels, real output", labels(table), False)
    joined = next(i for i, a in enumerate(table["assignment"])
                  if table["assignment"].index(a) != i)
    bad = copy.deepcopy(table)
    bad["assignment"][joined] = (bad["assignment"][joined] + 1) \
        % len(bad["labels"])
    expect("sequential labels, one assignment changed", labels(bad), True)
    bad = copy.deepcopy(table)
    old = bad["assignment"][joined]
    new = next(lb["label_id"] for lb in bad["labels"]
               if lb["label_id"] != old
               and bad["assignment"].index(lb["label_id"]) < joined)
    bad["assignment"][joined] = new
    bad["labels"][old]["member_count"] -= 1
    bad["labels"][new]["member_count"] += 1
    expect("sequential labels, one assignment changed, counts kept "
           "consistent", labels(bad), True)
    bad = copy.deepcopy(table)
    bad["labels"][0]["member_count"] += 1
    expect("sequential labels, one member count raised", labels(bad), True)
    bad = copy.deepcopy(table)
    bad["labels"][1]["representative"][0] += 1e-3
    expect("sequential labels, one representative perturbed", labels(bad),
           True)
    bad = copy.deepcopy(table)
    founder = table["assignment"].index(1)
    bad["assignment"][founder] = 0
    bad["labels"][0]["member_count"] += 1
    bad["labels"][1]["member_count"] -= 1
    expect("sequential labels, a founding chain moved to label 0",
           labels(bad), True)
    bad = copy.deepcopy(table)
    bad["labels"][0]["polarity"] = "malicious"
    expect("sequential labels, one polarity flipped", labels(bad), True)

    dense_removed = checks.brute_force_removed(table, eval_features,
                                               eval_chains, ns, cutoff)
    dense_records = checks.Records.from_lines(dense_eval.lines)
    dense_expect = checks.ExportExpectation(dense_records)
    expect("brute-force removal is non-empty at every n",
           [] if all(dense_removed.values()) else ["empty"], False)
    expect("dense reports, real output",
           checks.check_reports(reports, ns, dense_records.incident_ids(),
                                dense_removed, set()), False)
    for n in ns:
        expect(f"dense export n={n}, real output",
               checks.check_export(exports[n], dense_expect, dense_removed[n]),
               False)
    smaller = set(sorted(dense_removed[ns[-1]])[1:])
    expect("dense export, one id missing from the expected removal",
           checks.check_export(exports[ns[-1]], dense_expect, smaller), True)
    bad = copy.deepcopy(reports)
    bad[0]["nodes_removed"] += 1
    expect("dense reports, nodes_removed off by one",
           checks.check_reports(bad, ns, dense_records.incident_ids(),
                                dense_removed, set()), True)

    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass
    failed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} cases behaved as "
          f"expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
