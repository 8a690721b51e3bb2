"""Measure a change against its parent in alternating pairs of benchmark runs.

Usage, from the root of a provprune checkout:

    python3 bench/pairs.py PARENT CHANGE --workload eval-100k --pairs 10

PARENT and CHANGE are two checkouts of the program (made with `git clone` or
`git archive`). Each pair runs `perfbench/run.py --trace 0` at seed 1 for
BENCHMARK.json's run_seconds once in each checkout, one after the other:
the parent first in odd pairs, the change first in even ones.

It prints every run's end-to-end metrics, then, for each metric, the
parent's and the change's medians, the distance between the parent's
quartiles, in how many pairs the change read lower, and the change's median
against the parent's in % beside the metric's BENCHMARK.json bound. The
last cell reads WORSE when the change is worse than the parent by more than
that bound, in the metric's `better` direction. A run that prints no result
line counts as failed and gives no metrics; so does a run whose result is
not correct or counts a failed operation. The exit code is 1 if any run
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def result_of(stdout: str) -> dict | None:
    """The perfbench result in a run's standard output, or None if its last
    line is not one."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"),
                                                      dict):
        return None
    return result


def run_ok(result: dict | None) -> bool:
    return (result is not None and result.get("correct") is True
            and result.get("failed") == 0)


def metric(result: dict | None, name: str) -> float | None:
    if not run_ok(result) or name not in result["metrics"]:
        return None
    return result["metrics"][name]["value"]


def summarize(metrics: list[dict],
              pairs: list[tuple[dict | None, dict | None]]) -> list[dict]:
    """Per end-to-end metric of BENCHMARK.json: each side's median, the
    parent's quartile distance, the pairs where both runs gave the metric
    and the change read lower, the change's median against the parent's in
    %, the metric's bound, and whether the change is worse than the parent
    by more than the bound."""
    rows = []
    for entry in metrics:
        name = entry["name"]
        values = {side: [metric(pair[i], name) for pair in pairs]
                  for i, side in enumerate(SIDES)}
        both = [(p, c) for p, c in zip(values["parent"], values["change"])
                if p is not None and c is not None]
        row = {"metric": name, "pairs": len(both),
               "change_lower": sum(c < p for p, c in both)}
        present = {side: [v for v in values[side] if v is not None]
                   for side in SIDES}
        for side in SIDES:
            row[f"{side}_median"] = (statistics.median(present[side])
                                     if present[side] else None)
        parent = present["parent"]
        if len(parent) >= 2:
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
            row["parent_iqr"] = q3 - q1
        else:
            row["parent_iqr"] = None
        parent_median, change_median = (row["parent_median"],
                                        row["change_median"])
        row["change_pct"] = (None if not parent_median or change_median is None
                             else 100 * (change_median / parent_median - 1))
        row["bound"] = entry["bound"]
        sign = 1 if entry["better"] == "lower" else -1
        row["worse"] = (row["change_pct"] is not None
                        and sign * row["change_pct"] > 100 * entry["bound"])
        rows.append(row)
    return rows


def describe_run(label: str, result: dict | None, names: list[str]) -> str:
    if result is None:
        return f"{label}: FAILED, no result line"
    values = "  ".join(
        f"{name} {result['metrics'][name]['value']:.4f}"
        for name in names if name in result["metrics"])
    state = "" if run_ok(result) else "  FAILED"
    return (f"{label}: {values}  (attempted {result.get('attempted')}, "
            f"failed {result.get('failed')}, correct "
            f"{result.get('correct')}){state}")


def describe_summary(rows: list[dict]) -> list[str]:
    def cell(value):
        return "-" if value is None else f"{value:.4f}"

    lines = [f"{'metric':<20} {'parent':>9} {'change':>9} "
             f"{'parent IQR':>10}  {'lower':<5} {'vs parent':>9} {'bound':>6}"]
    for row in rows:
        lower = f"{row['change_lower']}/{row['pairs']}"
        pct = ("-" if row["change_pct"] is None
               else f"{row['change_pct']:+.2f}%")
        lines.append(f"{row['metric']:<20} {cell(row['parent_median']):>9} "
                     f"{cell(row['change_median']):>9} "
                     f"{cell(row['parent_iqr']):>10}  {lower:<5} "
                     f"{pct:>9} {row['bound'] * 100:>5g}%"
                     + ("  WORSE" if row["worse"] else ""))
    return lines


def run_once(checkout: Path, bench: dict, workload: str) -> dict | None:
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", workload,
         "--seed", "1", "--seconds", str(bench["run_seconds"]),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    result = result_of(proc.stdout)
    if result is None:
        print(f"  exit {proc.returncode}: {proc.stderr[-2000:]}",
              file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]
    names = [entry["name"] for entry in metrics]
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for k in range(1, args.pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        results = {}
        for side in order:
            results[side] = run_once(checkouts[side], bench, args.workload)
            print(describe_run(f"pair {k} {side}", results[side], names),
                  flush=True)
        pairs.append((results["parent"], results["change"]))
    print("\n".join(describe_summary(summarize(metrics, pairs))))
    return 0 if all(run_ok(r) for pair in pairs for r in pair) else 1


if __name__ == "__main__":
    sys.exit(main())
