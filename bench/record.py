"""Record the benchmark: one bench/BENCH_<workload>.json per workload.

Usage, from the root of a provprune checkout:

    python3 bench/record.py

Each workload of BENCHMARK.json runs `perfbench/run.py --trace 0` at seed 1
for BENCHMARK.json's run_seconds, as a child process of this interpreter. Its
result line (end-to-end metrics, operations attempted and failed) is written
to bench/BENCH_<workload>.json, with the processors this process may use, the
Python, numpy and orjson versions, and the commit measured. Committing the
files after a change keeps the performance trajectory in git.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def record(workload: str, result_line: str, commit: str) -> dict:
    """The BENCH file's content for one workload's perfbench result line."""
    return {
        "workload": workload,
        "result": json.loads(result_line),
        "nproc": (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "orjson": version("orjson"),
        "commit": commit,
    }


def write_record(out_dir: Path, entry: dict) -> Path:
    path = out_dir / f"BENCH_{entry['workload']}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    failed = False
    for workload in bench["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", name,
             "--seed", "1", "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            entry = record(name, lines[-1], commit)
        except (IndexError, ValueError):
            print(f"record: {name} gave no result line (exit "
                  f"{proc.returncode}):\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            failed = True
            continue
        failed = failed or proc.returncode != 0
        print(f"wrote {write_record(HERE, entry).relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
