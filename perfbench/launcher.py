"""Small process that starts, times and reaps the benchmark's children.

Linux records the parent's memory high-water mark in a child's peak RSS
when the child execs, so a child started straight from the benchmark
process, which holds the inputs and the expected outputs, would report that
process's size rather than its own. This launcher is started before any of
that is loaded and stays small.

The speed of this machine's CPUs drifts by a factor of up to two, over
seconds to minutes, as other tenants' load comes and goes. So the launcher
also times a fixed calibration loop on the same CPU for `calibrate_s`
right before and right after each child; the benchmark divides the child's
time by the loop's mean time.

Protocol: one JSON job per stdin line, {"argv", "stdout", "stderr",
"timeout", "calibrate_s"}; one JSON reply per stdout line, {"code",
"seconds", "maxrss_kb", "calibration_s"}, the last being the loop's mean
time before and after. Children run in the launcher's working directory and
environment, and share its CPU.
"""

import json
import os
import subprocess
import sys
import threading
import time
from bisect import bisect_left


_RECORDS = [json.dumps({"kind": "event", "subject": f"h0:p{i}",
                       "object": f"h0:f{i % 97}", "syscall": "read",
                       "ts": 1_000_000_000 + 1000 * i}, sort_keys=True)
            for i in range(400)]
# A small temporal graph: per node, (ts, edge, neighbor) sorted by ts.
_ADJ = [sorted(((i * 37 + k * 11) % 500, i * 10 + k, (i * 7 + k * 13) % 60)
               for k in range(12))
        for i in range(60)]
_TS = [[entry[0] for entry in entries] for entries in _ADJ]


def _paths(tail: int, last_ts: int, visited: set, depth: int) -> int:
    if depth == 4:
        return 1
    found = 0
    entries = _ADJ[tail]
    for pos in range(bisect_left(_TS[tail], last_ts), len(entries)):
        ts, _, neighbor = entries[pos]
        if neighbor not in visited:
            visited.add(neighbor)
            found += _paths(neighbor, ts, visited, depth + 1)
            visited.discard(neighbor)
    return found


def calibration_loop() -> None:
    """Fixed, interpreter-bound work of two kinds the program does.

    It decodes JSON records into dicts and walks time-ordered paths
    depth-first, like ingest and node-set enumeration.
    """
    counts: dict[str, int] = {}
    for _ in range(2):
        for line in _RECORDS:
            obj = json.loads(line)
            key = obj["object"]
            counts[key] = counts.get(key, 0) + obj["ts"] % 7
    for start in range(0, 60, 15):
        _paths(start, 0, {start}, 0)


def calibrate(span_s: float) -> float:
    """Mean seconds per calibration loop, over whole loops filling span_s."""
    loops = 0
    t0 = time.perf_counter()
    while True:
        calibration_loop()
        loops += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= span_s:
            return elapsed / loops


def run(job: dict) -> dict:
    before = calibrate(job["calibrate_s"])
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(job["argv"], stdout=out, stderr=err)
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    # wait4 reaped the child; tell Popen so it never waits on the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "seconds": seconds,
            "maxrss_kb": usage.ru_maxrss,
            "calibration_s": (before + calibrate(job["calibrate_s"])) / 2.0}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
