"""provprune benchmark: one workload, one seed, one timed run.

Usage, from the root of a provprune checkout:

    python3 perfbench/run.py --workload eval-100k --seed 1 --seconds 20 \
        --trace 0

With --trace 0 each round runs the real CLI in child processes (`provprune
--version`, `label`, `reduce`) and times each one from outside. With
--trace 1 each round runs the same label and reduce commands in-process under
perfbench/trace.py instead, and reports per-layer metrics. Rounds repeat
until --seconds have passed. Every command's outputs are checked; the last
stdout line is one JSON object with the run's result.
"""

from __future__ import annotations

import os

# Set before numpy loads here; children get the same through CHILD_ENV.
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"

# `provprune --version` runs per round; their median is setup_s.
SETUP_REPEATS = 5
# A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
# Child times are reported at the machine speed where the calibration loop
# of perfbench/launcher.py takes this long (its time here when uncontended).
CALIBRATION_REF_S = 0.005
# Calibration before and after a child lasts this share of the child's
# previous duration, and at least CALIBRATION_MIN_S, so that it spans a
# comparable stretch of the machine's speed.
CALIBRATION_SHARE = 0.1
CALIBRATION_MIN_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "label_s": "s",
    "reduce_s": "s",
    "label_peak_rss_mb": "MB",
    "reduce_peak_rss_mb": "MB",
}
PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.events_accepted": "count",
    "ingest.records_rejected": "count",
    "ingest.corpus_stats_s": "s",
    "embed.weights_s": "s",
    "graph.build_s": "s",
    "graph.remove_s": "s",
    "graph.export_s": "s",
    "graph.export_bytes": "bytes",
    "nodeset.enumerate_s": "s",
    "nodeset.anchor_edges": "count",
    "nodeset.chains": "count",
    "nodeset.capped_anchors": "count",
    "nodeset.chains_per_anchor": "chains/anchor",
    "nodeset.featurize_s": "s",
    "embed.node_vector_s": "s",
    "embed.node_vector_calls": "count",
    "embed.distinct_texts": "count",
    "label.label_s": "s",
    "label.sets_labeled": "count",
    "label.labels_minted": "count",
    "label.iocs_s": "s",
    "label.malicious_nodes": "count",
    "label.table_load_s": "s",
    "label.table_bytes": "bytes",
    "reduce.sweep_self_s": "s",
    "reduce.reps_used": "count",
    "reduce.match_pairs": "count",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    # seed -> (labeled corpus, evaluation corpus)
    make: Callable[[int], tuple[inputs.Corpus, inputs.Corpus]]
    top_n: tuple[int, ...]
    # label runs per round; cheap label commands repeat for a steady median
    label_repeats: int
    # True: check labels.json against a recomputed sequential labeling;
    # False: check that the planted patterns are the top benign labels.
    sequential_check: bool


WORKLOADS = {w.name: w for w in (
    Workload("eval-100k", inputs.eval_100k, (3, 10, 100), 5, False),
    Workload("hub-fanout", inputs.hub_fanout, (3, 10, 100), 5, False),
    Workload("label-dense", inputs.label_dense, (10, 100, 4000), 1, True),
)}


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import provprune from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import provprune

    if Path(provprune.__file__).resolve().parent != SRC / "provprune":
        _fail_setup(f"imported provprune from {provprune.__file__}, "
                    f"not from {SRC}")


CHILD_ENV = dict(os.environ)
CHILD_ENV.update(THREAD_ENV)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])


@dataclass
class Child:
    code: int
    seconds: float
    peak_rss_mb: float
    stdout: str
    calibration_s: float

    @property
    def scaled_s(self) -> float:
        """Wall time rescaled to the reference machine speed."""
        return self.seconds * CALIBRATION_REF_S / self.calibration_s


class Launcher:
    """Client of perfbench/launcher.py, a separate process that stays small."""

    def __init__(self):
        self.last_seconds: dict[str, float] = {}
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
            env=CHILD_ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def run(self, kind: str, argv: list[str], log_dir: Path) -> Child:
        """Run one child to completion; peak RSS is that child's alone."""
        out_path, err_path = log_dir / "child.out", log_dir / "child.err"
        calibrate_s = max(CALIBRATION_MIN_S,
                          CALIBRATION_SHARE * self.last_seconds.get(kind, 0.0))
        self.proc.stdin.write(json.dumps({
            "argv": argv, "stdout": str(out_path), "stderr": str(err_path),
            "timeout": CHILD_TIMEOUT_S, "calibrate_s": calibrate_s}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.last_seconds[kind] = reply["seconds"]
        if reply["code"] != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"perfbench: {' '.join(argv[-12:])} exited "
                  f"{reply['code']}:\n{tail}", file=sys.stderr)
        return Child(code=reply["code"], seconds=reply["seconds"],
                     peak_rss_mb=reply["maxrss_kb"] / 1024.0,
                     stdout=out_path.read_text(errors="replace"),
                     calibration_s=reply["calibration_s"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def provprune_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "provprune", *args]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_lines(path: Path, lines: list[str]) -> None:
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    path.write_bytes(data)
    print(f"input {path.name}: {len(lines)} lines, sha256 {_sha(data)}")


def chain_reference(lines: list[str]):
    """Chains and features of a corpus, from the library at default settings.

    The sequential-labeling and brute-force match checks take these as given
    and recompute only what follows them.
    """
    import numpy as np
    from provprune.embed import HashNgramEmbedder, compute_weights
    from provprune.graph import build_graph
    from provprune.ingest import compute_corpus_stats, parse_stream
    from provprune.nodeset import enumerate_node_sets, featurize_sets

    nodes, events, _ = parse_stream(lines)
    graph = build_graph(nodes, events)
    weights = compute_weights(compute_corpus_stats(graph.events,
                                                   graph.nodes.values()),
                              graph.nodes)
    sets = featurize_sets(enumerate_node_sets(graph), graph, weights,
                          HashNgramEmbedder())
    features = np.array([s.feature for s in sets], dtype=np.float64)
    return features, [s.node_ids for s in sets]


class Run:
    """Inputs, expected outputs and operation tallies of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, work: Path,
                 launcher: Launcher):
        from provprune.embed import effective_threshold

        self.launcher = launcher
        self.workload = workload
        self.work = work
        self.cutoff = effective_threshold(1.0)
        labeled, evaluation = workload.make(seed)
        self.lab_path = work / "labeled.jsonl"
        self.eval_path = work / "eval.jsonl"
        _write_lines(self.lab_path, labeled.lines)
        _write_lines(self.eval_path, evaluation.lines)
        self.lab_iocs = self.eval_iocs = None
        if labeled.iocs:
            self.lab_iocs = work / "labeled_iocs.tsv"
            _write_lines(self.lab_iocs, labeled.iocs)
        if evaluation.iocs:
            self.eval_iocs = work / "eval_iocs.tsv"
            _write_lines(self.eval_iocs, evaluation.iocs)

        self.label_out = work / "label_out"
        self.reduce_out = work / "reduce_out"
        records = checks.Records.from_lines(evaluation.lines)
        self.incident = records.incident_ids()
        self.export = checks.ExportExpectation(records)
        self.pattern_ids = evaluation.pattern_ids
        self.malicious = evaluation.malicious_ids
        self.lab_malicious = labeled.malicious_ids
        self.lab_ref = self.eval_ref = None
        if workload.sequential_check:
            self.lab_ref = chain_reference(labeled.lines)
            self.eval_ref = chain_reference(evaluation.lines)
        self.memo: dict[tuple, list[str]] = {}
        self.unscaled: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str, problems=()) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            detail = "; ".join(problems)[:1000]
            print(f"perfbench: FAILED {what} {detail}", file=sys.stderr)

    def label_args(self) -> list[str]:
        args = ["label", "--labeled", str(self.lab_path),
                "--out", str(self.label_out)]
        if self.lab_iocs:
            args += ["--iocs", str(self.lab_iocs)]
        return args

    def reduce_args(self) -> list[str]:
        args = ["reduce", "--eval", str(self.eval_path),
                "--labels", str(self.label_out / "labels.json"),
                "--top-n", ",".join(map(str, self.workload.top_n)),
                "--emit-graph", "--out", str(self.reduce_out)]
        if self.eval_iocs:
            args += ["--iocs", str(self.eval_iocs)]
        return args

    def _cached(self, key: tuple, compute) -> list[str]:
        """An output byte-identical to one checked before keeps its verdict."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def _labels(self) -> tuple[str, dict | None]:
        try:
            data = (self.label_out / "labels.json").read_bytes()
            return _sha(data), json.loads(data)
        except (OSError, ValueError):
            return "", None

    def _expected_removed(self, sha: str, table: dict) -> dict[int, set[str]]:
        ns = self.workload.top_n
        if self.eval_ref is None:
            return {n: self.pattern_ids for n in ns}
        key = ("removed", sha)
        if key not in self.memo:
            features, nodes = self.eval_ref
            self.memo[key] = checks.brute_force_removed(
                table, features, nodes, list(ns), self.cutoff)
        return self.memo[key]

    def check_labels(self) -> None:
        sha, table = self._labels()
        if table is None:
            self.op(False, "label output check", ["labels.json unreadable"])
            return

        def compute():
            if self.lab_ref is None:
                return checks.check_top_labels(table, inputs.LABEL_REPS)
            features, nodes = self.lab_ref
            return checks.check_sequential_labels(
                table, features, nodes, self.lab_malicious, self.cutoff)

        problems = self._cached(("labels", sha), compute)
        self.op(not problems, "label output check", problems)

    def check_reduce(self) -> None:
        """One reports check, then one export check per n."""
        ns = self.workload.top_n
        sha, table = self._labels()
        try:
            reports = json.loads(
                (self.reduce_out / "reports.json").read_text())
        except (OSError, ValueError):
            reports = None
        if table is None or reports is None:
            for what in ["reports check", *(f"export check n={n}"
                                            for n in ns)]:
                self.op(False, what, ["outputs missing"])
            return
        removed_by_n = self._expected_removed(sha, table)
        problems = checks.check_reports(reports, list(ns), self.incident,
                                        removed_by_n, self.malicious)
        problems += [f"n={n}: removal is empty" for n in ns
                     if not removed_by_n[n]]
        self.op(not problems, "reports check", problems)
        for n in ns:
            path = self.reduce_out / f"reduced_top{n}.jsonl"
            try:
                data = path.read_bytes()
            except OSError:
                self.op(False, f"export check n={n}", [f"{path.name} missing"])
                continue
            removed = removed_by_n[n]
            key = ("export", _sha(data), frozenset(removed))
            problems = self._cached(key, lambda: checks.check_export(
                data.decode("utf-8"), self.export, removed))
            self.op(not problems, f"export check n={n}", problems)

    def fresh(self, *dirs: Path) -> None:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)

    def end_to_end_round(self, samples: dict[str, list[float]]) -> None:
        for _ in range(SETUP_REPEATS):
            child = self.launcher.run(
                "setup", provprune_argv(["--version"]), self.work)
            self.op(child.code == 0 and child.stdout.strip() != "",
                    "provprune --version")
            samples["setup_s"].append(child.scaled_s)
            self.unscaled.setdefault("setup_s", []).append(child.seconds)
        for _ in range(self.workload.label_repeats):
            self.fresh(self.label_out)
            child = self.launcher.run(
                "label", provprune_argv(self.label_args()), self.work)
            self.op(child.code == 0, "provprune label")
            samples["label_s"].append(child.scaled_s)
            self.unscaled.setdefault("label_s", []).append(child.seconds)
            samples["label_peak_rss_mb"].append(child.peak_rss_mb)
            self.check_labels()
        self.fresh(self.reduce_out)
        child = self.launcher.run(
            "reduce", provprune_argv(self.reduce_args()), self.work)
        self.op(child.code == 0, "provprune reduce")
        samples["reduce_s"].append(child.scaled_s)
        self.unscaled.setdefault("reduce_s", []).append(child.seconds)
        samples["reduce_peak_rss_mb"].append(child.peak_rss_mb)
        self.check_reduce()

    def traced_round(self, samples: dict[str, list[float]]) -> None:
        self.fresh(self.label_out, self.reduce_out)
        result_path = self.work / "trace_result.json"
        result_path.unlink(missing_ok=True)
        job_path = self.work / "trace_job.json"
        job_path.write_text(json.dumps({
            "commands": [self.label_args(), self.reduce_args()],
            "result": str(result_path)}))
        child = self.launcher.run(
            "trace",
            [sys.executable, str(HERE / "trace.py"), str(ROOT), str(job_path)],
            self.work)
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = {"exit_codes": [child.code or 1] * 6, "metrics": {}}
        for code in result["exit_codes"]:
            self.op(code == 0, "in-process command")
        for name, value in result["metrics"].items():
            samples.setdefault(name, []).append(value)
        self.check_labels()
        self.check_reduce()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "provprune" / "__init__.py").is_file():
        _fail_setup(f"no provprune sources under {SRC}; run from the root "
                    f"of a provprune checkout")
    # One CPU for this process and every child, so that each child and the
    # calibration runs around it share the same CPU's speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    launcher = Launcher()
    workload = WORKLOADS[args.workload]
    work = (ROOT / ".perfbench_work"
            / f"{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _import_program()
        run = Run(workload, args.seed, work, launcher)
        units = PER_LAYER if args.trace else END_TO_END
        samples: dict[str, list[float]] = {name: [] for name in units}
        one_round = run.traced_round if args.trace else run.end_to_end_round
        rounds = 0
        started = time.perf_counter()
        while True:
            one_round(samples)
            rounds += 1
            if time.perf_counter() - started >= args.seconds:
                break
        print(f"rounds: {rounds}")
        for name, values in run.unscaled.items():
            print(f"unscaled {name}: median {statistics.median(values):.4f} s "
                  f"of {len(values)}")
        metrics = {name: {"value": statistics.median(values),
                          "unit": units[name]}
                   for name, values in samples.items()
                   if values and name in units}
        result = {"correct": run.failed == 0, "attempted": run.attempted,
                  "failed": run.failed, "metrics": metrics}
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
