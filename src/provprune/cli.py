"""Command-line front end driving the four pipeline phases.

Subcommands: stats, synth, label, reduce, report. Each command takes only
the settings it reads: defaults, then config file, PROVPRUNE_SEED (label
only) and flags. reduce runs at the settings stamped on its label table.
Every label or reduce run writes one record, label_metrics.json or
reduce_metrics.json: its settings (a record, not a config file), stage
seconds, peak RSS and counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .embed import DEFAULT_DIM, DEFAULT_SEED, compute_weights, get_embedder
from .graph import build_graph, remove_nodes, save_graph, summarize
from .ingest import (cmdline_frequency, compute_corpus_stats, parse_file,
                     top_commands)
from .label import (build_malicious_list, file_sha256, label_node_sets,
                    label_table_from_json, parse_ioc_file, sidecar_path,
                    write_sidecar)
from .nodeset import (DEFAULT_CAP_PER_ANCHOR, DEFAULT_SET_SIZE, chain_counts,
                      enumerate_node_sets, featurize_sets)
from .reduce import sweep_top_n, write_sweep_csv
from .synthgen import generate, ioc_file_lines, sample_spec_json, spec_from_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


@dataclass
class LabelConfig:
    """Resolved settings of one label run."""

    labeled: str | None = None
    iocs: str | None = None
    out_dir: str = "."
    # None: the embedder's width, which is a vectors file's own.
    dim: int | None = None
    seed: int = DEFAULT_SEED
    model: str = "hash-ngrams"
    set_size: int = DEFAULT_SET_SIZE
    cap_per_anchor: int = DEFAULT_CAP_PER_ANCHOR
    threshold: float = 1.0
    synthesize_dangling: bool = False

    def validate(self) -> None:
        for name, ok, rule in (
                ("dim", self.dim is None or self.dim >= 8, "at least 8"),
                ("set_size", self.set_size >= 2, "at least 2"),
                ("threshold", -1.0 <= self.threshold <= 1.0, "in [-1, 1]"),
                ("cap_per_anchor", self.cap_per_anchor >= 0, "0 or more")):
            if not ok:
                raise ValueError(f"{name!r} must be {rule}, "
                                 f"got {getattr(self, name)!r}")


@dataclass
class ReduceConfig:
    """Resolved settings of one reduce run."""

    eval_corpus: str | None = None
    labels_file: str | None = None
    iocs: str | None = None
    out_dir: str = "."
    model: str = "hash-ngrams"
    top_n: list[int] = field(default_factory=lambda: [3, 10, 100])
    synthesize_dangling: bool = False
    emit_dot: bool = False
    emit_removed_ids: bool = False
    emit_graph: bool = False
    include_isolated_nodes: bool = False

    def validate(self) -> None:
        if any(n < 0 for n in self.top_n):
            raise ValueError("top-n entries must be non-negative")
        self.top_n = sorted(set(self.top_n))


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with the documented code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--out", dest="out_dir", help="output directory")
    sub.add_argument("--model", help="hash-ngrams or vectors-file:<path>")
    sub.add_argument("--synthesize-dangling", action="store_true",
                     help="mint placeholder nodes for undeclared event endpoints")


def build_parser() -> _Parser:
    parser = _Parser(prog="provprune",
                     description="Extract frequent benign activity patterns "
                                 "and prune matching nodes from provenance "
                                 "graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    p_stats = commands.add_parser("stats", parents=[], help="corpus statistics")
    p_stats.add_argument("input", help="record stream (JSONL)")
    p_stats.add_argument("--top", type=int, default=10,
                         help="command lines to rank")
    p_stats.add_argument("--out", help="write the JSON report here")
    p_stats.add_argument("--synthesize-dangling", action="store_true")

    p_synth = commands.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("spec", nargs="?", help="SynthSpec JSON file")
    p_synth.add_argument("--out", dest="out_dir", default=".",
                         help="output directory")
    p_synth.add_argument("--sample-spec", action="store_true",
                         help="print a starter spec and exit")

    p_label = commands.add_parser("label", help="build the label table",
                                  argument_default=argparse.SUPPRESS)
    p_label.add_argument("--labeled", required=True, help="labeled corpus path")
    p_label.add_argument("--iocs", help="IoC file (tab-separated directives)")
    p_label.add_argument("--dim", type=int, help="embedding width")
    p_label.add_argument("--seed", type=int, help="embedding seed")
    p_label.add_argument("--set-size", type=int, help="nodes per node-set")
    p_label.add_argument("--cap-per-anchor", type=int,
                         help="chains kept per anchor edge, 0 = unlimited")
    p_label.add_argument("--threshold", type=float, help="cosine cutoff")
    _add_run_options(p_label)

    p_reduce = commands.add_parser("reduce", help="prune the evaluation graph",
                                   argument_default=argparse.SUPPRESS)
    p_reduce.add_argument("--eval", dest="eval_corpus", required=True,
                          help="evaluation corpus path")
    p_reduce.add_argument("--labels", dest="labels_file", required=True,
                          help="label table from a previous label run")
    p_reduce.add_argument("--iocs", help="IoC file scoring the evaluation graph")
    p_reduce.add_argument("--top-n", help="comma-separated label counts")
    p_reduce.add_argument("--emit-dot", action="store_true",
                          help="also export reduced graphs as Graphviz")
    p_reduce.add_argument("--emit-removed-ids", action="store_true",
                          help="list removed node ids in reports")
    p_reduce.add_argument("--emit-graph", action="store_true",
                          help="export the reduced graph per n")
    p_reduce.add_argument("--include-isolated-nodes", action="store_true",
                          help="count isolated nodes in reduction denominators")
    _add_run_options(p_reduce)

    p_report = commands.add_parser("report", help="render saved reports")
    p_report.add_argument("reports", help="reports.json from a reduce run")
    return parser


_STR = (lambda v: isinstance(v, str), "a string")
_INT = (lambda v: type(v) is int, "an integer")
_NUM = (lambda v: type(v) in (int, float), "a number")
_INTS = (lambda v: type(v) is list and all(type(x) is int for x in v),
         "a list of integers")
# Config-file keys, dotted under their group, with the settings field each
# sets and the JSON type it must have; a command accepts only those it reads.
_SHAPE_KEYS = {
    "embed.dim": ("dim", _INT), "embed.seed": ("seed", _INT),
    "nodeset.size": ("set_size", _INT),
    "nodeset.cap_per_anchor": ("cap_per_anchor", _INT),
    "label.threshold": ("threshold", _NUM)}
_RUN_KEYS = {"iocs": ("iocs", _STR), "out_dir": ("out_dir", _STR),
             "embed.model": ("model", _STR)}
_LABEL_KEYS = {**_RUN_KEYS, **_SHAPE_KEYS}
_REDUCE_KEYS = {**_RUN_KEYS, "reduce.top_n": ("top_n", _INTS)}
_STAMP_KEYS = {attr: (attr, kind) for attr, kind in _SHAPE_KEYS.values()}


def _set_checked(cfg, settings: dict, keys: dict, what: str) -> None:
    """Set cfg from settings by keys; other keys and types are errors."""
    for key, value in settings.items():
        if key not in keys:
            raise ValueError(f"unknown {what} {key!r}")
        attr, (valid, expected) = keys[key]
        if not valid(value):
            raise ValueError(f"{what} {key!r} must be {expected}, "
                             f"got {value!r}")
        setattr(cfg, attr, value)


def _resolve_config(args: argparse.Namespace, cfg, keys: dict):
    """cfg from its config file's keys, PROVPRUNE_SEED and flags; checked."""
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"config file {args.config} is not a JSON object")
        flat = {}
        for name, value in obj.items():
            if name in ("embed", "nodeset", "label", "reduce"):
                if not isinstance(value, dict):
                    raise ValueError(f"config group {name!r} is not an object")
                flat.update((f"{name}.{key}", v) for key, v in value.items())
            elif "." in name:
                raise ValueError(f"unknown config key {name!r}")
            else:
                flat[name] = value
        _set_checked(cfg, flat, keys, "config key")

    env_seed = os.environ.get("PROVPRUNE_SEED")
    if env_seed is not None and "embed.seed" in keys:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ValueError(f"PROVPRUNE_SEED must be an integer, "
                             f"got {env_seed!r}") from None

    # A flag left out is absent from the namespace (argument_default is
    # SUPPRESS), so a settings field found there was given on the line.
    settings = {f.name for f in fields(cfg)} - {"top_n"}
    for name, value in vars(args).items():
        if name in settings:
            setattr(cfg, name, value)
    if getattr(args, "top_n", None):
        try:
            cfg.top_n = [int(x) for x in args.top_n.split(",") if x.strip()]
        except ValueError:
            raise ValueError(f"--top-n expects integers, got {args.top_n!r}") \
                from None
    cfg.validate()
    return cfg


def _stamp(cfg: LabelConfig) -> dict:
    """The settings that shape a label table. A vectors file is named by the
    sha256 of its bytes, not by its path."""
    model = cfg.model
    if model.startswith("vectors-file:"):
        model = f"vectors-file sha256={file_sha256(model.split(':', 1)[1])}"
    return {"version": __version__, "model": model,
            **{key: getattr(cfg, key) for key in _STAMP_KEYS},
            "threshold": float(cfg.threshold)}


def _load_table(cfg: ReduceConfig):
    """The label table at cfg.labels_file and the LabelConfig its stamp
    holds; a stamp of bad values, another version or model is an error."""
    text = Path(cfg.labels_file).read_bytes().decode("utf-8")
    sidecar = sidecar_path(cfg.labels_file)
    table, stamp = label_table_from_json(text, sidecar)
    labeled = LabelConfig(model=cfg.model)
    try:
        _set_checked(labeled, {key: stamp.get(key) for key in _STAMP_KEYS},
                     _STAMP_KEYS, "key")
        labeled.validate()
    except ValueError as exc:
        raise ValueError(f"label table {sidecar}: stamp {exc}; rerun label") \
            from None
    for key, value in _stamp(labeled).items():
        if stamp.get(key) != value:
            raise ValueError(
                f"{cfg.labels_file} was labeled with {key}="
                f"{stamp.get(key)!r}, this run has {key}={value!r}")
    return table, labeled


def cmd_stats(args: argparse.Namespace) -> int:
    nodes, events, parse_stats = parse_file(
        args.input, synthesize_dangling=args.synthesize_dangling)
    stats = compute_corpus_stats(events)
    graph = build_graph(nodes, events)
    report = {
        "total_events": stats.total_events,
        "per_syscall": dict(sorted(stats.per_syscall_count.items())),
        "top_commands": [
            {"cmdline": cmd, "count": count, "share": round(share, 4)}
            for cmd, count, share in top_commands(
                cmdline_frequency(events, nodes), max(args.top, 1))
        ],
        "graph": summarize(graph),
        "parse": parse_stats.to_dict(),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    if args.sample_spec:
        print(sample_spec_json())
        return EXIT_OK
    if not args.spec:
        raise ValueError("synth needs a spec file (or --sample-spec)")
    spec = spec_from_json(Path(args.spec).read_text(encoding="utf-8"))
    lines, truth = generate(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in (("corpus.jsonl", lines),
                       ("ground_truth.json", [truth.to_json()]),
                       ("iocs.tsv", ioc_file_lines(truth))):
        (out_dir / name).write_text("".join(row + "\n" for row in rows),
                                    encoding="utf-8")
    print(f"wrote {truth.total_nodes} nodes, {truth.total_events} events, "
          f"benign share {truth.planted_share:.3f} -> {out_dir}")
    return EXIT_OK


def _peak_rss_mb() -> float:
    """The process's high-water RSS so far (ru_maxrss is in KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _RunMetrics:
    """What one label or reduce run did, written out as
    <command>_metrics.json with its settings cfg under config.

    seconds holds each stage's time and stage_peak_rss_mb, in run order,
    each stage's name and the high-water RSS at its end; corpora holds, under the corpus's role ("labeled" for
    label, "eval" for reduce), its parse tallies and the counts its stages
    gave; output_bytes holds the size of each file noted by wrote.
    """

    def __init__(self, command: str, cfg):
        self.command, self.cfg = command, cfg
        self.started = time.perf_counter()
        self.start_peak_rss_mb = _peak_rss_mb()
        self.seconds: dict[str, float] = {}
        self.stage_peak_rss_mb: list[tuple[str, float]] = []
        self.corpora: dict[str, dict] = {}
        self.labels: dict[str, int | str] = {}
        self.output_bytes: dict[str, int] = {}

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - t0
            self.stage_peak_rss_mb.append((name, _peak_rss_mb()))

    def wrote(self, *paths: Path) -> None:
        """Note the size on disk of each output file, by name."""
        for path in paths:
            self.output_bytes[path.name] = path.stat().st_size

    def featurized(self, role: str, embedder) -> None:
        """Note what the embedder of a corpus missed, once it is done."""
        self.corpora[role]["embedder_misses"] = getattr(embedder, "misses",
                                                        None)

    def write(self, out_dir: Path) -> None:
        payload = {
            "command": self.command, "version": __version__,
            "config": asdict(self.cfg),
            "seconds": dict(self.seconds,
                            total=time.perf_counter() - self.started),
            "peak_rss_mb": _peak_rss_mb(),
            "start_peak_rss_mb": self.start_peak_rss_mb,
            "stage_peak_rss_mb": self.stage_peak_rss_mb,
            "corpora": self.corpora,
            "labels": self.labels,
            "output_bytes": self.output_bytes,
        }
        (out_dir / f"{self.command}_metrics.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


def _prepare_graph(cfg, path: str, run: _RunMetrics, role: str):
    """Parse one corpus into its graph, weights and IoC list."""
    with run.stage("parse"):
        nodes, events, parse_stats = parse_file(
            path, synthesize_dangling=cfg.synthesize_dangling)
    with run.stage("build"):
        graph = build_graph(nodes, events)
    del nodes, events
    with run.stage("stats"):
        stats = compute_corpus_stats(graph.events)
    with run.stage("weights"):
        weights = compute_weights(stats, graph.table)
    del stats
    with run.stage("iocs"):
        iocs, explicit = parse_ioc_file(cfg.iocs) if cfg.iocs else ([], [])
        malicious = build_malicious_list(graph, iocs, explicit)
    run.corpora[role] = {
        "path": path, "parse": parse_stats.to_dict(),
        "nodes": len(graph.table), "events": len(graph.events),
        "malicious_nodes": len(malicious.ids),
        "ioc_warnings": malicious.warnings}
    return graph, weights, malicious


def cmd_label(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, LabelConfig(), _LABEL_KEYS)
    if cfg.dim is not None and cfg.model.startswith("vectors-file:"):
        raise ValueError(f"'dim' is the vectors file's width and cannot be "
                         f"set, got {cfg.dim!r}")
    run = _RunMetrics("label", cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    graph, weights, malicious = _prepare_graph(cfg, cfg.labeled, run,
                                               "labeled")
    embedder = get_embedder(cfg.model, dim=cfg.dim or DEFAULT_DIM,
                            seed=cfg.seed)
    cfg.dim = embedder.dim
    with run.stage("enumerate"):
        sets = enumerate_node_sets(graph, size=cfg.set_size,
                                   cap_per_anchor=cfg.cap_per_anchor)
    run.corpora["labeled"].update(chain_counts(sets, cfg.cap_per_anchor))
    with run.stage("featurize"):
        sets = featurize_sets(sets, graph, weights, embedder)
    run.featurized("labeled", embedder)
    del graph, weights, embedder  # labeling reads none: freed before it
    with run.stage("label"):
        table = label_node_sets(sets, malicious, threshold=cfg.threshold)
    run.labels = {"minted": len(table.polarity),
                  "zero_vector_sets": table.zero_vector_sets}
    seconds = time.perf_counter() - t0
    del malicious, sets  # freed before the write
    with run.stage("table_write"):
        with open(out_dir / "labels.json", "w", encoding="utf-8") as fh:
            table.write_json(fh)
            fh.write("\n")
        write_sidecar(table, out_dir / "labels.json", _stamp(cfg))
    run.wrote(out_dir / "labels.json", out_dir / "labels.npz")
    run.write(out_dir)
    benign = table.polarity.count("benign")
    print(f"labels={len(table.polarity)} benign={benign} "
          f"malicious={len(table.polarity) - benign} "
          f"node_sets={len(table.assignment)} seconds={seconds:.3f}")
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, ReduceConfig(), _REDUCE_KEYS)
    run = _RunMetrics("reduce", cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with run.stage("table_load"):
        table, labeled = _load_table(cfg)
    run.labels = {"loaded": len(table.polarity),
                  "zero_vector_sets": table.zero_vector_sets}
    g_eval, w_eval, malicious = _prepare_graph(cfg, cfg.eval_corpus, run, "eval")
    embedder = get_embedder(cfg.model, dim=labeled.dim, seed=labeled.seed)

    keep_ids = cfg.emit_removed_ids or cfg.emit_graph or cfg.emit_dot
    counts: dict[str, int] = {}
    reports = sweep_top_n(g_eval, table, w_eval, embedder, malicious,
                          ns=cfg.top_n, threshold=labeled.threshold,
                          size=labeled.set_size,
                          cap_per_anchor=labeled.cap_per_anchor,
                          keep_removed_ids=keep_ids,
                          include_isolated_nodes=cfg.include_isolated_nodes,
                          counts=counts)
    run.corpora["eval"].update(counts)
    run.featurized("eval", embedder)
    if reports:
        # The shared stages ran once, select once per n.
        for name in ("enumerate", "featurize", "match"):
            run.seconds[name] = reports[0].per_stage_seconds[name]
        run.seconds["select"] = sum(r.per_stage_seconds["select"]
                                    for r in reports)

    payload = [r.to_dict(include_removed_ids=cfg.emit_removed_ids)
               for r in reports]
    (out_dir / "reports.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    write_sweep_csv(reports, out_dir / "sweep.csv")
    run.wrote(out_dir / "reports.json", out_dir / "sweep.csv")

    formats = [fmt for fmt, wanted in (("jsonl", cfg.emit_graph),
                                       ("dot", cfg.emit_dot)) if wanted]
    if formats:
        with run.stage("export"):
            last_stem, last_removed = None, -1
            for report in reports:
                stem = out_dir / f"reduced_top{report.n_requested}"
                # Removals only grow with n, so an equal count is an equal
                # set and the previous export is copied instead of rebuilt.
                if report.nodes_removed == last_removed:
                    for fmt in formats:
                        shutil.copyfile(f"{last_stem}.{fmt}", f"{stem}.{fmt}")
                else:
                    reduced = remove_nodes(g_eval, report.removed_node_ids)
                    for fmt in formats:
                        save_graph(reduced, f"{stem}.{fmt}", fmt=fmt)
                run.wrote(*(Path(f"{stem}.{fmt}") for fmt in formats))
                last_stem, last_removed = stem, report.nodes_removed
    run.write(out_dir)

    for report in reports:
        print(f"n={report.n_requested} removed={report.nodes_removed} "
              f"remaining={report.nodes_after} fn={report.fn_count} "
              f"fp={report.fp_count} rate={report.reduction_rate:.2f}%")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    payload = json.loads(Path(args.reports).read_text(encoding="utf-8"))
    header = f"{'n':>6} {'nodes':>10} {'removed':>10} {'FN':>6} {'FP':>10} " \
             f"{'rate%':>8} {'seconds':>9}"
    print(header)
    for entry in payload:
        print(f"{entry['n_requested']:>6} {entry['nodes_after']:>10} "
              f"{entry['nodes_removed']:>10} {entry['fn_count']:>6} "
              f"{entry['fp_count']:>10} {entry['reduction_rate']:>8.2f} "
              f"{entry['per_stage_seconds'].get('total', 0.0):>9.3f}")
    return EXIT_OK


_COMMANDS = {
    "stats": cmd_stats,
    "synth": cmd_synth,
    "label": cmd_label,
    "reduce": cmd_reduce,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    # No stage leaves a reference cycle per record, chain or report (the
    # cyclic-garbage tests check each one), so the cyclic collector would
    # only rescan live objects; the caller's setting comes back afterwards.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return handler(args)
    except (FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"provprune: input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"provprune: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"provprune: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
