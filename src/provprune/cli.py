"""Command-line front end driving the four pipeline phases.

Subcommands: stats, synth, label, reduce, report. Each command takes only
the settings it reads, each named by its LabelConfig or ReduceConfig field
in settings.py: defaults, then config file, then flags. reduce runs at the
settings stamped on its label table. Every label or reduce run writes one
record, label_metrics.json or reduce_metrics.json: its settings (a config
file that reproduces the run), stage seconds, peak RSS, counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .constants import DEFAULT_DIM

# Each stage module, and the settings module, with the names the commands
# take from it, each named once. They are imported on first use, so a
# command that runs no stage (--version, --help, a usage error, synth,
# report) loads neither numpy nor any stage module, and only the commands
# that resolve settings load the settings classes and dataclasses.
_STAGE_NAMES = {
    "embed": ("compute_weights", "get_embedder"),
    "graph": ("build_graph", "remove_nodes", "save_graph", "summarize"),
    "ingest": ("cmdline_frequency", "compute_corpus_stats", "parse_file",
               "top_commands"),
    "label": ("TABLE_FORMAT", "build_malicious_list", "file_sha256",
              "label_node_sets", "label_table_from_json", "parse_ioc_file",
              "sidecar_path"),
    "nodeset": ("chain_counts", "enumerate_node_sets", "featurize_sets"),
    "reduce": ("sweep_top_n", "write_sweep_csv"),
    "settings": ("LabelConfig", "ReduceConfig", "from_json",
                 "resolve_config"),
}
_STAGE_OF = {name: module for module, names in _STAGE_NAMES.items()
             for name in names}
# Per command, the modules whose names its handler calls as globals.
_COMMAND_MODULES = {
    "stats": ("graph", "ingest"),
    "label": ("embed", "graph", "ingest", "label", "nodeset", "settings"),
    "reduce": tuple(_STAGE_NAMES),
}


def __getattr__(name: str):
    if name not in _STAGE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is what -X importtime
    # logs, so each module loaded here shows up there.
    module = __import__(f"{__package__}.{_STAGE_OF[name]}", fromlist=[name])
    value = getattr(module, name)
    globals()[name] = value  # later reads, and the handlers, find it here
    return value


def _bind_stages(modules) -> None:
    """Bind each name of modules not bound yet. A name already bound, such
    as a caller's wrapper set on this module, is kept."""
    for module in modules:
        for name in _STAGE_NAMES[module]:
            if name not in globals():
                __getattr__(name)


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


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
    p_label.add_argument("--labeled", help="labeled corpus path")
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
    p_reduce.add_argument("--eval", dest="eval_corpus",
                          help="evaluation corpus path")
    p_reduce.add_argument("--labels", dest="labels_file",
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


# The settings a label table's stamp holds and reduce runs at.
_STAMP_KEYS = ("dim", "seed", "set_size", "cap_per_anchor", "threshold")


def _stamp(cfg: LabelConfig) -> dict:
    """The settings that shape a label table. A vectors file is named by the
    sha256 of its bytes, not by its path."""
    model = cfg.model
    if model.startswith("vectors-file:"):
        model = f"vectors-file sha256={file_sha256(model.split(':', 1)[1])}"
    return {"format": TABLE_FORMAT, "model": model,
            **{key: getattr(cfg, key) for key in _STAMP_KEYS},
            "threshold": float(cfg.threshold)}


def _load_table(cfg: ReduceConfig):
    """The label table at cfg.labels_file and the LabelConfig its stamp
    holds; a stamp of another format, of bad values or of another model than
    cfg's is an error."""
    text = Path(cfg.labels_file).read_bytes().decode("utf-8")
    sidecar = sidecar_path(cfg.labels_file)
    table, stamp = label_table_from_json(text, sidecar)
    try:
        found = stamp.get("format")
        if type(found) is not int or found != TABLE_FORMAT:
            raise ValueError(f"format {found!r}, not {TABLE_FORMAT}")
        for key in _STAMP_KEYS:
            if stamp.get(key) is None:
                raise ValueError(f"key {key!r} is missing")
        labeled = from_json(LabelConfig, {
            "model": cfg.model, **{key: stamp[key] for key in _STAMP_KEYS}})
        labeled.validate()
    except ValueError as exc:
        raise ValueError(f"label table {sidecar}: stamp {exc}; rerun label") \
            from None
    # Every other setting was just read from the stamp.
    model = _stamp(labeled)["model"]
    if stamp.get("model") != model:
        raise ValueError(f"{cfg.labels_file} was labeled with model="
                         f"{stamp.get('model')!r}, this run has "
                         f"model={model!r}")
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
    # Only synth generates, so the other commands never load the generator.
    from .synthgen import (generate, ioc_file_lines, sample_spec_json,
                           spec_from_json)

    if args.sample_spec:
        print(sample_spec_json())
        return EXIT_OK
    if not args.spec:
        raise ValueError("synth needs a spec file (or --sample-spec)")
    text = Path(args.spec).read_text(encoding="utf-8")
    try:
        lines, truth = generate(spec_from_json(text))
    except ValueError as exc:
        raise ValueError(f"spec {args.spec}: {exc}") from None
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
    each stage's name and the high-water RSS at its end; corpora holds,
    under the corpus's role ("labeled" for label, "eval" for reduce), its
    parse tallies and the counts its stages gave; output_bytes holds the
    size of each file noted by wrote.
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
        from dataclasses import asdict  # loaded with the settings classes

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
    cfg = resolve_config(args, LabelConfig)
    embedder = get_embedder(cfg.model, dim=cfg.dim or DEFAULT_DIM,
                            seed=cfg.seed)
    if cfg.dim not in (None, embedder.dim):
        raise ValueError(f"'dim' is the vectors file's width, {embedder.dim}, "
                         f"got {cfg.dim!r}")
    cfg.dim = embedder.dim
    cfg.validate()  # a vectors file's width, as reduce checks the stamp
    run = _RunMetrics("label", cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    graph, weights, malicious = _prepare_graph(cfg, cfg.labeled, run,
                                               "labeled")
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
        table.save(out_dir / "labels.json", _stamp(cfg))
    run.wrote(out_dir / "labels.json", out_dir / "labels.npz")
    run.write(out_dir)
    benign = table.polarity.count("benign")
    print(f"labels={len(table.polarity)} benign={benign} "
          f"malicious={len(table.polarity) - benign} "
          f"node_sets={len(table.assignment)} seconds={seconds:.3f}")
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    cfg = resolve_config(args, ReduceConfig)
    run = _RunMetrics("reduce", cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with run.stage("table_load"):
        table, labeled = _load_table(cfg)
    run.labels = {"loaded": len(table.polarity),
                  "zero_vector_sets": table.zero_vector_sets}
    g_eval, w_eval, malicious = _prepare_graph(cfg, cfg.eval_corpus, run, "eval")
    embedder = get_embedder(cfg.model, dim=labeled.dim, seed=labeled.seed)

    counts: dict[str, int] = {}
    reports = sweep_top_n(g_eval, table, w_eval, embedder, malicious,
                          ns=cfg.top_n, threshold=labeled.threshold,
                          size=labeled.set_size,
                          cap_per_anchor=labeled.cap_per_anchor,
                          include_isolated_nodes=cfg.include_isolated_nodes,
                          counts=counts)
    run.corpora["eval"].update(counts)
    run.featurized("eval", embedder)
    # The shared stages ran once, select once per n.
    for name in ("enumerate", "featurize", "match"):
        run.seconds[name] = reports[0].per_stage_seconds[name]
    run.seconds["select"] = sum(r.per_stage_seconds["select"]
                                for r in reports)

    ids = g_eval.table.ids if cfg.emit_removed_ids else None
    payload = [r.to_dict(ids) for r in reports]
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
                    reduced = remove_nodes(g_eval, report.removed)
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
    text = Path(args.reports).read_text(encoding="utf-8")
    try:
        rows = [f"{entry['n_requested']:>6} {entry['nodes_after']:>10} "
                f"{entry['nodes_removed']:>10} {entry['fn_count']:>6} "
                f"{entry['fp_count']:>10} {entry['reduction_rate']:>8.2f} "
                f"{entry['per_stage_seconds'].get('total', 0.0):>9.3f}"
                for entry in json.loads(text)]
    except (ValueError, TypeError, AttributeError, KeyError) as exc:
        raise ValueError(f"{args.reports} is not shaped as reports.json: "
                         f"{exc}") from None
    print(f"{'n':>6} {'nodes':>10} {'removed':>10} {'FN':>6} {'FP':>10} "
          f"{'rate%':>8} {'seconds':>9}")
    for row in rows:
        print(row)
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
    _bind_stages(_COMMAND_MODULES.get(args.command, ()))
    # No stage leaves a reference cycle per record, chain or report (the
    # cyclic-garbage tests check each one), so the cyclic collector would
    # only rescan live objects; the caller's setting comes back afterwards.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return handler(args)
    except OSError as exc:
        print(f"provprune: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"provprune: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not of its input
        print(f"provprune: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if gc_was_enabled:
            gc.enable()
