"""Command-line front end driving the four pipeline phases.

Subcommands: stats, synth, label, reduce, report. Settings resolve in
ascending precedence: built-in defaults, config file, PROVPRUNE_SEED, flags.
Every label/reduce run writes a config echo that reproduces it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .embed import DEFAULT_DIM, DEFAULT_SEED, compute_weights, get_embedder
from .graph import Graph, build_graph, remove_nodes, save_graph, summarize
from .ingest import compute_corpus_stats, parse_file, top_commands
from .label import (
    build_malicious_list,
    label_node_sets,
    label_table_from_json,
    parse_ioc_file,
)
from .nodeset import (
    DEFAULT_CAP_PER_ANCHOR,
    DEFAULT_SET_SIZE,
    enumerate_node_sets,
    featurize_sets,
)
from .reduce import sweep_top_n, write_sweep_csv
from .synthgen import generate, ioc_file_lines, sample_spec_json, spec_from_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INTERNAL = 3

DEFAULT_TOP_N = (3, 10, 100)


@dataclass
class RunConfig:
    """Resolved settings for one pipeline run."""

    labeled: str | None = None
    eval_corpus: str | None = None
    iocs: str | None = None
    labels_file: str | None = None
    out_dir: str = "."
    dim: int = DEFAULT_DIM
    seed: int = DEFAULT_SEED
    model: str = "hash-ngrams"
    set_size: int = DEFAULT_SET_SIZE
    cap_per_anchor: int = DEFAULT_CAP_PER_ANCHOR
    threshold: float = 1.0
    top_n: list[int] = field(default_factory=lambda: list(DEFAULT_TOP_N))
    synthesize_dangling: bool = False
    emit_dot: bool = False
    emit_removed_ids: bool = False
    emit_graph: bool = False
    include_isolated_nodes: bool = False

    def validate(self) -> None:
        if self.dim < 8:
            raise ValueError("embed dim must be at least 8")
        if self.set_size < 2:
            raise ValueError("node-set size must be at least 2")
        if not -1.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [-1, 1]")
        if any(n < 0 for n in self.top_n):
            raise ValueError("top-n entries must be non-negative")
        if self.cap_per_anchor < 0:
            raise ValueError("cap-per-anchor must be 0 (unlimited) or positive")


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with the documented code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--out", dest="out_dir", help="output directory")
    sub.add_argument("--dim", type=int, help="embedding width")
    sub.add_argument("--seed", type=int, help="embedding seed")
    sub.add_argument("--model", help="hash-ngrams or vectors-file:<path>")
    sub.add_argument("--set-size", type=int, help="nodes per node-set")
    sub.add_argument("--cap-per-anchor", type=int,
                     help="chains kept per anchor edge, 0 = unlimited")
    sub.add_argument("--threshold", type=float, help="cosine cutoff")
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

    p_label = commands.add_parser("label", help="build the label table")
    p_label.add_argument("--labeled", required=True, help="labeled corpus path")
    p_label.add_argument("--iocs", help="IoC file (tab-separated directives)")
    _add_run_options(p_label)

    p_reduce = commands.add_parser("reduce", help="prune the evaluation graph")
    p_reduce.add_argument("--eval", dest="eval_corpus", required=True,
                          help="evaluation corpus path")
    p_reduce.add_argument("--labels", dest="labels_file",
                          help="label table from a previous label run")
    p_reduce.add_argument("--labeled",
                          help="labeled corpus (labels computed inline)")
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


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return obj


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_obj = _load_config_file(getattr(args, "config", None))
    embed_obj = file_obj.get("embed", {})
    nodeset_obj = file_obj.get("nodeset", {})
    label_obj = file_obj.get("label", {})
    reduce_obj = file_obj.get("reduce", {})

    cfg.labeled = file_obj.get("labeled", cfg.labeled)
    cfg.eval_corpus = file_obj.get("eval", cfg.eval_corpus)
    cfg.iocs = file_obj.get("iocs", cfg.iocs)
    cfg.out_dir = file_obj.get("out_dir", cfg.out_dir)
    cfg.dim = embed_obj.get("dim", cfg.dim)
    cfg.seed = embed_obj.get("seed", cfg.seed)
    cfg.model = embed_obj.get("model", cfg.model)
    cfg.set_size = nodeset_obj.get("size", cfg.set_size)
    cfg.cap_per_anchor = nodeset_obj.get("cap_per_anchor", cfg.cap_per_anchor)
    cfg.threshold = label_obj.get("threshold", cfg.threshold)
    cfg.top_n = list(reduce_obj.get("top_n", cfg.top_n))

    env_seed = os.environ.get("PROVPRUNE_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ValueError(f"PROVPRUNE_SEED must be an integer, "
                             f"got {env_seed!r}") from None

    for attr, arg in [("labeled", "labeled"), ("eval_corpus", "eval_corpus"),
                      ("iocs", "iocs"), ("labels_file", "labels_file"),
                      ("out_dir", "out_dir"), ("dim", "dim"), ("seed", "seed"),
                      ("model", "model"), ("set_size", "set_size"),
                      ("cap_per_anchor", "cap_per_anchor"),
                      ("threshold", "threshold")]:
        value = getattr(args, arg, None)
        if value is not None:
            setattr(cfg, attr, value)
    if getattr(args, "top_n", None):
        try:
            cfg.top_n = [int(x) for x in args.top_n.split(",") if x.strip()]
        except ValueError:
            raise ValueError(f"--top-n expects integers, got {args.top_n!r}") \
                from None
    for flag in ["synthesize_dangling", "emit_dot", "emit_removed_ids",
                 "emit_graph", "include_isolated_nodes"]:
        if getattr(args, flag, False):
            setattr(cfg, flag, True)
    cfg.top_n = sorted(set(cfg.top_n))
    cfg.validate()
    return cfg


def _write_config_echo(cfg: RunConfig, out_dir: Path, command: str) -> None:
    payload = {"command": command, "version": __version__, **asdict(cfg)}
    path = out_dir / "run_config.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _malicious_for(graph: Graph, ioc_path: str | None):
    if not ioc_path:
        return build_malicious_list(graph, [], [])
    iocs, explicit = parse_ioc_file(ioc_path)
    return build_malicious_list(graph, iocs, explicit)


def cmd_stats(args: argparse.Namespace) -> int:
    nodes, events, parse_stats = parse_file(
        args.input, synthesize_dangling=args.synthesize_dangling)
    stats = compute_corpus_stats(events, nodes)
    graph = build_graph(nodes, events)
    report = {
        "total_events": stats.total_events,
        "per_syscall": dict(sorted(stats.per_syscall_count.items())),
        "top_commands": [
            {"cmdline": cmd, "count": count, "share": round(share, 4)}
            for cmd, count, share in top_commands(stats, max(args.top, 1))
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
    (out_dir / "corpus.jsonl").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8")
    (out_dir / "ground_truth.json").write_text(truth.to_json() + "\n",
                                               encoding="utf-8")
    (out_dir / "iocs.tsv").write_text(
        "".join(line + "\n" for line in ioc_file_lines(truth)),
        encoding="utf-8")
    print(f"wrote {truth.total_nodes} nodes, {truth.total_events} events, "
          f"benign share {truth.planted_share:.3f} -> {out_dir}")
    return EXIT_OK


def _label_pipeline(cfg: RunConfig, corpus_path: str):
    """Parse, weight, enumerate, featurize, and label one corpus."""
    t0 = time.perf_counter()
    nodes, events, _ = parse_file(corpus_path,
                                  synthesize_dangling=cfg.synthesize_dangling)
    graph = build_graph(nodes, events)
    stats = compute_corpus_stats(graph.events, graph.nodes.values())
    weights = compute_weights(stats, graph.nodes)
    embedder = get_embedder(cfg.model, dim=cfg.dim, seed=cfg.seed)
    sets = enumerate_node_sets(graph, size=cfg.set_size,
                               cap_per_anchor=cfg.cap_per_anchor)
    sets = featurize_sets(sets, graph, weights, embedder)
    malicious = _malicious_for(graph, cfg.iocs)
    table = label_node_sets(sets, malicious, threshold=cfg.threshold)
    seconds = time.perf_counter() - t0
    return graph, table, seconds


def cmd_label(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.labeled = args.labeled
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, table, seconds = _label_pipeline(cfg, cfg.labeled)
    with open(out_dir / "labels.json", "w", encoding="utf-8") as fh:
        table.write_json(fh)
        fh.write("\n")
    _write_config_echo(cfg, out_dir, "label")
    benign = sum(1 for lb in table.labels if lb.polarity == "benign")
    print(f"labels={len(table.labels)} benign={benign} "
          f"malicious={len(table.labels) - benign} "
          f"node_sets={len(table.assignment)} seconds={seconds:.3f}")
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if not cfg.labels_file and not cfg.labeled:
        raise ValueError("reduce needs --labels or --labeled")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.labels_file:
        table = label_table_from_json(
            Path(cfg.labels_file).read_text(encoding="utf-8"))
    else:
        _, table, _ = _label_pipeline(cfg, cfg.labeled)

    nodes, events, _ = parse_file(cfg.eval_corpus,
                                  synthesize_dangling=cfg.synthesize_dangling)
    g_eval = build_graph(nodes, events)
    stats = compute_corpus_stats(g_eval.events, g_eval.nodes.values())
    w_eval = compute_weights(stats, g_eval.nodes)
    embedder = get_embedder(cfg.model, dim=cfg.dim, seed=cfg.seed)
    malicious = _malicious_for(g_eval, cfg.iocs)

    keep_ids = cfg.emit_removed_ids or cfg.emit_graph or cfg.emit_dot
    population = set(g_eval.nodes) if cfg.include_isolated_nodes else None
    reports = sweep_top_n(g_eval, table, w_eval, embedder, malicious,
                          ns=cfg.top_n, threshold=cfg.threshold,
                          size=cfg.set_size, cap_per_anchor=cfg.cap_per_anchor,
                          keep_removed_ids=keep_ids, population=population)

    payload = [r.to_dict(include_removed_ids=cfg.emit_removed_ids)
               for r in reports]
    (out_dir / "reports.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    write_sweep_csv(reports, out_dir / "sweep.csv")
    _write_config_echo(cfg, out_dir, "reduce")

    formats = [fmt for fmt, wanted in (("jsonl", cfg.emit_graph),
                                       ("dot", cfg.emit_dot)) if wanted]
    if formats:
        last_stem, last_removed = None, -1
        for report in reports:
            stem = out_dir / f"reduced_top{report.n_requested}"
            # Removals only grow with n, so an equal count is an equal set and
            # the previous export is copied instead of rebuilt.
            if report.nodes_removed == last_removed:
                for fmt in formats:
                    shutil.copyfile(f"{last_stem}.{fmt}", f"{stem}.{fmt}")
            else:
                reduced = remove_nodes(g_eval, report.removed_node_ids)
                for fmt in formats:
                    save_graph(reduced, f"{stem}.{fmt}", fmt=fmt)
            last_stem, last_removed = stem, report.nodes_removed

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


if __name__ == "__main__":
    sys.exit(main())
