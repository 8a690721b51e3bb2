"""The package's import surface and the command's process setup.

Public names load on first use, so `import provprune` loads neither numpy
nor a pipeline module. The command sets its BLAS thread count before numpy
is first imported, and freezes the heap on its way out.
"""

import importlib
import json
import os
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import pytest

import provprune
from provprune import __main__ as entry
from provprune.cli import EXIT_OK, EXIT_USAGE, main

SRC = Path(__file__).resolve().parent.parent / "src"

# Every public name, by the module that defines it.
PUBLIC = {
    "embed": ["DEFAULT_DIM", "DEFAULT_SEED", "HashNgramEmbedder",
              "VectorFileEmbedder", "compute_weights", "get_embedder"],
    "graph": ["Graph", "build_graph", "remove_nodes"],
    "ingest": ["CorpusStats", "EventTable", "NodeRecord", "NodeTable",
               "ParseStats", "cmdline_frequency", "compute_corpus_stats",
               "parse_file", "parse_stream", "top_commands"],
    "label": ["LabelTable", "MaliciousNodeList", "build_malicious_list",
              "label_node_sets"],
    "nodeset": ["ChainBatch", "NodeSet", "enumerate_node_sets",
                "featurize_sets"],
    "reduce": ["ReductionReport", "rank_benign_labels", "representatives",
               "sweep_top_n"],
    "synthgen": ["GroundTruth", "SynthSpec", "generate"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)
# The modules that run the pipeline, all of which load numpy.
STAGES = ("embed", "graph", "ingest", "label", "nodeset", "reduce")

# A process, a file and one read between them.
THREE_LINES = (
    '{"cmdline":"a x","id":"p1","kind":"process","ts":1}\n'
    '{"id":"f1","kind":"file","path":"/f","ts":1}\n'
    '{"kind":"event","object":"f1","subject":"p1","syscall":"read","ts":2}\n')


def run_child(code: str, env_update: dict | None = None,
              drop=()) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's src."""
    env = dict(os.environ)
    for name in drop:
        env.pop(name, None)
    env.update(env_update or {})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done


def test_import_loads_no_numpy_and_no_module():
    done = run_child(
        "import json, sys, provprune\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m == 'numpy' or m.startswith(('numpy.', 'provprune.')))))")
    assert json.loads(done.stdout) == []


def test_all_lists_each_public_name_once():
    assert len(NAMES) == 34
    assert provprune.__all__ == NAMES


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in PUBLIC.items() for name in names])
def test_public_name_is_its_module_attribute(module, name):
    defining = importlib.import_module(f"provprune.{module}")
    assert getattr(provprune, name) is getattr(defining, name)


def test_dir_lists_every_public_name():
    assert set(NAMES) <= set(dir(provprune))
    assert "__version__" in dir(provprune)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        provprune.no_such_name


def test_tables_are_columns_without_event_records():
    from provprune import ingest

    for module in (provprune, ingest):
        with pytest.raises(AttributeError, match="Event"):
            module.Event
    assert not {"__getitem__", "__iter__"} & set(dir(ingest.EventTable))
    for table in (ingest.NodeTable, ingest.EventTable):
        assert table.__eq__ is object.__eq__
        assert not issubclass(table, Sequence)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from provprune import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(NAMES)
    assert namespace["sweep_top_n"] is provprune.reduce.sweep_top_n


def test_commands_other_than_synth_never_load_the_generator(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "seed": 3, "attack": True, "noise_events": 40,
        "benign_patterns": [{"kinds": ["process"] * 4,
                             "texts": ["a x", "b y", "c z", "d w"],
                             "repetitions": 10}]}))
    assert main(["synth", str(spec), "--out", str(tmp_path / "c")]) == 0
    corpus, iocs = tmp_path / "c" / "corpus.jsonl", tmp_path / "c" / "iocs.tsv"
    runs = [
        ["stats", str(corpus), "--out", str(tmp_path / "stats.json")],
        ["label", "--labeled", str(corpus), "--iocs", str(iocs),
         "--out", str(tmp_path / "run")],
        ["reduce", "--eval", str(corpus), "--iocs", str(iocs),
         "--labels", str(tmp_path / "run" / "labels.json"),
         "--emit-graph", "--out", str(tmp_path / "run")],
        ["report", str(tmp_path / "run" / "reports.json")],
        ["--version"],
    ]
    done = run_child(
        "import json, sys\n"
        "from provprune import cli\n"
        "codes = []\n"
        f"for argv in {runs!r}:\n"
        "    try:\n"
        "        codes.append(cli.main(argv))\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "print(json.dumps([codes, 'provprune.synthgen' in sys.modules]))")
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * 5
    assert loaded is False


@pytest.mark.parametrize("argv, code, settings", [
    (["--version"], EXIT_OK, False), (["--help"], EXIT_OK, False),
    (["--no-such-flag"], EXIT_USAGE, False),
    (["report", "REPORTS"], EXIT_OK, False),
    (["synth", "--sample-spec"], EXIT_OK, True)],
    ids=["version", "help", "unknown-flag", "report", "sample-spec"])
def test_commands_that_run_no_stage_load_no_numpy(tmp_path, argv, code,
                                                   settings):
    """The command's entry point, in a fresh interpreter, runs these
    commands without importing numpy or any stage module. Only synth, whose
    spec is a dataclass read by settings.from_json, loads the settings
    module, dataclasses and inspect."""
    reports = tmp_path / "reports.json"
    reports.write_text(json.dumps([{
        "n_requested": 3, "nodes_after": 9, "nodes_removed": 1,
        "fn_count": 0, "fp_count": 0, "reduction_rate": 10.0,
        "per_stage_seconds": {"total": 0.5}}]))
    argv = [str(reports) if arg == "REPORTS" else arg for arg in argv]
    done = run_child(
        "import json, sys\n"
        "from provprune.__main__ import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "    if m.partition('.')[0] == 'numpy'\n"
        f"    or m.removeprefix('provprune.') in {STAGES!r}),\n"
        "    sorted(m for m in sys.modules\n"
        "    if m in ('dataclasses', 'inspect', 'provprune.settings'))]))")
    assert json.loads(done.stdout.splitlines()[-1]) == [
        code, [], ["dataclasses", "inspect", "provprune.settings"]
        if settings else []]


@pytest.mark.parametrize("command, loaded, absent", [
    ("stats", ["graph", "ingest"], "hashlib"),
    ("label", ["embed", "graph", "ingest", "label", "nodeset", "settings"],
     "csv")],
    ids=["stats", "label"])
def test_stage_command_loads_only_the_modules_it_calls(tmp_path, command,
                                                       loaded, absent):
    """stats loads ingest and graph, and so neither label nor hashlib;
    label loads every stage module but reduce, and so no csv."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(THREE_LINES)
    argv = {"stats": ["stats", str(corpus), "--out",
                      str(tmp_path / "stats.json")],
            "label": ["label", "--labeled", str(corpus),
                      "--out", str(tmp_path / "run")]}[command]
    done = run_child(
        "import json, sys\n"
        "from provprune.__main__ import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted(m.removeprefix('provprune.')\n"
        "    for m in sys.modules if m.startswith('provprune.')\n"
        f"    and m.removeprefix('provprune.') in {(*STAGES, 'settings')!r}),"
        f"\n    {absent!r} in sys.modules]))")
    assert json.loads(done.stdout.splitlines()[-1]) == [EXIT_OK, loaded,
                                                        False]


def test_fresh_cli_resolves_every_traced_name():
    """perfbench's tracer reads the names it wraps off provprune.cli and
    provprune.reduce; each resolves before any command has run."""
    trace = SRC.parent / "perfbench" / "trace.py"
    done = run_child(
        "import importlib.util, json\n"
        f"spec = importlib.util.spec_from_file_location('t', {str(trace)!r})\n"
        "trace = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(trace)\n"
        "from provprune import cli, reduce\n"
        "modules = {'cli': cli, 'reduce': reduce}\n"
        "names = [(mod, name) for mod, name, _, _ in trace.TARGETS]\n"
        "names.append(('cli', 'get_embedder'))\n"
        "print(json.dumps([[mod, name] for mod, name in names\n"
        "                  if not callable(getattr(modules[mod], name,"
        " None))]))")
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_cli_keeps_a_wrapper_set_after_a_run(tmp_path):
    """A name wrapped on provprune.cli after a first cli.main run is the
    function the next run calls: binding the stage names never replaces
    one already bound."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(THREE_LINES)
    argv = ["stats", str(corpus), "--out", str(tmp_path / "stats.json")]
    done = run_child(
        "import json\n"
        "from provprune import cli\n"
        f"codes = [cli.main({argv!r})]\n"
        "calls = []\n"
        "parse_file = cli.parse_file\n"
        "def wrapped(*args, **kwargs):\n"
        "    calls.append(args)\n"
        "    return parse_file(*args, **kwargs)\n"
        "cli.parse_file = wrapped\n"
        f"codes.append(cli.main({argv!r}))\n"
        "print(json.dumps([codes, calls, cli.parse_file is wrapped]))")
    assert json.loads(done.stdout.splitlines()[-1]) == [
        [EXIT_OK, EXIT_OK], [[str(corpus)]], True]


@pytest.mark.parametrize("environ, expected", [
    ({}, {name: "1" for name in entry.THREAD_VARS}),
    ({"PATH": "/bin"},
     {"PATH": "/bin", **{name: "1" for name in entry.THREAD_VARS}}),
    ({"OMP_NUM_THREADS": "4"}, {"OMP_NUM_THREADS": "4"}),
    ({"OPENBLAS_NUM_THREADS": "2", "PATH": "/bin"},
     {"OPENBLAS_NUM_THREADS": "2", "PATH": "/bin"}),
    ({"MKL_NUM_THREADS": ""}, {"MKL_NUM_THREADS": ""}),
])
def test_one_thread_unless_the_caller_sets_a_count(environ, expected):
    entry.default_one_thread(environ)
    assert environ == expected


@pytest.mark.parametrize("preset, expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2",
                                     "OMP_NUM_THREADS": None,
                                     "MKL_NUM_THREADS": None}),
])
def test_numpy_loads_after_the_thread_setting(tmp_path, preset, expected):
    """The command's entry point, as the console script calls it, running a
    stage: numpy is first imported with the thread variables already in
    place."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(THREE_LINES)
    done = run_child(
        "import json, os, sys\n"
        "names = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS',"
        " 'MKL_NUM_THREADS')\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append({n: os.environ.get(n) for n in names})\n"
        "sys.meta_path.insert(0, Spy())\n"
        "from provprune.__main__ import main\n"
        "before = 'numpy' in sys.modules\n"
        f"code = main(['stats', {str(corpus)!r},\n"
        f"             '--out', {str(tmp_path / 'stats.json')!r}])\n"
        "print(json.dumps([before, code, 'numpy' in sys.modules, seen]))",
        env_update=preset, drop=entry.THREAD_VARS)
    before, code, after, seen = json.loads(done.stdout.splitlines()[-1])
    assert before is False and code == EXIT_OK and after is True
    assert seen == [expected]


def test_entry_point_freezes_the_heap_on_every_exit(tmp_path):
    """provprune.__main__.main freezes the heap whether the command returns,
    argparse exits (--version, and an unknown flag with the usage code) or
    an exception escapes."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(THREE_LINES)
    done = run_child(
        "import gc, json\n"
        "from provprune import cli\n"
        "from provprune.__main__ import main\n"
        "def interrupted(args):\n"
        "    raise KeyboardInterrupt\n"
        "results = []\n"
        f"for argv in [['--version'], ['stats', {str(corpus)!r}],\n"
        f"             ['stats', {str(corpus)!r}, '--no-such-flag'],\n"
        "             ['report', 'r.json']]:\n"
        "    gc.unfreeze()\n"
        "    assert gc.get_freeze_count() == 0\n"
        "    cli._COMMANDS['report'] = interrupted\n"
        "    try:\n"
        "        outcome = main(argv)\n"
        "    except SystemExit as exc:\n"
        "        outcome = exc.code\n"
        "    except KeyboardInterrupt:\n"
        "        outcome = 'KeyboardInterrupt'\n"
        "    results.append([outcome, gc.get_freeze_count() > 0])\n"
        "print(json.dumps(results))")
    results = json.loads(done.stdout.splitlines()[-1])
    assert results == [[EXIT_OK, True], [EXIT_OK, True], [EXIT_USAGE, True],
                       ["KeyboardInterrupt", True]]


def test_in_process_cli_main_freezes_nothing(tmp_path):
    """cli.main, as a library caller runs it, freezes nothing and gives the
    caller's collector setting back."""
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    done = run_child(
        "import gc, json\n"
        "from provprune import cli\n"
        "results = []\n"
        "for enabled in (True, False):\n"
        "    (gc.enable if enabled else gc.disable)()\n"
        f"    code = cli.main(['stats', {str(corpus)!r}])\n"
        "    results.append([code, gc.get_freeze_count(), gc.isenabled()])\n"
        "print(json.dumps(results))")
    assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0, True],
                                                        [0, 0, False]]
