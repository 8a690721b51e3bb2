"""The settings of label and reduce runs, and the typed JSON reader.

LabelConfig and ReduceConfig hold one run's resolved settings, each setting
named once by its field: a config file and a run record use the field names
as keys, and each flag sets its field. from_json reads config files,
label-table stamps and synth specs. Only the commands that resolve settings
(label, reduce) and synth load this module, so `--version`, `--help`, a
usage error and `report` load neither dataclasses nor inspect.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .constants import DEFAULT_CAP_PER_ANCHOR, DEFAULT_SEED, DEFAULT_SET_SIZE

# The widest embedding label takes, from --dim or a vectors file: 512 KB
# per float64 vector, and far wider than pretrained vectors come.
MAX_DIM = 65536


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
                ("dim", self.dim is None or 8 <= self.dim <= MAX_DIM,
                 f"in [8, {MAX_DIM}]"),
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
        if not self.top_n or min(self.top_n) < 0:
            raise ValueError(f"'top_n' must be one or more counts, each 0 "
                             f"or more, got {self.top_n!r}")
        self.top_n = sorted(set(self.top_n))


def resolve_config(args, cls):
    """A cls from its defaults, the config file and the flags in args, an
    argparse namespace; checked."""
    cfg = cls()
    if getattr(args, "config", None):
        text = Path(args.config).read_text(encoding="utf-8")
        try:
            cfg = from_json(cls, json.loads(text))
        except ValueError as exc:
            raise ValueError(f"config file {args.config}: {exc}") from None

    # A flag left out is absent from the namespace (argument_default is
    # SUPPRESS), so a settings field found there was given on the line.
    settings = {f.name for f in fields(cfg)} - {"top_n"}
    for name, value in vars(args).items():
        if name in settings:
            setattr(cfg, name, value)
    if getattr(args, "top_n", None) is not None:
        try:
            cfg.top_n = [int(x) for x in args.top_n.split(",") if x.strip()]
        except ValueError:
            raise ValueError(f"--top-n expects integers, got {args.top_n!r}") \
                from None
    for name, flag in (("labeled", "--labeled"), ("eval_corpus", "--eval"),
                       ("labels_file", "--labels")):
        if getattr(cfg, name, "") is None:
            raise ValueError(f"{flag} is required, as the flag or as config "
                             f"key {name!r}")
    cfg.validate()
    return cfg


def from_json(cls, obj, key: str = ""):
    """An instance of dataclass cls read from obj, a decoded JSON object.

    Each key must name a field, and each value must have its field's
    annotated type: a nested dataclass is read from an object, a list or
    tuple from an array, and `X | None` also takes null. A float takes an
    integer; an int takes no bool. Defaults fill only the top level's
    missing keys: a nested object gives every field. A ValueError names the
    key at fault by its path from the top, as in
    `benign_patterns[0].repetitions`.
    """
    if type(obj) is not dict:
        raise ValueError("not a JSON object")
    kinds = get_type_hints(cls)
    for name in obj:
        if name not in kinds:
            raise ValueError(f"unknown key {key + name!r}")
    values = {}
    for f in fields(cls):
        if f.name in obj:
            values[f.name] = _read(kinds[f.name], obj[f.name], key + f.name,
                                   f.type)
        elif key or f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"key {key + f.name!r} is missing")
    return cls(**values)


def _read(kind, value, key: str, spelled: str):
    """value read as kind, which the annotation spells; see from_json."""
    if get_origin(kind) is UnionType:  # X | None
        if value is None:
            return None
        (kind,) = set(get_args(kind)) - {type(None)}
    origin = get_origin(kind)
    if is_dataclass(kind) and type(value) is dict:
        return from_json(kind, value, key + ".")
    if origin in (list, tuple):
        item = get_args(kind)[0]
        if type(value) is list:
            return origin(_read(item, x, f"{key}[{i}]", item.__name__)
                          for i, x in enumerate(value))
    elif type(value) is kind or kind is float and type(value) is int:
        return value
    raise ValueError(f"key {key!r} must be {spelled}, got {value!r}")
