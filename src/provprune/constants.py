"""Names, defaults and the typed JSON reader that the numpy-free modules
share with the stages.

The CLI's settings classes and the synthetic-corpus generator read these
without importing a stage, so `--version`, `report` and `synth` load no
numpy. ingest, embed and nodeset import them from here, so each is defined
once.
"""

from dataclasses import MISSING, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

# Node kinds, as a record's "kind" field spells them.
KIND_PROCESS = "process"
KIND_FILE = "file"
KIND_NETFLOW = "netflow"

# Analyzed system calls, keyed to the object kind they operate on.
SYSCALL_OBJECT_KIND = {
    "open": KIND_FILE,
    "read": KIND_FILE,
    "write": KIND_FILE,
    "chmod": KIND_FILE,
    "pipe": KIND_FILE,
    "execve": KIND_PROCESS,
    "clone": KIND_PROCESS,
    "recvfrom": KIND_NETFLOW,
    "sendto": KIND_NETFLOW,
    "recvmsg": KIND_NETFLOW,
    "sendmsg": KIND_NETFLOW,
}

# Embedding width and hashing seed.
DEFAULT_DIM = 64
DEFAULT_SEED = 97

# Nodes per node-set, and chains kept per anchor edge.
DEFAULT_SET_SIZE = 5
DEFAULT_CAP_PER_ANCHOR = 8


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
