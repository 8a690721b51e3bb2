"""Names and defaults that the numpy-free modules share with the stages.

The settings module and the synthetic-corpus generator read these without
importing a stage, and ingest, embed and nodeset import them from here, so
each is defined once. It imports nothing, since the CLI loads it on every
command, `--version` included.
"""

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

