"""Names and defaults that the numpy-free modules share with the stages.

The CLI's settings classes and the synthetic-corpus generator read these
without importing a stage, so `--version`, `report` and `synth` load no
numpy. ingest, embed and nodeset import them from here, so each is defined
once.
"""

# Node kinds, as a record's "kind" field spells them.
KIND_PROCESS = "process"
KIND_FILE = "file"
KIND_NETFLOW = "netflow"

# Embedding width and hashing seed.
DEFAULT_DIM = 64
DEFAULT_SEED = 97

# Nodes per node-set, and chains kept per anchor edge.
DEFAULT_SET_SIZE = 5
DEFAULT_CAP_PER_ANCHOR = 8
