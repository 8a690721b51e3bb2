"""The provprune command: `python -m provprune` and the console script.

`main()` is the process entry point. A run's matrix products are too small
for BLAS threads to pay, and a thread pool stalls them on a busy machine, so
the command runs one BLAS thread unless the caller sets a count. numpy reads
that count when first imported, so the CLI is imported only after it is set.

On every way out (a returned code, argparse's SystemExit, an exception)
`main()` freezes the heap: `gc.freeze()` moves every tracked object into the
permanent generation, which the collections CPython runs while tearing down
modules at exit never scan. The process is about to end and the run leaves
no reference cycles (see cli.main), so those scans would free nothing.
"""

import gc
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_one_thread(environ) -> None:
    """Set every THREAD_VARS entry to "1" unless environ holds one of them."""
    if not any(name in environ for name in THREAD_VARS):
        environ.update(dict.fromkeys(THREAD_VARS, "1"))


def main(argv: list[str] | None = None) -> int:
    default_one_thread(os.environ)
    from .cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
