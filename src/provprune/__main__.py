"""The provprune command: `python -m provprune` and the console script.

A run's matrix products are too small for BLAS threads to pay, and a thread
pool stalls them on a busy machine, so the command runs one BLAS thread
unless the caller sets a count. numpy reads that count when first imported,
so the CLI is imported only after it is set.
"""

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

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
