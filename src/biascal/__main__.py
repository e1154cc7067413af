"""The command line process: ``python -m biascal`` and the ``biascal`` script.

The pipeline is segment reductions over small arrays and never uses a BLAS
thread, yet OpenBLAS starts a worker at ``import numpy`` that spins on a
core before it sleeps. So the process runs BLAS on one thread: ``main``
sets each thread variable that the user left unset, before numpy loads.
Importing this module, the package or ``biascal.cli`` changes nothing.

Once the command returns, every output file is already closed and renamed
into place, so ``main`` flushes stdout and stderr and ends the process with
``os._exit``: the interpreter's teardown of numpy and every other module
would add 20-30 ms to each run and write nothing. An exception that escapes
the command ends the process as usual, with its traceback.
"""

import os
import sys
from typing import NoReturn

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> NoReturn:
    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from . import cli

    code = cli.main()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # a stream closed at start is None
        try:
            stream.flush()
        except OSError:  # cli.main reports a failed stdout write; the run fails either way
            code = code or cli.EXIT_VALIDATION
    os._exit(code)


if __name__ == "__main__":
    main()
