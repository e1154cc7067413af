"""The command line process: ``python -m biascal`` and the ``biascal`` script.

The pipeline is segment reductions over small arrays and never uses a BLAS
thread, yet OpenBLAS starts a worker at ``import numpy`` that spins on a
core before it sleeps. So the process runs BLAS on one thread: ``main``
sets each thread variable that the user left unset, before numpy loads.
Importing this module, the package or ``biascal.cli`` changes nothing.
"""

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> None:
    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from .cli import entrypoint

    entrypoint()


if __name__ == "__main__":
    main()
