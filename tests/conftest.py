"""The suite runs its dense solves on one BLAS thread.

On a shared 2-core host a dense solve with two OpenBLAS threads slows by
an order of magnitude when another busy process holds a core.  BLAS reads
these variables once, when numpy first loads it, and pytest loads this
file before any test module imports numpy.  A value already set in the
environment is kept.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
