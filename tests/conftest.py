"""Run the suite's numpy on one BLAS thread unless the caller chose a count.

The package imports no numpy; the tests use it as a reference on small
matrices, where OpenBLAS's thread pool saves no time and busy-waits on
every other core.  OpenBLAS reads the variables when numpy loads it, so
they are set here, before any test module imports numpy."""

import os

if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["MKL_NUM_THREADS"] = "1"
