"""Import berrybox before any test module imports numpy, so that its
one-BLAS-thread default (see berrybox/__init__.py) holds for the suite."""

import berrybox  # noqa: F401
