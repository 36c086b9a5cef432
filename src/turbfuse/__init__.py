"""turbfuse: desk-scale dual-branch face verification under turbulence."""

import os

# single-threaded BLAS, pinned before numpy loads, keeps every run bitwise reproducible
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .tensor import Tensor, backward, no_grad  # noqa: E402, F401
