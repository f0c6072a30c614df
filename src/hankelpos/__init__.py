"""Hankel positivity toolkit.

Positive measures, their Widom boundedness constants, Pick functions and
bounded boundary symbols, outer factors, and finite Hankel sections — with the
transport and polar identities tying the half-plane and disc pictures
together, and a CLI (``hankelpos``) over JSON measure descriptions.
"""

import os as _os

# Thread cap for the BLAS pools behind the eigen-solvers.  Must run before
# numpy is first imported anywhere in the process to take effect.
_threads = _os.environ.get("HANKELPOS_THREADS", "").strip()
if _threads.isdigit() and int(_threads) > 0:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .quadrature import *  # noqa: E402,F401,F403
from .measures import *  # noqa: E402,F401,F403
from .kernels import *  # noqa: E402,F401,F403
from .pick import *  # noqa: E402,F401,F403
from .outer import *  # noqa: E402,F401,F403
from .hankel import *  # noqa: E402,F401,F403
from .verify import *  # noqa: E402,F401,F403
from . import hankel, kernels, measures, outer, pick, quadrature, verify  # noqa: E402

__version__ = "0.1.0"

# The library layers; not ``cli``, so the command line stays out of ``import hankelpos``.
__all__ = [name for layer in (quadrature, measures, kernels, pick, outer, hankel, verify)
           for name in layer.__all__] + ["__version__"]
