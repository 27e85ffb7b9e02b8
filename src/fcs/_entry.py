"""FCS_THREADS caps the BLAS/FFT thread pools (0 or unset: library defaults).

``fcs/__init__`` calls ``_cap_threads`` before numpy loads; the module imports
nothing from the package, so it also loads as a file of its own.
"""

from __future__ import annotations

import os
import sys


def _cap_threads() -> None:
    raw = os.environ.get("FCS_THREADS", "").strip()
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer FCS_THREADS={raw!r}", file=sys.stderr)
        return
    if n <= 0:
        return  # 0 = auto
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(n))

