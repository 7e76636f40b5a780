"""Process set-up shared by the benchmark and its set-up probe.

Neither function may run after numpy is imported: BLAS reads its thread
count once, at load time.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS thread, inherited by every child process."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_qgames():
    """Import qgames from this checkout's src/; exit non-zero when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        qg = importlib.import_module("qgames")
    except ImportError as exc:
        sys.exit(f"error: cannot import qgames from {SRC}: {exc}")
    if SRC not in Path(qg.__file__).resolve().parents:
        sys.exit(f"error: qgames was imported from {qg.__file__}, not from {SRC}")
    return qg
