"""Where the checkout is, and importing bwrum from its ``src`` tree only."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def import_bwrum():
    """Import bwrum from this checkout's sources; exit nonzero if they are absent."""
    if not (SRC / "bwrum" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bwrum sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bwrum

    if Path(bwrum.__file__).resolve().parent != SRC / "bwrum":
        raise SystemExit(f"perfbench: imported bwrum from {bwrum.__file__}, not {SRC}")
    return bwrum


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env
