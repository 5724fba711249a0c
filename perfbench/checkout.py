"""Locate the checkout the benchmark runs in and import its simulator."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space for service roots and worker stderr files; removed after
# every run, and listed in the repository's .gitignore.
WORK = ROOT / ".perfbench_work"


def use_checkout_sources() -> None:
    """Put ``src/`` first on ``sys.path``; exit non-zero without it.

    The benchmark must measure the checkout it sits in, never a copy of
    ``repro`` installed elsewhere.
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not from {package}")
