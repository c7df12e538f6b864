"""Locate the walkstitch package of the checkout the benchmark runs in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingPackage(RuntimeError):
    pass


def import_walkstitch():
    """Import walkstitch from ``<checkout>/src``, never from site-packages."""
    pkg = SRC / "walkstitch"
    if not (pkg / "__init__.py").is_file():
        raise MissingPackage(f"no walkstitch package at {pkg}; run from a full checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import walkstitch
    if Path(walkstitch.__file__).resolve().parent != pkg.resolve():
        raise MissingPackage(f"walkstitch imported from {walkstitch.__file__}, not {pkg}")
    return walkstitch
