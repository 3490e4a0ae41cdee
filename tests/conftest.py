"""The CLI tests run ``python -m gjms.cli`` in child processes.  Give them the
``src/`` that pyproject's pytest ``pythonpath`` gives this process, so the
suite runs from a checkout without installing the package."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
