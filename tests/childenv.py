"""The environment of the child interpreters that the tests start.

A user's environment: the package location and PATH, no tuning variables.
PYTHONDONTWRITEBYTECODE keeps the child from writing bytecode next to the
sources, where it would be read by any later run in the same checkout.
"""

import os
from pathlib import Path

import jacobiforms


def child_env():
    return {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": str(Path(jacobiforms.__file__).resolve().parent.parent),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
