"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Yield a text file at `<path>.partial`, renamed over `path` once the block exits cleanly."""
    partial = Path(f"{path}.partial")
    try:
        with open(partial, "w", encoding="utf-8") as f:
            yield f
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
