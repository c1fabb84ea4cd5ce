"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a file at `<path>.partial`, renamed over `path` once the block exits cleanly.

    The file is UTF-8 text, or raw bytes when `binary` is set.
    """
    partial = Path(f"{path}.partial")
    try:
        with open(partial, "wb" if binary else "w", encoding=None if binary else "utf-8") as f:
            yield f
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
