"""Output files that appear whole or not at all, and text files read back line by line."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ValidationError


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


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; other bytes are a ValidationError naming the line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ValidationError(
            f"{path}: line {line}: byte 0x{data[e.start]:02x} at offset {e.start} is not UTF-8"
        ) from None
