"""Binary PPM (P6, maxval 255) reader and writer."""

from __future__ import annotations

import copyreg
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .outputs import atomic_write

_WHITESPACE = b" \t\r\n\v\f"


class PpmParseError(ValidationError):
    """Base PPM parse failure; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset

    def __reduce__(self):
        # rebuilt from the formatted args without re-running __init__, so a
        # pickled error (the minibatch worker sends them) keeps its message
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class PpmVariantError(PpmParseError):
    """Recognizable PNM file but not binary P6."""


class PpmHeaderError(PpmParseError):
    """Malformed or incomplete header."""


class PpmMaxvalError(PpmParseError):
    """Maxval other than 255."""


class PpmTruncatedError(PpmParseError):
    """Pixel payload shorter than width * height * 3."""


def load_ppm(path) -> np.ndarray:
    """Read a P6 file into a (3, H, W) float32 tensor with values in [0, 255].

    A parse error's message begins with the path.
    """
    data = Path(path).read_bytes()
    try:
        return _decode_ppm(data)
    except PpmParseError as e:
        e.args = (f"{path}: {e}",)
        raise


def _decode_ppm(data: bytes) -> np.ndarray:
    if len(data) < 2:
        raise PpmHeaderError("file too short for a PPM magic", 0)
    magic = data[:2]
    if magic != b"P6":
        if magic[:1] == b"P" and magic[1:2].isdigit():
            raise PpmVariantError(f"unsupported PPM variant {magic.decode('ascii')}", 0)
        raise PpmHeaderError("missing P6 magic", 0)
    pos = 2

    def skip_separators(p):
        while p < len(data):
            c = data[p : p + 1]
            if c in (b"#",):
                while p < len(data) and data[p : p + 1] not in (b"\n", b"\r"):
                    p += 1
            elif c and c in _WHITESPACE:
                p += 1
            else:
                break
        return p

    def read_int(p, what):
        p = skip_separators(p)
        start = p
        while p < len(data) and data[p : p + 1].isdigit():
            p += 1
        if p == start:
            raise PpmHeaderError(f"expected {what}", start)
        return int(data[start:p]), start, p

    width, _, pos = read_int(pos, "width")
    height, _, pos = read_int(pos, "height")
    maxval, maxval_at, pos = read_int(pos, "maxval")
    if width <= 0 or height <= 0:
        raise PpmHeaderError(f"non-positive image size {width}x{height}", maxval_at)
    if maxval != 255:
        raise PpmMaxvalError(f"unsupported maxval {maxval}", maxval_at)
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PpmHeaderError("expected single whitespace after maxval", pos)
    pos += 1
    need = width * height * 3
    if len(data) - pos < need:
        raise PpmTruncatedError(
            f"pixel payload needs {need} bytes, found {len(data) - pos}", len(data)
        )
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    return pixels.reshape(height, width, 3).transpose(2, 0, 1).astype(np.float32)


def save_ppm(image, path) -> None:
    """Write a (3, H, W) tensor as P6; values are rounded and clamped to [0, 255]."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValidationError(f"expected (3, H, W) image, got shape {arr.shape}")
    u8 = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    h, w = u8.shape[1], u8.shape[2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    with atomic_write(path, binary=True) as f:
        f.write(header + u8.transpose(1, 2, 0).tobytes())
