"""RKCK binary checkpoint format.

Layout: magic "RKCK", format version u32, tensor count u32, then per tensor
a u16 name length + UTF-8 name, rank u8, dims as u32 each, and the raw
little-endian float32 payload. Adam state rides along as "<name>.m" /
"<name>.v" tensors plus a one-element "step", followed by a u32-length-prefixed
UTF-8 JSON echo of the run config. Save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError, ValidationError
from .optim import AdamState
from .outputs import atomic_write

MAGIC = b"RKCK"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]  # insertion order == file order
    config_json: str

    def unpack(self, shapes: dict[str, tuple]) -> tuple[dict[str, np.ndarray], AdamState]:
        """The parameters and Adam state, once the tensors are the table build_checkpoint writes.

        The table: each parameter of shapes, then its "<name>.m" and "<name>.v" of
        its shape, then a one-element "step". A missing, extra or misshapen tensor,
        or a step that is not a whole number >= 0, raises ValidationError; a
        non-finite tensor, or a negative entry in a "<name>.v", raises NumericError.
        """
        table = {**shapes, **{f"{n}.{k}": s for n, s in shapes.items() for k in "mv"}, "step": (1,)}
        for name, shape in table.items():
            if name not in self.tensors:
                raise ValidationError(f"checkpoint is missing tensor '{name}'")
            if self.tensors[name].shape != shape:
                raise ValidationError(
                    f"checkpoint tensor '{name}' has shape {self.tensors[name].shape}, "
                    f"config expects {shape}"
                )
        extra = set(self.tensors) - set(table)
        if extra:
            raise ValidationError(f"checkpoint has unexpected tensors: {sorted(extra)}")
        for name, tensor in self.tensors.items():
            if not np.isfinite(tensor).all():
                raise NumericError(f"checkpoint tensor '{name}' has non-finite values")
        for name in shapes:
            if (self.tensors[f"{name}.v"] < 0).any():  # a running mean of squared gradients
                raise NumericError(f"checkpoint tensor '{name}.v' has negative values")
        step = float(self.tensors["step"][0])
        if step < 0 or not step.is_integer():
            raise ValidationError(f"checkpoint tensor 'step' is not a whole number >= 0: {step}")
        m, v = ({n: self.tensors[f"{n}.{k}"] for n in shapes} for k in "mv")
        return {n: self.tensors[n] for n in shapes}, AdamState(m, v, int(step))

    def config(self) -> dict:
        return json.loads(self.config_json)


def build_checkpoint(params, state: AdamState, config_json: str) -> Checkpoint:
    """Assemble the canonical tensor order: params, then moments, then step."""
    moments = {f"{name}.{k}": getattr(state, k)[name] for name in params for k in "mv"}
    tensors = {**params, **moments, "step": np.array([float(state.step)], dtype=np.float32)}
    return Checkpoint(tensors=tensors, config_json=config_json)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(ckpt.tensors))]
    for name, tensor in ckpt.tensors.items():
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValidationError(f"tensor name too long: {name!r}")
        arr = np.ascontiguousarray(tensor, dtype="<f4")
        if arr.ndim > 0xFF:
            raise ValidationError(f"tensor rank too large: {name!r}")
        header = struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape)
        chunks += [header, arr.tobytes()]
    blob = ckpt.config_json.encode("utf-8")
    chunks += [struct.pack("<I", len(blob)), blob]
    with atomic_write(path, binary=True) as f:
        f.write(b"".join(chunks))


def load_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(data):
            raise ValidationError(f"truncated checkpoint while reading {what} (byte {pos})")
        out = data[pos : pos + n]
        pos += n
        return out

    def text(n, what):
        try:
            return take(n, what).decode("utf-8")
        except UnicodeDecodeError as e:  # take has moved pos past the field
            raise ValidationError(f"non-UTF-8 checkpoint {what} (byte {pos - n + e.start})") from e

    if take(4, "magic") != MAGIC:
        raise ValidationError(f"{path}: not an RKCK checkpoint")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported checkpoint format version {version}")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = text(name_len, "tensor name")
        if name in tensors:
            raise ValidationError(f"duplicate tensor name in checkpoint: {name!r}")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        payload = take(4 * math.prod(dims), f"payload of {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    (blob_len,) = struct.unpack("<I", take(4, "config length"))
    config_json = text(blob_len, "config blob")
    if pos != len(data):
        raise ValidationError(f"trailing bytes after checkpoint config (byte {pos})")
    return Checkpoint(tensors=tensors, config_json=config_json)
