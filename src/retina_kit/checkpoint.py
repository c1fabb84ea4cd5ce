"""RKCK binary checkpoint format.

Layout: magic "RKCK", format version u32, tensor count u32, then per tensor
a u16 name length + UTF-8 name, rank u8, dims as u32 each, and the raw
little-endian float32 payload. Adam state rides along as "<name>.m" /
"<name>.v" tensors plus a "step" scalar, followed by a u32-length-prefixed
UTF-8 JSON echo of the run config. Save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .optim import AdamState
from .outputs import atomic_write

MAGIC = b"RKCK"
FORMAT_VERSION = 1

_RESERVED = ("step",)


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]  # insertion order == file order
    config_json: str

    def param_names(self) -> list[str]:
        return [
            n
            for n in self.tensors
            if n not in _RESERVED and not n.endswith(".m") and not n.endswith(".v")
        ]

    def params(self) -> dict[str, np.ndarray]:
        return {n: self.tensors[n] for n in self.param_names()}

    def adam_state(self) -> AdamState:
        names = self.param_names()
        missing = [n for n in names if f"{n}.m" not in self.tensors or f"{n}.v" not in self.tensors]
        if missing:
            raise ValidationError(f"checkpoint lacks Adam state for: {missing}")
        if "step" not in self.tensors:
            raise ValidationError("checkpoint lacks the 'step' scalar")
        return AdamState(
            m={n: self.tensors[f"{n}.m"] for n in names},
            v={n: self.tensors[f"{n}.v"] for n in names},
            step=int(self.tensors["step"].reshape(())[()]),
        )

    def config(self) -> dict:
        return json.loads(self.config_json)


def build_checkpoint(params, state: AdamState, config_json: str) -> Checkpoint:
    """Assemble the canonical tensor order: params, then moments, then step."""
    moments = {f"{name}.{k}": getattr(state, k)[name] for name in params for k in "mv"}
    tensors = {**params, **moments, "step": np.array(float(state.step), dtype=np.float32)}
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
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            chunks.append(struct.pack("<I", d))
        chunks.append(arr.tobytes())
    blob = ckpt.config_json.encode("utf-8")
    chunks.append(struct.pack("<I", len(blob)))
    chunks.append(blob)
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

    if take(4, "magic") != MAGIC:
        raise ValidationError(f"{path}: not an RKCK checkpoint")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported checkpoint format version {version}")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = take(name_len, "name").decode("utf-8")
        if name in tensors:
            raise ValidationError(f"duplicate tensor name in checkpoint: {name!r}")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = [struct.unpack("<I", take(4, "dim"))[0] for _ in range(rank)]
        n_elem = 1
        for d in dims:
            n_elem *= d
        payload = take(4 * n_elem, f"payload of {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    (blob_len,) = struct.unpack("<I", take(4, "config length"))
    config_json = take(blob_len, "config blob").decode("utf-8")
    if pos != len(data):
        raise ValidationError(f"trailing bytes after checkpoint config (byte {pos})")
    return Checkpoint(tensors=tensors, config_json=config_json)
