"""Run configuration: JSON round trip with explicit defaults.

Every section materializes its defaults when serialized, so two run reports
are comparable by diff. Cross-module consistency (anchor strides vs stem
stages, input size vs max stride) is enforced at load.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .anchors import AnchorConfig
from .data import AugmentConfig
from .errors import ValidationError, check_fields, check_value
from .losses import LossConfig
from .network import NetworkConfig, check_level_strides
from .postprocess import EvalConfig
from .synth import SynthConfig


@dataclass
class TrainingConfig:
    lr: float = 0.001
    batch_size: int = 8
    epochs: int = 30
    eval_every: int = 5
    checkpoint_path: str = "checkpoint.rkck"
    input_size: tuple[int, int] = (64, 64)

    def __post_init__(self):
        check_fields(self, "training")
        if self.lr <= 0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.eval_every < 1:
            raise ValidationError(f"eval_every must be >= 1, got {self.eval_every}")
        name = self.checkpoint_path  # saved in --out, next to metrics.jsonl
        if name in ("", "..", "metrics.jsonl") or Path(name).name != name or name.endswith(".partial"):
            raise ValidationError(
                "training.checkpoint_path must be a bare file name other than metrics.jsonl "
                f"and *.partial, got {name!r}"
            )
        if self.input_size[0] <= 0 or self.input_size[1] <= 0:
            raise ValidationError(f"input_size must be positive, got {self.input_size}")


@dataclass
class RunConfig:
    seed: int = 0
    anchors: AnchorConfig = field(default_factory=AnchorConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self):
        check_fields(self, "")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        check_level_strides(self.network, self.anchors)
        s_max = self.anchors.max_stride
        w, h = self.training.input_size
        if w % s_max or h % s_max:
            raise ValidationError(
                f"training input_size {w}x{h} must be divisible by the largest stride {s_max}"
            )
        # augmented boxes span at most about 8 * scale_max * max(w, h) pixels; areas square it
        span = 8.0 * self.augment.scale_max * max(w, h)
        if not math.isfinite(span * span):
            raise ValidationError(
                f"augment.scale_max {self.augment.scale_max} overflows the augmentation "
                f"at training input_size {w}x{h}"
            )


def _from_section(cls, raw: dict, where: str):
    if not isinstance(raw, dict):
        raise ValidationError(f"config section '{where}' must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - names
    if unknown:
        raise ValidationError(f"unknown keys in config section '{where}': {sorted(unknown)}")
    try:
        return cls(**raw)
    except TypeError as e:  # a value of the wrong JSON type or shape (see check_fields)
        raise ValidationError(f"bad config section '{where}': {e}") from e


# section name -> config class, in RunConfig's field order
_SECTIONS = {name: cls for name, cls in typing.get_type_hints(RunConfig).items() if name != "seed"}


def run_config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("run config must be a JSON object")
    unknown = set(raw) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ValidationError(f"unknown top-level config keys: {sorted(unknown)}")
    seed = check_value(raw.get("seed", 0), int, "seed")  # before synth inherits it
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = raw.get(name, {})
        if name == "synth" and isinstance(section, dict) and "seed" not in section:
            section = {**section, "seed": seed}  # synth inherits the run seed unless pinned
        kwargs[name] = _from_section(cls, section, name)
    return RunConfig(seed=seed, **kwargs)


def load_run_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # a JSONDecodeError, or an integer past the int-string limit
        raise ValidationError(f"{path}: invalid JSON: {e}") from e
    return run_config_from_dict(raw)


def run_config_to_dict(cfg: RunConfig) -> dict:
    """Materialize every field, defaults included."""

    def plain(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        return obj

    out = {"seed": cfg.seed}
    for name in _SECTIONS:
        out[name] = plain(getattr(cfg, name))
    return out

