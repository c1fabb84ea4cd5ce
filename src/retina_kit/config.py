"""Run configuration: JSON round trip with explicit defaults.

A JSON object becomes a RunConfig by one rule, errors.check_value, which
checks every section and field against its annotation and names the dotted
field it rejects. Every section materializes its defaults when serialized, so
two run reports are comparable by diff. Cross-module consistency (anchor
strides vs stem stages, input size vs max stride) is enforced at load.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated

from .anchors import AnchorConfig
from .data import AugmentConfig
from .errors import ABOVE_0, AT_LEAST_0, Bounds, ValidationError, check_fields, check_value
from .losses import LossConfig
from .network import NetworkConfig, check_level_strides
from .postprocess import EvalConfig
from .synth import SynthConfig


@dataclass
class TrainingConfig:
    lr: Annotated[float, ABOVE_0] = 0.001
    batch_size: Annotated[int, Bounds(1)] = 8
    epochs: Annotated[int, AT_LEAST_0] = 30
    eval_every: Annotated[int, Bounds(1)] = 5
    checkpoint_path: str = "checkpoint.rkck"
    input_size: Annotated[tuple[int, int], ABOVE_0] = (64, 64)

    def __post_init__(self):
        check_fields(self, "training")
        name = self.checkpoint_path  # saved in --out, next to metrics.jsonl
        if name in ("", "..", "metrics.jsonl") or Path(name).name != name or name.endswith(".partial"):
            raise ValidationError(
                "training.checkpoint_path must be a bare file name other than metrics.jsonl "
                f"and *.partial, got {name!r}"
            )


@dataclass
class RunConfig:
    seed: Annotated[int, AT_LEAST_0] = 0
    anchors: AnchorConfig = field(default_factory=AnchorConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self):
        check_fields(self, "")
        check_level_strides(self.network, self.anchors)
        s_max = self.anchors.max_stride
        w, h = self.training.input_size
        if w % s_max or h % s_max:
            raise ValidationError(
                f"training.input_size {w}x{h} must be divisible by the largest stride {s_max}"
            )
        # augmented boxes span at most about 8 * scale_max * max(w, h) pixels; areas square it
        span = 8.0 * self.augment.scale_max * max(w, h)
        if not math.isfinite(span * span):
            raise ValidationError(
                f"augment.scale_max {self.augment.scale_max} overflows the augmentation "
                f"at training input_size {w}x{h}"
            )


def run_config_from_dict(raw) -> RunConfig:
    synth = raw.get("synth", {}) if isinstance(raw, dict) else None
    if isinstance(synth, dict) and "seed" not in synth:
        # synth inherits the run seed unless pinned; seed is RunConfig's first
        # field, so it is checked, and a bad one named, before synth.seed
        raw = {**raw, "synth": {**synth, "seed": raw.get("seed", 0)}}
    return check_value(raw, RunConfig, "")


def load_run_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # a JSONDecodeError, or an integer past the int-string limit
        raise ValidationError(f"{path}: invalid JSON: {e}") from e
    return run_config_from_dict(raw)


def run_config_to_dict(cfg):
    """cfg as JSON values, every field materialized, defaults included; tuples become lists."""
    if dataclasses.is_dataclass(cfg):
        return {f.name: run_config_to_dict(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}
    if isinstance(cfg, (list, tuple)):
        return [run_config_to_dict(v) for v in cfg]
    return cfg
