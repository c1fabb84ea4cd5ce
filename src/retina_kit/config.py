"""Run configuration: JSON round trip with explicit defaults.

Every section materializes its defaults when serialized, so two run reports
are comparable by diff. Cross-module consistency (anchor strides vs stem
stages, input size vs max stride) is enforced at load.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .anchors import AnchorConfig, AnchorLevel
from .data import AugmentConfig
from .errors import ValidationError, require_int, require_ints
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
        self.input_size = tuple(self.input_size)
        require_ints("training", self, "batch_size", "epochs", "eval_every", "input_size")
        if len(self.input_size) != 2:
            raise ValidationError(
                f"training.input_size must be [width, height], got {self.input_size}"
            )
        if self.lr <= 0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.eval_every < 1:
            raise ValidationError(f"eval_every must be >= 1, got {self.eval_every}")
        if not self.checkpoint_path:
            raise ValidationError("checkpoint_path must be non-empty")
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
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        check_level_strides(self.network, self.anchors)
        s_max = self.anchors.max_stride
        w, h = self.training.input_size
        if w % s_max or h % s_max:
            raise ValidationError(
                f"training input_size {w}x{h} must be divisible by the largest stride {s_max}"
            )


def _from_section(cls, raw: dict, where: str):
    if not isinstance(raw, dict):
        raise ValidationError(f"config section '{where}' must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - names
    if unknown:
        raise ValidationError(f"unknown keys in config section '{where}': {sorted(unknown)}")
    kwargs = dict(raw)
    if cls is AnchorConfig and "levels" in kwargs:
        levels = []
        for i, lv in enumerate(kwargs["levels"]):
            if not isinstance(lv, dict) or set(lv) != {"stride", "base_size"}:
                raise ValidationError(
                    f"{where}.levels[{i}] must be an object with stride and base_size"
                )
            require_int(f"{where}.levels[{i}].stride", lv["stride"])
            levels.append(AnchorLevel(stride=lv["stride"], base_size=float(lv["base_size"])))
        kwargs["levels"] = tuple(levels)
    try:
        return cls(**kwargs)
    except ValidationError:
        raise
    except (TypeError, ValueError) as e:  # e.g. a wrong key type, or a range of the wrong length
        raise ValidationError(f"bad config section '{where}': {e}") from e


_SECTIONS = {
    "anchors": AnchorConfig,
    "loss": LossConfig,
    "network": NetworkConfig,
    "augment": AugmentConfig,
    "synth": SynthConfig,
    "eval": EvalConfig,
    "training": TrainingConfig,
}


def run_config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("run config must be a JSON object")
    unknown = set(raw) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ValidationError(f"unknown top-level config keys: {sorted(unknown)}")
    seed = raw.get("seed", 0)
    require_int("seed", seed)  # before synth inherits it
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = dict(raw.get(name, {}))
        if name == "synth" and "seed" not in section:
            section["seed"] = seed  # synth inherits the run seed unless pinned
        kwargs[name] = _from_section(cls, section, name)
    return RunConfig(seed=seed, **kwargs)


def load_run_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
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

