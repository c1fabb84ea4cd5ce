"""Reproducible desk-scale experiments.

Shared by the scripts/ entry points and the acceptance suite: a standard
300-train / 60-val synthetic split, a full train + eval pass, and the
focal-vs-plain-cross-entropy comparison over several seeds.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .checkpoint import load_checkpoint
from .config import RunConfig, run_config_from_dict
from .errors import ValidationError
from .outputs import atomic_write
from .synth import synth_generate
from .training import evaluate_params, load_params_for_config, load_samples, run_training

TRAIN_IMAGES = 300
VAL_IMAGES = 60


def desk_config(seed: int = 0, gamma: float = 2.0, epochs: int = 30) -> RunConfig:
    """The standard desk-scale recipe: defaults plus an explicit seed/gamma."""
    cfg = run_config_from_dict({"seed": seed})
    cfg.loss = dataclasses.replace(cfg.loss, gamma=gamma)
    cfg.training = dataclasses.replace(cfg.training, epochs=epochs)
    return cfg


def make_split(cfg: RunConfig, workdir) -> tuple[str, str]:
    """Synthesize train/ and val/ datasets; val uses seed + 1 on 60 images."""
    workdir = Path(workdir)
    train_cfg = dataclasses.replace(cfg.synth, num_images=TRAIN_IMAGES)
    val_cfg = dataclasses.replace(cfg.synth, num_images=VAL_IMAGES, seed=cfg.synth.seed + 1)
    synth_generate(train_cfg, workdir / "train")
    synth_generate(val_cfg, workdir / "val")
    return str(workdir / "train" / "manifest.jsonl"), str(workdir / "val" / "manifest.jsonl")


def train_and_eval(cfg: RunConfig, train_manifest, val_manifest, out_dir) -> dict:
    """Train, then evaluate the final checkpoint on the validation split."""
    result = run_training(cfg, train_manifest, val_manifest=None, out_dir=out_dir)
    params, _ = load_params_for_config(load_checkpoint(result.checkpoint_path), cfg)
    report, _ = evaluate_params(params, cfg, load_samples(val_manifest))
    report["checkpoint"] = result.checkpoint_path
    report["metrics_path"] = result.metrics_path
    return report


def focal_vs_ce(base_seed: int, seeds: int, workdir, epochs: int = 30, done=None) -> dict:
    """Train gamma=2 vs gamma=0 on one fixed split over several seeds.

    The split is synthesized once from base_seed; both settings then train
    on it with the same seed set {base_seed, ..., base_seed + seeds - 1}.
    done maps (seed, gamma) to the eval report of a desk_config(seed, gamma,
    epochs) run already trained on that split, which stands in for training
    it again. Returns per-seed sweep mAPs plus their means; the directional
    claim is mean(gamma=2) >= mean(gamma=0).
    """
    if seeds < 1:
        raise ValidationError(f"seeds must be at least 1, got {seeds}")
    workdir = Path(workdir)
    split_cfg = desk_config(seed=base_seed, epochs=epochs)
    train_m, val_m = make_split(split_cfg, workdir / "data")
    done = done or {}
    runs = {"gamma2": [], "gamma0": []}
    for i in range(seeds):
        seed = base_seed + i
        for tag, gamma in (("gamma2", 2.0), ("gamma0", 0.0)):
            report = done.get((seed, gamma))
            if report is None:
                cfg = desk_config(seed=seed, gamma=gamma, epochs=epochs)
                report = train_and_eval(cfg, train_m, val_m, workdir / f"seed{seed}" / tag)
            runs[tag].append({"seed": seed, "map": report["map"], "ap50": report["ap50"]})
    mean2 = sum(r["map"] for r in runs["gamma2"]) / seeds
    mean0 = sum(r["map"] for r in runs["gamma0"]) / seeds
    return {
        "runs": runs,
        "mean_map_gamma2": mean2,
        "mean_map_gamma0": mean0,
        "focal_at_least_as_good": mean2 >= mean0,
    }


def write_report(report: dict, path) -> None:
    with atomic_write(path) as f:
        f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
