import dataclasses
import json
import re

import pytest

from retina_kit.anchors import AnchorConfig
from retina_kit.config import (
    RunConfig,
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
)
from retina_kit.errors import ValidationError
from retina_kit.losses import LossConfig


def test_empty_dict_gives_defaults():
    cfg = run_config_from_dict({})
    assert cfg.seed == 0
    assert cfg.training.lr == 0.001
    assert cfg.training.batch_size == 8
    assert cfg.loss.gamma == 2.0 and cfg.loss.alpha == 0.25
    assert cfg.anchors.strides == (8, 16)


def test_synth_seed_inherits_run_seed():
    cfg = run_config_from_dict({"seed": 42})
    assert cfg.synth.seed == 42
    pinned = run_config_from_dict({"seed": 42, "synth": {"seed": 7}})
    assert pinned.synth.seed == 7


def test_materialized_dict_has_every_section():
    d = run_config_to_dict(run_config_from_dict({}))
    assert set(d) == {"seed", "anchors", "loss", "network", "augment", "synth", "eval", "training"}
    assert d["anchors"]["levels"] == [
        {"stride": 8, "base_size": 16.0},
        {"stride": 16, "base_size": 32.0},
    ]
    assert d["training"]["checkpoint_path"] == "checkpoint.rkck"


def test_round_trip_through_json(tmp_path):
    cfg = run_config_from_dict({"seed": 5, "loss": {"gamma": 0.0}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(run_config_to_dict(cfg)))
    back = load_run_config(path)
    assert run_config_to_dict(back) == run_config_to_dict(cfg)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationError, match="unknown top-level"):
        run_config_from_dict({"sedd": 1})


def test_unknown_section_key_rejected():
    cases = [
        ("training", "learning_rate", 0.1),
        # removed knobs: the detector is single-class and the input is always RGB
        ("network", "num_classes", 1),
        ("network", "input_channels", 3),
    ]
    for section, key, value in cases:
        with pytest.raises(ValidationError, match=f"unknown keys in config section '{section}'.*{key}"):
            run_config_from_dict({section: {key: value}})


def test_cross_check_anchors_per_cell():
    # the anchor count per cell is derived from anchors.scales x ratios, so a
    # network-side count that could disagree with it is rejected outright
    for count in (4, 9):
        with pytest.raises(
            ValidationError, match="unknown keys in config section 'network'.*num_anchors_per_cell"
        ):
            run_config_from_dict({"network": {"num_anchors_per_cell": count}})


def test_cross_check_input_size_divisibility():
    with pytest.raises(ValidationError, match="divisible"):
        run_config_from_dict({"training": {"input_size": [60, 64]}})


def test_cross_check_stride_without_stage():
    with pytest.raises(ValidationError, match="stage"):
        run_config_from_dict(
            {
                "anchors": {
                    "levels": [
                        {"stride": 16, "base_size": 16.0},
                        {"stride": 32, "base_size": 32.0},
                    ]
                },
                "training": {"input_size": [64, 64]},
            }
        )


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_run_config(path)


def test_custom_levels_parse():
    cfg = run_config_from_dict(
        {
            "anchors": {
                "levels": [
                    {"stride": 4, "base_size": 8.0},
                    {"stride": 8, "base_size": 16.0},
                    {"stride": 16, "base_size": 32.0},
                ]
            }
        }
    )
    assert cfg.anchors.strides == (4, 8, 16)


def test_default_config_is_self_consistent():
    RunConfig()  # no exception


@pytest.mark.parametrize(
    "section, key",
    [
        ("eval", "max_detections_per_image"),
        ("eval", "pre_nms_topk"),
        ("training", "batch_size"),
        ("training", "epochs"),
        ("training", "eval_every"),
        ("synth", "num_images"),
        ("network", "fpn_channels"),
        ("network", "head_depth"),
    ],
)
@pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
def test_integer_fields_reject_non_integers(section, key, value):
    with pytest.raises(ValidationError, match=f"{section}.{key} must be an integer"):
        run_config_from_dict({section: {key: value}})


@pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
def test_seed_rejects_non_integers(value):
    with pytest.raises(ValidationError, match="^seed must be an integer"):
        run_config_from_dict({"seed": value})


@pytest.mark.parametrize(
    "section, key, good",
    [
        ("synth", "image_size", [64, 64]),
        ("synth", "pedestrians_per_image", [1, 3]),
        ("synth", "template_height_px", [20, 40]),
        ("training", "input_size", [64, 64]),
        ("network", "stem_channels", [8, 16, 32, 64]),
    ],
)
@pytest.mark.parametrize("bad", [32.5, 32.0, "32", True])
def test_integer_list_fields_reject_non_integers(section, key, good, bad):
    assert list(getattr(getattr(run_config_from_dict({section: {key: good}}), section), key)) == good
    value = good[:-1] + [bad]
    with pytest.raises(ValidationError, match=f"{section}.{key} must be integers"):
        run_config_from_dict({section: {key: value}})


@pytest.mark.parametrize("bad", [8.5, 8.0, True])
def test_level_stride_rejects_non_integers(bad):
    levels = [{"stride": bad, "base_size": 16.0}, {"stride": 16, "base_size": 32.0}]
    with pytest.raises(ValidationError, match=r"anchors\.levels\[0\]\.stride must be an integer"):
        run_config_from_dict({"anchors": {"levels": levels}})


@pytest.mark.parametrize(
    "section, key, value, field",
    [("training", "lr", float("inf"), "training.lr"),
     ("loss", "gamma", float("nan"), "loss.gamma"),
     ("anchors", "scales", [1.0, float("inf")], "anchors.scales[1]"),
     ("anchors", "levels", [{"stride": 8, "base_size": float("nan")}, {"stride": 16, "base_size": 32.0}],
      "anchors.levels[0].base_size"),
     ("augment", "min_box_area_px", float("inf"), "augment.min_box_area_px"),
     ("synth", "noise_std", float("inf"), "synth.noise_std")],
)
def test_float_fields_must_be_finite(section, key, value, field):
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)} must be finite"):
        run_config_from_dict({section: {key: value}})


def test_finite_check_covers_in_process_configs():
    cfg = run_config_from_dict({})
    with pytest.raises(ValidationError, match=r"^loss\.gamma must be finite"):
        dataclasses.replace(cfg, loss=LossConfig(gamma=float("nan")))


LEVEL_16 = {"stride": 16, "base_size": 32.0}


@pytest.mark.parametrize(
    "section, key, value, field",
    [("training", "lr", True, "training.lr"),
     ("loss", "gamma", True, "loss.gamma"),
     ("augment", "hflip_prob", False, "augment.hflip_prob"),
     ("eval", "score_threshold", True, "eval.score_threshold"),
     ("anchors", "force_match", "false", "anchors.force_match"),
     ("anchors", "force_match", 0, "anchors.force_match"),
     ("anchors", "scales", ["1.0", "2"], "anchors.scales[0]"),
     ("anchors", "levels", [{"stride": 8, "base_size": "16"}, LEVEL_16],
      "anchors.levels[0].base_size"),
     ("synth", "template_aspect", ["2", "3.5"], "synth.template_aspect[0]"),
     ("eval", "iou_thresholds", ["0.5"], "eval.iou_thresholds[0]"),
     ("training", "checkpoint_path", 5, "training.checkpoint_path")],
)
def test_wrong_json_types_rejected(section, key, value, field):
    # bools are not numbers, strings are not numbers or bools, numbers are not strings
    with pytest.raises(ValidationError, match=rf"{re.escape(field)} must be"):
        run_config_from_dict({section: {key: value}})


def test_in_process_configs_check_field_types():
    with pytest.raises(TypeError, match=r"anchors\.force_match must be true or false"):
        AnchorConfig(force_match="no")
    with pytest.raises(TypeError, match=r"loss\.alpha must be a number"):
        LossConfig(alpha=True)


def test_list_entries_of_float_fields_become_floats():
    cfg = run_config_from_dict(
        {"anchors": {"scales": [1, 2], "levels": [{"stride": 8, "base_size": 16}, LEVEL_16]},
         "loss": {"gamma": 2}}
    )
    d = run_config_to_dict(cfg)
    assert d["anchors"]["scales"] == [1.0, 2.0] and isinstance(d["anchors"]["scales"][0], float)
    assert isinstance(d["anchors"]["levels"][0]["base_size"], float)
    assert type(d["loss"]["gamma"]) is int  # a scalar stays as written
