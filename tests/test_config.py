import json

import pytest

from retina_kit.config import (
    RunConfig,
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
)
from retina_kit.errors import ValidationError


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
