import dataclasses
import json
import math
import re
import typing

import pytest

from retina_kit.anchors import AnchorConfig, AnchorLevel
from retina_kit.checkpoint import canonical_json
from retina_kit.config import (
    RunConfig,
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
)
from retina_kit.errors import ValidationError, _field_types
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
        with pytest.raises(ValidationError, match=rf"^{section} has unknown keys: .*{key}"):
            run_config_from_dict({section: {key: value}})


def test_cross_check_anchors_per_cell():
    # the anchor count per cell is derived from anchors.scales x ratios, so a
    # network-side count that could disagree with it is rejected outright
    for count in (4, 9):
        with pytest.raises(
            ValidationError, match=r"^network has unknown keys: .*num_anchors_per_cell"
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
    with pytest.raises(ValidationError, match=r"anchors\.force_match must be true or false"):
        AnchorConfig(force_match="no")
    with pytest.raises(ValidationError, match=r"loss\.alpha must be a number"):
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


# every checkpoint stores the config echo, so a byte moved here moves a byte of every checkpoint
ECHO_CUSTOM = {"seed": 5, "synth": {"seed": 9}, "loss": {"gamma": 2},
               "anchors": {"scales": [1, 2], "levels": [{"stride": 8, "base_size": 16}, LEVEL_16]}}
ECHO_BYTES = [
    ({},
     '{"anchors":{"force_match":true,"levels":[{"base_size":16.0,"stride":8},'
     '{"base_size":32.0,"stride":16}],"neg_iou":0.4,"pos_iou":0.5,"ratios":[0.5,1.0,2.0],'
     '"scales":[1.0,1.2599210498948732,1.5874010519681994]},"augment":{"hflip_prob":0.5,'
     '"max_rot_deg":5.0,"min_box_area_px":16.0,"min_visible_frac":0.4,"scale_max":1.1,'
     '"scale_min":0.9,"translate_frac":0.1},"eval":{"iou_thresholds":[0.5,0.55,0.6,0.65,'
     '0.7,0.75,0.8,0.85,0.9,0.95],"max_detections_per_image":100,"nms_iou":0.5,'
     '"pre_nms_topk":1000,"score_threshold":0.05},"loss":{"alpha":0.25,"gamma":2.0,'
     '"smooth_l1_beta":0.1111111111111111},"network":{"fpn_channels":32,"head_depth":2,'
     '"prior_prob":0.01,"stem_channels":[8,16,32,64]},"seed":0,'
     '"synth":{"background_mode":"flat","image_size":[64,64],"noise_std":0.05,'
     '"num_images":300,"pedestrians_per_image":[1,3],"seed":0,"template_aspect":[2.0,3.5],'
     '"template_height_px":[20,40]},"training":{"batch_size":8,'
     '"checkpoint_path":"checkpoint.rkck","epochs":30,"eval_every":5,"input_size":[64,64],'
     '"lr":0.001}}'),
    (ECHO_CUSTOM,
     '{"anchors":{"force_match":true,"levels":[{"base_size":16.0,"stride":8},'
     '{"base_size":32.0,"stride":16}],"neg_iou":0.4,"pos_iou":0.5,"ratios":[0.5,1.0,2.0],'
     '"scales":[1.0,2.0]},"augment":{"hflip_prob":0.5,"max_rot_deg":5.0,'
     '"min_box_area_px":16.0,"min_visible_frac":0.4,"scale_max":1.1,"scale_min":0.9,'
     '"translate_frac":0.1},"eval":{"iou_thresholds":[0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,'
     '0.9,0.95],"max_detections_per_image":100,"nms_iou":0.5,"pre_nms_topk":1000,'
     '"score_threshold":0.05},"loss":{"alpha":0.25,"gamma":2,'
     '"smooth_l1_beta":0.1111111111111111},"network":{"fpn_channels":32,"head_depth":2,'
     '"prior_prob":0.01,"stem_channels":[8,16,32,64]},"seed":5,'
     '"synth":{"background_mode":"flat","image_size":[64,64],"noise_std":0.05,'
     '"num_images":300,"pedestrians_per_image":[1,3],"seed":9,"template_aspect":[2.0,3.5],'
     '"template_height_px":[20,40]},"training":{"batch_size":8,'
     '"checkpoint_path":"checkpoint.rkck","epochs":30,"eval_every":5,"input_size":[64,64],'
     '"lr":0.001}}'),
]


@pytest.mark.parametrize("raw, echo", ECHO_BYTES, ids=["defaults", "custom"])
def test_config_echo_bytes_are_pinned(raw, echo):
    assert canonical_json(run_config_to_dict(run_config_from_dict(raw))) == echo


def _set(raw, path, value):
    """A copy of the nested config raw with the entry at path (keys and list indices) set."""
    if not path:
        return value
    head, *rest = path
    copy = list(raw) if isinstance(raw, list) else dict(raw)
    copy[head] = _set(raw[head], rest, value)
    return copy


def _dotted(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _past_each_end(bounds, kind):
    """The values of type kind (int or float) just outside bounds, at each finite end."""
    out = []
    for end, is_open, away in [(bounds.lo, bounds.open_lo, -1), (bounds.hi, bounds.open_hi, 1)]:
        if not math.isfinite(end):
            continue
        if is_open:
            past = end
        elif kind is int:
            past = end + away
        else:
            past = math.nextafter(end, away * math.inf)
        out.append(kind(past))
    return out


def _bounded_cases(hint, path, default):
    """(path, bad value, Bounds) for each bounded field, or list entry, under hint."""
    if typing.get_origin(hint) is typing.Annotated:
        base, bounds = hint.__origin__, hint.__metadata__[0]
        if typing.get_origin(base) is tuple:  # a list field's bounds hold for each entry
            paths, kind = [[*path, i] for i in range(len(default))], typing.get_args(base)[0]
        else:
            paths, kind = [path], base
        for p in paths:
            for bad in _past_each_end(bounds, kind):
                yield p, bad, bounds
    elif dataclasses.is_dataclass(hint):
        for name, t in _field_types(hint).items():
            yield from _bounded_cases(t, [*path, name], default[name])
    elif typing.get_origin(hint) is tuple and dataclasses.is_dataclass(typing.get_args(hint)[0]):
        for i, entry in enumerate(default):
            yield from _bounded_cases(typing.get_args(hint)[0], [*path, i], entry)


DEFAULTS = run_config_to_dict(RunConfig())
BOUNDED = list(_bounded_cases(RunConfig, [], DEFAULTS))


def test_every_annotated_bound_is_walked():
    names = {_dotted(path) for path, _, _ in BOUNDED}
    assert {"seed", "training.lr", "synth.seed", "anchors.levels[1].base_size",
            "eval.iou_thresholds[9]", "network.prior_prob", "synth.template_height_px[0]"} <= names
    assert len(names) == 60


@pytest.mark.parametrize(
    "path, bad, bounds", BOUNDED, ids=[f"{_dotted(p)}={b!r}" for p, b, _ in BOUNDED]
)
def test_value_past_a_bound_names_the_dotted_field(path, bad, bounds):
    raw = _set(DEFAULTS, path, bad)
    field = _dotted(path)
    with pytest.raises(ValidationError) as info:
        run_config_from_dict(raw)
    assert str(info.value) == f"{field} must be {bounds}, got {bad}"


LEVEL_8 = {"stride": 8, "base_size": 16.0}


@pytest.mark.parametrize(
    "raw, field",
    [({"anchors": {"levels": []}}, "anchors.levels"),
     ({"anchors": {"scales": []}}, "anchors.scales"),
     ({"anchors": {"ratios": []}}, "anchors.ratios"),
     ({"network": {"stem_channels": []}}, "network.stem_channels"),
     ({"eval": {"iou_thresholds": []}}, "eval.iou_thresholds"),
     # relational checks
     ({"anchors": {"pos_iou": 0.3, "neg_iou": 0.4}},
      "anchors.neg_iou 0.4 must be <= anchors.pos_iou 0.3"),
     ({"anchors": {"levels": [LEVEL_16, LEVEL_8]}}, "anchors.levels[0].stride 16 must be <"),
     ({"anchors": {"levels": [LEVEL_8, LEVEL_8]}}, "anchors.levels[0].stride 8 must be <"),
     ({"augment": {"scale_min": 1.2}}, "augment.scale_min 1.2 must be <= augment.scale_max"),
     ({"synth": {"pedestrians_per_image": [3, 1]}}, "synth.pedestrians_per_image[0] 3 must be <="),
     ({"synth": {"template_aspect": [3.0, 2.0]}}, "synth.template_aspect[0] 3.0 must be <="),
     ({"synth": {"template_height_px": [30, 20]}}, "synth.template_height_px[0] 30 must be <="),
     ({"eval": {"iou_thresholds": [0.6, 0.5]}}, "eval.iou_thresholds[0] 0.6 must be <"),
     ({"eval": {"iou_thresholds": [0.5, 0.5]}}, "eval.iou_thresholds[0] 0.5 must be <"),
     ({"synth": {"background_mode": "plaid"}}, "synth.background_mode"),
     ({"synth": {"template_height_px": [20, 80]}}, "synth.image_size 64x64 cannot fit"),
     ({"training": {"checkpoint_path": "a/b"}}, "training.checkpoint_path"),
     ({"anchors": {"levels": [{"stride": 6, "base_size": 16.0}]}},
      "anchors.levels[0].stride 6 is not a power of two"),
     ({"anchors": {"levels": [{"stride": 32, "base_size": 16.0}]}},
      "anchors.levels[0].stride 32 needs stem stage 5"),
     ({"anchors": {"levels": [{"stride": 4, "base_size": 8.0}, LEVEL_16]}},
      "anchors.levels[1].stride 16 must be twice anchors.levels[0].stride"),
     ({"training": {"input_size": [60, 64]}}, "training.input_size 60x64 must be divisible"),
     ({"augment": {"scale_max": 1e300}}, "augment.scale_max 1e+300 overflows")],
)
def test_empty_lists_and_relational_faults_name_the_dotted_field(raw, field):
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)}"):
        run_config_from_dict(raw)


def test_in_process_configs_check_bounds():
    with pytest.raises(ValidationError, match=r"^loss\.alpha must be in \(0, 1\], got 0$"):
        LossConfig(alpha=0)
    with pytest.raises(ValidationError, match=r"^anchors\.scales must be non-empty$"):
        AnchorConfig(scales=())
    level = AnchorLevel(0, 16.0)  # a level is checked where it sits in its AnchorConfig
    with pytest.raises(ValidationError, match=r"^anchors\.levels\[1\]\.stride must be > 0, got 0$"):
        AnchorConfig(levels=(AnchorLevel(8, 16.0), level))
    with pytest.raises(ValidationError, match=r"^anchors\.levels\[0\]\.base_size must be > 0, got -1\.0$"):
        AnchorConfig(levels=(AnchorLevel(8, -1.0),))
