import numpy as np
import pytest

from retina_kit.anchors import AnchorConfig
from retina_kit.checkpoint import (
    Checkpoint,
    build_checkpoint,
    canonical_json,
    load_checkpoint,
    save_checkpoint,
)
from retina_kit.errors import ValidationError
from retina_kit.network import NetworkConfig, forward, init_params, param_shapes
from retina_kit.optim import AdamState


@pytest.fixture
def small_state(rng):
    params = {
        "stem0.w": rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
        "stem0.b": np.zeros(4, dtype=np.float32),
    }
    state = AdamState.zeros_like(params)
    state.m["stem0.w"] += 0.25
    state.step = 17
    return params, state


def test_save_load_save_is_byte_identical(tmp_path, small_state):
    params, state = small_state
    ckpt = build_checkpoint(params, state, canonical_json({"seed": 3, "training": {"lr": 0.001}}))
    p1 = tmp_path / "a.rkck"
    p2 = tmp_path / "b.rkck"
    save_checkpoint(p1, ckpt)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_preserves_everything(tmp_path, small_state):
    params, state = small_state
    ckpt = build_checkpoint(params, state, canonical_json({"seed": 3}))
    path = tmp_path / "c.rkck"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config() == {"seed": 3}
    got_params, got_state = loaded.unpack({k: p.shape for k, p in params.items()})
    assert set(got_params) == set(params)
    assert all(np.array_equal(got_params[k], params[k]) for k in params)
    assert got_state.step == 17
    assert np.array_equal(got_state.m["stem0.w"], state.m["stem0.w"])
    assert np.array_equal(got_state.v["stem0.b"], state.v["stem0.b"])


def test_magic_and_truncation_errors(tmp_path, small_state):
    params, state = small_state
    path = tmp_path / "d.rkck"
    save_checkpoint(path, build_checkpoint(params, state, canonical_json({})))
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.rkck"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValidationError, match="not an RKCK"):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "trunc.rkck"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ValidationError, match="truncated"):
        load_checkpoint(truncated)

    trailing = tmp_path / "trail.rkck"
    trailing.write_bytes(raw + b"junk")
    with pytest.raises(ValidationError, match="trailing"):
        load_checkpoint(trailing)

    # magic, version, count, then the first tensor's u16 name length
    assert raw[14:21] == b"stem0.w"
    bad_name = tmp_path / "bad_name.rkck"
    bad_name.write_bytes(raw[:16] + b"\xff" + raw[17:])
    with pytest.raises(ValidationError, match=r"non-UTF-8 checkpoint tensor name \(byte 16\)"):
        load_checkpoint(bad_name)

    assert raw.endswith(b"{}")  # the config blob closes the file
    bad_blob = tmp_path / "bad_blob.rkck"
    bad_blob.write_bytes(raw[:-1] + b"\xff")
    with pytest.raises(ValidationError, match=rf"config blob \(byte {len(raw) - 1}\)"):
        load_checkpoint(bad_blob)


def test_format_layout_is_as_documented(tmp_path):
    params = {"w": np.array([1.0, 2.0], dtype=np.float32)}
    state = AdamState.zeros_like(params)
    path = tmp_path / "layout.rkck"
    save_checkpoint(path, build_checkpoint(params, state, canonical_json({})))
    raw = path.read_bytes()
    assert raw[:4] == b"RKCK"
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    assert int.from_bytes(raw[8:12], "little") == 4  # w, w.m, w.v, step
    assert int.from_bytes(raw[12:14], "little") == 1  # name length
    assert raw[14:15] == b"w"
    assert raw[15] == 1  # rank
    assert int.from_bytes(raw[16:20], "little") == 2  # dim
    assert np.frombuffer(raw[20:28], dtype="<f4").tolist() == [1.0, 2.0]


def test_forward_after_reload_is_bitwise_identical(tmp_path, rng):
    cfg = NetworkConfig()
    anchors = AnchorConfig()
    params = init_params(cfg, anchors, np.random.default_rng(11))
    state = AdamState.zeros_like(params)
    path = tmp_path / "net.rkck"
    save_checkpoint(path, build_checkpoint(params, state, canonical_json({"seed": 11})))
    loaded, _ = load_checkpoint(path).unpack(param_shapes(cfg, anchors))
    img = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    (ca, ba), _ = forward(img, params, cfg, anchors)
    (cb, bb), _ = forward(img, loaded, cfg, anchors)
    assert np.array_equal(ca, cb) and np.array_equal(ba, bb)


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'


def test_adam_state_requires_moments():
    ckpt = Checkpoint(tensors={"w": np.zeros(1, np.float32)}, config_json="{}")
    with pytest.raises(ValidationError, match="missing tensor 'w.m'"):
        ckpt.unpack({"w": (1,)})
