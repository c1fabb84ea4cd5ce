import copy

import numpy as np
import pytest

from oracles import per_parameter_adam_step
from retina_kit.errors import NumericError, ValidationError
from retina_kit.optim import AdamState, adam_step, flat_buffer, packed


def test_zero_gradient_is_a_no_op():
    params = packed({"w": np.array([1.0, -2.0], dtype=np.float32)})
    state = AdamState.zeros_like(params)
    adam_step(params, packed({"w": np.zeros(2, dtype=np.float32)}), state, lr=0.1)
    assert params["w"].tolist() == [1.0, -2.0]
    assert state.step == 1


def test_first_step_closed_form():
    # bias correction makes m_hat / sqrt(v_hat) exactly 1 at t = 1 (up to eps)
    params = packed({"w": np.array([0.0], dtype=np.float64)})
    state = AdamState.zeros_like(params)
    adam_step(params, packed({"w": np.array([1.0])}), state, lr=0.001)
    assert params["w"][0] == pytest.approx(-0.001, rel=1e-6)


def test_direction_follows_gradient_sign():
    params = packed({"w": np.array([0.0, 0.0])})
    state = AdamState.zeros_like(params)
    adam_step(params, packed({"w": np.array([3.0, -0.25])}), state, lr=0.01)
    assert params["w"][0] < 0 < params["w"][1]


def test_quadratic_converges():
    # 100 steps on f(theta) = theta^2 from theta = 1 with lr 0.1
    params = packed({"theta": np.array([1.0])})
    state = AdamState.zeros_like(params)
    for _ in range(100):
        adam_step(params, packed({"theta": 2.0 * params["theta"]}), state, lr=0.1)
    assert abs(params["theta"][0]) < 0.5
    assert state.step == 100


def test_non_finite_gradient_aborts_without_mutation():
    params = packed({"a": np.array([1.0]), "b": np.array([2.0])})
    state = AdamState.zeros_like(params)
    adam_step(params, packed({"a": np.array([0.5]), "b": np.array([0.5])}), state, lr=0.1)
    snapshot = {k: v.copy() for k, v in params.items()}
    with pytest.raises(NumericError, match="'b' at step 2"):
        adam_step(params, packed({"a": np.array([0.1]), "b": np.array([np.nan])}), state, lr=0.1)
    assert state.step == 1
    assert all(np.array_equal(params[k], snapshot[k]) for k in params)


def test_non_finite_gradient_names_the_first_parameter_in_dict_order():
    params = packed({"z": np.zeros(2), "a": np.zeros(3)})
    grads = packed({"z": np.array([0.0, np.inf]), "a": np.array([np.nan, 0.0, 0.0])})
    with pytest.raises(NumericError, match="'z' at step 1"):
        adam_step(params, grads, AdamState.zeros_like(params), lr=0.1)


def test_gradient_keys_must_match():
    params = packed({"a": np.zeros(1)})
    state = AdamState.zeros_like(params)
    with pytest.raises(ValidationError):
        adam_step(params, packed({"wrong": np.zeros(1)}), state, lr=0.1)
    with pytest.raises(ValidationError, match="gradient dict"):  # same names, another order
        two = packed({"a": np.zeros(1), "b": np.zeros(2)})
        adam_step(two, packed({"b": np.zeros(2), "a": np.zeros(1)}), AdamState.zeros_like(two), 0.1)


def test_dicts_must_be_packed():
    params = packed({"a": np.zeros(2), "b": np.zeros(3)})
    loose = {"a": np.zeros(2), "b": np.zeros(3)}
    with pytest.raises(ValidationError, match="views of one buffer"):
        adam_step(params, loose, AdamState.zeros_like(params), lr=0.1)
    rebound = dict(params, b=np.zeros(3))
    with pytest.raises(ValidationError, match="views of one buffer"):
        flat_buffer(rebound)
    assert flat_buffer(params).shape == (5,)
    # packed as (b, a) but listed as (a, b): names and shapes match params, offsets do not
    swapped = packed({"b": np.ones(3), "a": np.ones(2)})
    reordered = {"a": swapped["a"], "b": swapped["b"]}
    with pytest.raises(ValidationError, match="views of one buffer"):
        adam_step(params, reordered, AdamState.zeros_like(params), lr=0.1)
    swapped["b"] = swapped.pop("b")  # the packed dict itself, relisted as (a, b)
    assert list(swapped) == ["a", "b"]
    with pytest.raises(ValidationError, match="views of one buffer"):
        adam_step(params, swapped, AdamState.zeros_like(params), lr=0.1)
    copied = copy.deepcopy(params)  # the views no longer share the buffer
    with pytest.raises(ValidationError, match="views of one buffer"):
        flat_buffer(copied)


def test_float32_state_stays_float32():
    params = packed({"w": np.zeros(4, dtype=np.float32)})
    state = AdamState.zeros_like(params)
    adam_step(params, packed({"w": np.full(4, 0.3, dtype=np.float32)}), state, lr=0.01)
    assert params["w"].dtype == np.float32
    assert state.m["w"].dtype == np.float32
    assert state.v["w"].dtype == np.float32


def test_flat_step_matches_per_parameter_oracle_bytes(rng):
    # desk-like shapes and gradient scales, six steps from a non-zero state
    shapes = {"stem0.w": (8, 3, 3, 3), "stem0.b": (8,), "cls0.w": (32, 32, 3, 3),
              "cls0.b": (32,), "box_out.w": (36, 32, 3, 3), "box_out.b": (36,)}
    start = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
    params = packed(start)
    state = AdamState.zeros_like(params)
    want = {n: a.copy() for n, a in start.items()}
    m = {n: np.zeros_like(a) for n, a in start.items()}
    v = {n: np.zeros_like(a) for n, a in start.items()}
    step = 0
    for k in range(6):
        scale = np.float32(10.0 ** rng.integers(-6, 2))
        grads = {n: (rng.standard_normal(s) * scale).astype(np.float32) for n, s in shapes.items()}
        adam_step(params, packed(grads), state, lr=1e-3)
        step = per_parameter_adam_step(want, grads, m, v, step, lr=1e-3)
        assert state.step == step
        for name in shapes:
            assert params[name].tobytes() == want[name].tobytes(), (k, name)
            assert state.m[name].tobytes() == m[name].tobytes(), (k, name)
            assert state.v[name].tobytes() == v[name].tobytes(), (k, name)
