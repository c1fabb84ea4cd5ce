"""perfbench imports the package and tests/oracles.py, and hooks package functions by name.

A rename on either side breaks here rather than silently in a benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_workloads_resolve_bbox_and_the_map_oracle(monkeypatch):
    module = load_perfbench("workloads", monkeypatch)
    naive_coco_map = module.load_oracles().naive_coco_map
    box = module.BBox(0.0, 0.0, 4.0, 4.0)
    assert naive_coco_map({0: [(box, 0.9)]}, {0: [box]}, [0.5]) == ([1.0], 1.0)


def test_call_cli_reads_usage_errors_as_exit_one(monkeypatch):
    module = load_perfbench("workloads", monkeypatch)
    assert module.call_cli(["train"]) == 1


def test_tracer_hooks_resolve_to_functions(monkeypatch):
    """Every tracer hook names a package function, or the tracer reports it absent and times nothing.

    The one exception is parallel.worker_map: its module was deleted at ed6677a,
    and the hook goes with the tracer's replacement (ROADMAP item 1).
    """
    tracing = load_perfbench("tracing", monkeypatch)
    absent = []
    for layer, defining, _ in tracing.HOOKS:
        try:
            fn = getattr(importlib.import_module(defining), layer.rsplit(".", 1)[1], None)
        except ImportError:
            fn = None
        if not inspect.isfunction(fn):
            absent.append(layer)
    assert set(absent) <= {"parallel.worker_map"}, absent
    from retina_kit.layers import conv2d_backward, conv2d_forward

    for fn in (conv2d_forward, conv2d_backward):
        assert tracing._arg_getter(fn, "weights") and tracing._arg_getter(fn, "stride"), fn
    assert tracing._arg_getter(conv2d_backward, "grad_out")


def test_desk_minibatch_conv_calls_as_the_tracer_reads_them(monkeypatch):
    """One desk minibatch makes 20 conv forwards and 20 backwards, and the tracer's
    argument getters find weights, stride and a (C_out, B, h, w) grad_out in them."""
    import numpy as np

    from retina_kit import layers
    from retina_kit.config import run_config_from_dict
    from retina_kit.network import backward, forward, init_params

    tracing = load_perfbench("tracing", monkeypatch)
    real = {name: getattr(layers, name) for name in ("conv2d_forward", "conv2d_backward")}
    calls = {name: [] for name in real}

    def recorder(name):
        def recording(*args, **kwargs):
            result = real[name](*args, **kwargs)
            calls[name].append((args, kwargs, result))
            return result

        return recording

    for name in real:
        monkeypatch.setattr(layers, name, recorder(name))
    cfg = run_config_from_dict({"seed": 0})
    params = init_params(cfg.network, cfg.anchors, np.random.default_rng(0))
    w, h = cfg.training.input_size
    images = np.random.default_rng(1).standard_normal((8, 3, h, w)).astype(np.float32)
    (cls_rows, box_rows), cache = forward(images, params, cfg.network, cfg.anchors)
    backward(cache, np.ones_like(cls_rows), np.ones_like(box_rows))

    assert len(calls["conv2d_forward"]) == len(calls["conv2d_backward"]) == 20
    seen = {}
    for name, fn in real.items():
        get_w, get_stride = tracing._arg_getter(fn, "weights"), tracing._arg_getter(fn, "stride")
        get_grad = tracing._arg_getter(fn, "grad_out")
        for args, kwargs, result in calls[name]:
            weights, stride = get_w(args, kwargs), get_stride(args, kwargs)
            out = result if name == "conv2d_forward" else get_grad(args, kwargs)
            assert weights.ndim == 4 and stride in (1, 2)
            assert out.ndim == 4 and out.shape[:2] == (weights.shape[0], 8)
            seen.setdefault(name, []).append((weights.shape, stride, out.shape))
    # the backward sees each forward conv's output shape, walked in reverse
    assert seen["conv2d_backward"] == seen["conv2d_forward"][::-1]
