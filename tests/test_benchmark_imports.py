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
