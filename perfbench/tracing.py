"""Span tracing around retina-kit's public functions, installed from outside.

A hook names a function by its defining module and attribute. Installing a
tracer finds every place a loaded ``retina_kit`` module binds that function
object (``from .network import forward`` binds it in ``training``, while
``layers.conv2d_forward`` is reached through the module) and swaps in a
wrapper that records a span: name, start, end, parent span, operation id.
Spans stay in memory; ``Tracer.write`` dumps them once the run ends.

Self time is a span's duration minus the union of its children's
intervals, so children that overlap on pool threads are not subtracted
twice. Spans opened on a ``parallel.worker_map`` pool thread take the
``worker_map`` span as their parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (layer name, defining module, only patch bindings inside these modules or None)
HOOKS = [
    ("layers.conv2d_forward", "retina_kit.layers", None),
    ("layers.conv2d_backward", "retina_kit.layers", None),
    ("network.forward", "retina_kit.network", None),
    ("network.backward", "retina_kit.network", None),
    ("network.init_params", "retina_kit.network", None),
    ("training.run_training", "retina_kit.training", None),
    ("training.load_params_for_config", "retina_kit.training", None),
    ("data.augment", "retina_kit.data", None),
    ("data.preprocess", "retina_kit.data", None),
    ("anchors.assign_targets", "retina_kit.anchors", None),
    ("losses.total_detection_loss", "retina_kit.losses", None),
    ("optim.adam_step", "retina_kit.optim", None),
    ("evaluation.coco_map", "retina_kit.evaluation", None),
    ("evaluation.match_detections", "retina_kit.evaluation", None),
    # anchor assignment and NMS call iou_matrix too, inside their own spans;
    # this layer is the evaluator's matching cost only
    ("boxes.iou_matrix", "retina_kit.boxes", ("retina_kit.evaluation",)),
    ("parallel.worker_map", "retina_kit.parallel", None),
    ("postprocess.decode_detections", "retina_kit.postprocess", None),
    ("postprocess.nms_indices", "retina_kit.postprocess", None),
    ("postprocess.write_detections", "retina_kit.postprocess", None),
    ("checkpoint.load_checkpoint", "retina_kit.checkpoint", None),
    ("checkpoint.save_checkpoint", "retina_kit.checkpoint", None),
    ("ppm.load_ppm", "retina_kit.ppm", None),
    ("synth.synth_generate", "retina_kit.synth", None),
    ("cli.main", "retina_kit.cli", None),
]

# Conv call classes of the desk network, as (kernel, stride, C_in, C_out).
CONV_CLASSES = [
    (3, 2, 3, 8),
    (3, 2, 8, 16),
    (3, 2, 16, 32),
    (3, 2, 32, 64),
    (1, 1, 32, 32),
    (1, 1, 64, 32),
    (3, 1, 32, 32),
    (3, 1, 32, 9),
    (3, 1, 32, 36),
]


def conv_class_name(direction: str, k: int, stride: int, c_in: int, c_out: int) -> str:
    return f"conv_{direction}.k{k}s{stride}.c{c_in}-{c_out}.gflop_per_s"


def _arg_getter(fn, name):
    """Fetch a named argument from (args, kwargs) without binding a signature."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for i, p in enumerate(params):
        if p.name == name:
            default = p.default

            def get(args, kwargs):
                if i < len(args):
                    return args[i]
                return kwargs.get(name, default)

            return get
    return None


class Tracer:
    """Records spans and per-call counters while installed."""

    def __init__(self):
        self.spans = []  # [span_id, name, start, end, parent_id, op_id]
        self.counters = defaultdict(float)  # (op_id, key) -> value
        self.op_id = None
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._plan = None  # [(module, attr, original, wrapper)]

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return [span_id, name, perf_counter(), None, parent, self.op_id]

    def _close(self, span):
        span[3] = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, key, value):
        with self._lock:
            self.counters[(self.op_id, key)] += value

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer, fn):
        tracer = self

        if layer in ("layers.conv2d_forward", "layers.conv2d_backward"):
            return self._wrap_conv(layer, fn)
        if layer == "parallel.worker_map":
            return self._wrap_worker_map(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if layer == "anchors.assign_targets":
                tracer.count("assign.positives", getattr(result, "num_positive", 0))
            elif layer == "postprocess.nms_indices" and args:
                tracer.count("nms.candidates", len(args[0]))
                tracer.count("nms.kept", len(result))
            return result

        return traced

    def _wrap_conv(self, layer, fn):
        tracer = self
        direction = "fwd" if layer.endswith("forward") else "bwd"
        get_w = _arg_getter(fn, "weights")
        get_stride = _arg_getter(fn, "stride")
        get_grad = _arg_getter(fn, "grad_out")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if get_w is None or get_stride is None:
                return result
            w = get_w(args, kwargs)
            out = result if direction == "fwd" else (get_grad(args, kwargs) if get_grad else None)
            if out is None or getattr(w, "ndim", 0) != 4:
                return result
            c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2]
            positions = out.size // c_out  # output pixels, over any batch axis
            flop = 2.0 * c_out * c_in * k * k * positions
            if direction == "bwd":
                flop *= 2.0  # grad_weights and grad_input GEMMs
            key = (direction, k, int(get_stride(args, kwargs)), c_in, c_out)
            tracer.count(f"{layer}.flop", flop)
            tracer.count(f"{layer}.im2col_bytes", c_in * k * k * positions * w.dtype.itemsize)
            tracer.count(("conv_flop",) + key, flop)
            tracer.count(("conv_s",) + key, span[3] - span[2])
            return result

        return traced

    def _wrap_worker_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(work, items):
            items = list(items)
            span = tracer._open("parallel.worker_map")
            busy = [0.0]

            def on_worker(item):
                # spans opened on a pool thread hang off the worker_map span
                stack = tracer._stack()
                saved = list(stack)
                stack[:] = [span[0]]
                t0 = perf_counter()
                try:
                    return work(item)
                finally:
                    dt = perf_counter() - t0
                    stack[:] = saved
                    with tracer._lock:
                        busy[0] += dt

            try:
                result = fn(on_worker, items)
            finally:
                tracer._close(span)
            threads = _pool_size(len(items))
            wall = span[3] - span[2]
            if threads and wall > 0:
                tracer.count("pool.busy_s", busy[0])
                tracer.count("pool.capacity_s", threads * wall)
            return result

        return traced

    # -- install / uninstall ---------------------------------------------

    def install(self):
        """Patch every binding of every hooked function in loaded retina_kit modules.

        Bindings are found on the first call and reused after that.
        """
        if self._plan is None:
            self._plan = self._find_bindings()
        for module, name, _, wrapper in self._plan:
            setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original, _ in self._plan or ():
            setattr(module, name, original)

    def _find_bindings(self):
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("retina_kit.") and m]
        plan = []
        for layer, defining, only_in in HOOKS:
            attr = layer.rsplit(".", 1)[1]
            try:
                original = getattr(importlib.import_module(defining), attr)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                if only_in is not None and module.__name__ not in only_in:
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        plan.append((module, name, original, wrapper))
        return plan

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """span_id -> self time: duration minus the union of child intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append((s[2], s[3]))
        out = {}
        for s in self.spans:
            start, end = s[2], s[3]
            covered = 0.0
            cursor = start
            for c0, c1 in sorted(children.get(s[0], ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            out[s[0]] = (end - start) - covered
        return out

    def layer_metrics(self, op_ids) -> dict:
        """Per-operation averages over the given operation ids."""
        ops = set(op_ids)
        n = max(1, len(ops))
        self_t = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for s in self.spans:
            if s[5] in ops:
                calls[s[1]] += 1
                self_s[s[1]] += self_t[s[0]]
        counters = defaultdict(float)
        for (op, key), value in self.counters.items():
            if op in ops:
                counters[key] += value

        m = {}
        for layer, _, _ in HOOKS:
            m[f"{layer}.calls"] = (calls[layer] / n, "count")
            m[f"{layer}.self_s"] = (self_s[layer] / n, "s")
        for layer in ("layers.conv2d_forward", "layers.conv2d_backward"):
            m[f"{layer}.gflop"] = (counters[f"{layer}.flop"] / n / 1e9, "GFLOP")
            m[f"{layer}.im2col_mb"] = (counters[f"{layer}.im2col_bytes"] / n / 1e6, "MB")
        m["anchors.assign_targets.positives"] = (counters["assign.positives"] / n, "count")
        cap = counters["pool.capacity_s"]
        m["parallel.worker_map.busy_ratio"] = (counters["pool.busy_s"] / cap if cap else 0.0, "ratio")
        cand = counters["nms.candidates"]
        m["postprocess.nms_indices.kept_ratio"] = (counters["nms.kept"] / cand if cand else 0.0, "ratio")
        for direction in ("fwd", "bwd"):
            for c in CONV_CLASSES:
                key = (direction,) + c
                secs = counters[("conv_s",) + key]
                gflops = counters[("conv_flop",) + key] / secs / 1e9 if secs else 0.0
                m[conv_class_name(direction, *c)] = (gflops, "GFLOP/s")
        return m

    def write(self, path) -> None:
        """Dump every span as one JSON line, with its self time."""
        self_t = self.self_times()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span_id, name, start, end, parent, op in sorted(self.spans, key=lambda s: s[2]):
                f.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self_s": self_t[span_id],
                }) + "\n")


def _pool_size(n_items: int) -> int:
    """Threads worker_map used, by the program's own rule when it still has one."""
    try:
        from retina_kit.parallel import thread_count
    except ImportError:
        return 1 if n_items else 0
    return min(thread_count(), n_items)
