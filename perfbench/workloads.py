"""The three closed-loop workloads: one client, one process, in-process CLI calls.

Each workload has a set-up (synthesis, plus checkpoint training for eval and
detect), a timed loop of operations, and output checks run outside the timed
region. An operation is one ``retina_kit.cli.main`` call; it fails when it
raises, returns non-zero, or fails its check.

Seeds. Training a few epochs from scratch is chaotic: across five seeds the
3-epoch sweep mAP ranged 0.16-0.28, and 1-epoch checkpoints emitted 16k-28k
detections on 600 images, which would make eval throughput a function of
the seed rather than of the code. So every model is trained by a fixed
recipe (RECIPE_SEED for the config and the training split) and the workload
seed synthesizes the images the model is scored and served on. A
rounding-level change to training (every gradient scaled by 1 + 1e-6) moved
the 3-epoch mAP by under 1 %, so the recipe still tracks the code under test.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import retina_kit.cli as rk_cli
import retina_kit.synth as rk_synth
from retina_kit.boxes import BBox

RECIPE_SEED = 0


def data_seed(seed: int) -> int:
    """Synth seed for workload images; odd, so it never equals RECIPE_SEED's split."""
    return 2 * seed + 1


@dataclass(frozen=True)
class Sizes:
    train_images: int = 300
    eval_images: int = 600
    score_images: int = 300  # seeded split each train checkpoint is scored on
    train_epochs: int = 2  # per train operation
    ckpt_epochs: int = 1  # eval/detect checkpoint recipe
    setups: int = 3  # set-up repetitions; setup_s is their median
    train_setups: int = 7  # train's set-up is synthesis alone, cheap enough to repeat more


FULL = Sizes()
SMOKE = Sizes(train_images=16, eval_images=12, score_images=8, train_epochs=1, setups=2,
              train_setups=2)


@dataclass
class Outcome:
    latencies: list = field(default_factory=list)  # seconds, untraced operations
    traced_latencies: list = field(default_factory=list)
    traced_ops: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: list = field(default_factory=list)


def call_cli(argv) -> int:
    """One in-process CLI call with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = rk_cli.main([str(a) for a in argv])
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code if isinstance(e.code, int) else 1
    if code != 0:
        print(f"retina-kit {argv[0]} exited {code}: {sink.getvalue().strip()}", file=sys.stderr)
    return code


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_config(path: Path, seed: int, epochs: int) -> Path:
    """The desk config: defaults plus seed and epoch count."""
    path.write_text(json.dumps({"seed": seed, "training": {"epochs": epochs}}), encoding="utf-8")
    return path


def synth(num_images: int, seed: int, out: Path) -> Path:
    cfg = rk_synth.SynthConfig(num_images=num_images, seed=seed)
    rk_synth.synth_generate(cfg, out)
    return out / "manifest.jsonl"


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


class Workload:
    """Set-up, one operation, and its check; subclasses fill these in."""

    min_ops = 2

    def __init__(self, work: Path, seed: int, sizes: Sizes, tracer=None):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.outcome = Outcome()
        self.setup_times: list[float] = []
        self.first_ok = False  # operation 0 passed; `finish` checks its outputs
        self.map = None

    # -- set-up -------------------------------------------------------------

    def setup_once(self, d: Path) -> None:
        raise NotImplementedError

    def setup_repeats(self) -> int:
        return self.sizes.setups

    def setup(self) -> None:
        """Set up `setup_repeats()` times in fresh directories; keep the last."""
        for k in range(self.setup_repeats()):
            d = reset_dir(self.work / f"setup{k}")
            d.mkdir(parents=True)
            if self.tracer:
                self.tracer.op_id = f"setup{k}"
                self.tracer.install()
            t0 = perf_counter()
            try:
                self.setup_once(d)
            finally:
                elapsed = perf_counter() - t0
                if self.tracer:
                    self.tracer.uninstall()
            self.setup_times.append(elapsed)
            if k:
                shutil.rmtree(self.work / f"setup{k - 1}")
        self.after_setup()

    def after_setup(self) -> None:
        """Untimed preparation of check references."""

    def finish(self) -> bool:
        """Untimed checks of the first operation's outputs, after the loop."""
        return True

    def finish_safely(self) -> bool:
        try:
            return self.finish()
        except Exception:
            traceback.print_exc()
            return False

    # -- operations ---------------------------------------------------------

    def out_dir(self, i: int) -> Path:
        """Operation 0 keeps its outputs for `finish`; later ones alternate."""
        return self.work / ("op0" if i == 0 else f"op{1 + i % 2}")

    def op_argv(self, i: int) -> list:
        raise NotImplementedError

    def check(self, i: int) -> bool:
        raise NotImplementedError

    def run_op(self, i: int, traced: bool) -> None:
        o = self.outcome
        o.attempted += 1
        argv = self.op_argv(i)
        if traced:
            self.tracer.op_id = i
            self.tracer.install()
        try:
            t0 = perf_counter()
            code = call_cli(argv)
            dt = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            code, dt = None, None
        finally:
            if traced:
                self.tracer.uninstall()
        ok = False
        if code == 0:
            try:
                ok = self.check(i)
            except Exception:
                traceback.print_exc()
        if not ok:
            o.failed += 1
            print(f"operation {i} failed its check (exit code {code})", file=sys.stderr)
            return
        self.first_ok |= i == 0
        if traced:
            o.traced_latencies.append(dt)
            o.traced_ops.append(i)
        else:
            o.latencies.append(dt)

    def loop(self, seconds: float, traced: bool, min_ops: int, start: int) -> int:
        """Closed loop of at least `min_ops` operations; past those, no operation
        starts that the previous one's duration says would end after `seconds`."""
        i = start
        t0 = last = perf_counter()
        step = 0.0
        while i - start < min_ops or last - t0 + step <= seconds:
            self.run_op(i, traced)
            i += 1
            now = perf_counter()
            step, last = now - last, now
        return i

    def run(self, seconds: float, trace: bool) -> Outcome:
        self.setup()
        if trace:
            # first half untraced, second half traced: their ratio is the overhead
            n = self.loop(seconds / 2, False, max(1, self.min_ops // 2), 0)
            self.loop(seconds / 2, True, max(1, self.min_ops // 2), n)
        else:
            self.loop(seconds, False, self.min_ops, 0)
        o = self.outcome
        if self.first_ok and not self.finish_safely():
            o.failed += 1
        if not o.latencies:
            return o
        o.metrics["setup_s"] = (statistics.median(self.setup_times), "s")
        o.metrics["images_per_s"] = (self.images_per_s(), "1/s")
        o.metrics["map"] = (self.map, "mAP")
        o.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        lat = sorted(o.latencies)
        note = f"latency samples: {len(lat)} operations, p50 {1000 * statistics.median(lat):.1f} ms"
        if len(lat) >= 1000:  # at least ten samples beyond p99 (nearest rank)
            note += f", p99 {1000 * lat[math.ceil(0.99 * len(lat)) - 1]:.1f} ms"
        o.notes.append(note)
        return o

    def images_per_s(self) -> float:
        return self.images_per_op / statistics.median(self.outcome.latencies)


class Train(Workload):
    """One `retina-kit train` on the recipe split; its checkpoint scored on a seeded val split."""

    def setup_repeats(self) -> int:
        return self.sizes.train_setups

    def setup_once(self, d: Path) -> None:
        self.train_manifest = synth(self.sizes.train_images, RECIPE_SEED, d / "train")
        self.val_manifest = synth(self.sizes.score_images, data_seed(self.seed), d / "val")
        self.config = write_config(d / "config.json", RECIPE_SEED, self.sizes.train_epochs)
        self.images_per_op = self.sizes.train_images * self.sizes.train_epochs
        self.previous = None

    def op_argv(self, i):
        out = reset_dir(self.out_dir(i))
        return ["train", "--config", self.config, "--manifest", self.train_manifest, "--out", out]

    def check(self, i):
        out = self.out_dir(i)
        produced = ((out / "checkpoint.rkck").read_bytes(), (out / "metrics.jsonl").read_bytes())
        same = self.previous is None or produced == self.previous
        self.previous = produced
        if not same:
            print(f"train operation {i}: checkpoint or metrics.jsonl differ from the "
                  f"previous operation", file=sys.stderr)
        return same

    def finish(self):
        """Sweep mAP of the first operation's checkpoint on the val split."""
        out = self.out_dir(0)
        code = call_cli(["eval", "--config", self.config, "--checkpoint", out / "checkpoint.rkck",
                         "--manifest", self.val_manifest, "--out", out / "val"])
        if code != 0:
            return False
        self.map = json.loads((out / "val" / "report.json").read_text())["map"]
        return True


class Eval(Workload):
    """One `retina-kit eval` of the recipe checkpoint on a seeded split."""

    def setup_once(self, d: Path) -> None:
        manifest = synth(self.sizes.train_images, RECIPE_SEED, d / "train")
        self.config = write_config(d / "config.json", RECIPE_SEED, self.sizes.ckpt_epochs)
        if call_cli(["train", "--config", self.config, "--manifest", manifest,
                     "--out", d / "model"]) != 0:
            raise RuntimeError("training the set-up checkpoint failed")
        self.checkpoint = d / "model" / "checkpoint.rkck"
        self.eval_manifest = synth(self.sizes.eval_images, data_seed(self.seed), d / "eval")
        self.images_per_op = self.sizes.eval_images
        self.report = None

    def op_argv(self, i):
        out = reset_dir(self.out_dir(i))
        return ["eval", "--config", self.config, "--checkpoint", self.checkpoint,
                "--manifest", self.eval_manifest, "--out", out]

    def check(self, i):
        out = self.out_dir(i)
        report = (out / "report.json").read_bytes()
        if self.report is None:
            self.report = report
            self.map = json.loads(report)["map"]
        elif report != self.report:
            print(f"eval operation {i}: report.json differs from the first", file=sys.stderr)
            return False
        return True

    def finish(self):
        """Re-score the first operation's detections with the brute-force evaluator."""
        naive_coco_map = load_oracles().naive_coco_map
        out = self.out_dir(0)
        report = json.loads((out / "report.json").read_text())
        gts = ground_truth(self.eval_manifest)
        dets = {img: [] for img in gts}
        for row in read_jsonl(out / "detections.jsonl"):
            dets[row["image_id"]].append((BBox(*row["box"]), row["score"]))
        aps, mean = naive_coco_map(dets, gts, report["iou_thresholds"])
        if aps != report["ap_per_threshold"] or mean != report["map"]:
            print(f"eval: naive_coco_map gives {mean!r}, report.json {report['map']!r}",
                  file=sys.stderr)
            return False
        return True


class Detect(Eval):
    """One `retina-kit detect` per request, cycling over the eval images."""

    min_ops = 1

    def after_setup(self) -> None:
        """The eval path's detections per image: the reference each request must match."""
        ref = self.work / "reference"
        if call_cli(["eval", "--config", self.config, "--checkpoint", self.checkpoint,
                     "--manifest", self.eval_manifest, "--out", ref]) != 0:
            raise RuntimeError("reference eval failed")
        self.map = json.loads((ref / "report.json").read_text())["map"]
        rows = read_jsonl(self.eval_manifest)
        self.images = [self.eval_manifest.parent / r["image"] for r in rows]
        self.reference = {i: [] for i in range(len(rows))}
        for row in read_jsonl(ref / "detections.jsonl"):
            self.reference[row["image_id"]].append(without_image_id(row))
        self.images_per_op = 1

    def finish(self):
        return True

    def op_argv(self, i):
        out = self.work / "detect"
        (out / "detections.jsonl").unlink(missing_ok=True)
        return ["detect", "--config", self.config, "--checkpoint", self.checkpoint,
                "--image", self.images[i % len(self.images)], "--out", out]

    def check(self, i):
        got = [without_image_id(r) for r in read_jsonl(self.work / "detect" / "detections.jsonl")]
        if got != self.reference[i % len(self.images)]:
            print(f"detect request {i}: detections differ from the eval path", file=sys.stderr)
            return False
        return True

    def images_per_s(self) -> float:
        """Requests per second of time spent inside the detect calls."""
        return len(self.outcome.latencies) / sum(self.outcome.latencies)


WORKLOADS = {"train": Train, "eval": Eval, "detect": Detect}


def load_oracles():
    """The repository's brute-force reference implementations, tests/oracles.py."""
    path = Path(rk_cli.__file__).resolve().parents[2] / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("retina_kit_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def without_image_id(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "image_id"}


def ground_truth(manifest: Path) -> dict:
    """{image index: [BBox]} straight from the manifest.

    Synth images are 64x64, the desk input size, so boxes need no rescale.
    """
    return {i: [BBox(*b) for b in row["boxes"]] for i, row in enumerate(read_jsonl(manifest))}
