"""Training loop and the shared inference/evaluation path.

Training reads and preprocesses every image once, into a cache. Pipeline
per minibatch: augment and anchor assignment per image -> one forward over
the stacked images -> the batch's detection losses -> one backward. The
batch's summed gradients are divided by the batch size and fed to Adam.
Augmentation and assignment run one minibatch ahead in a forked worker
process (see _prefetch), so they overlap the forward and backward; the main
process does everything else. Evaluation reads, preprocesses, infers and
decodes EVAL_CHUNK images at a time: the main process runs the even chunks
and one forked worker the odd ones, and the main process takes their
detections in chunk order, then scores them (see evaluate_params). Both
workers run through _forked, and in-process where fork is unavailable.
Validation mAP runs the exact decode + NMS + COCO path used by `eval`, so the
reported number is the deployable metric.
"""

from __future__ import annotations

import json
import math
import mmap
import multiprocessing
import os
import signal
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from pathlib import Path
from traceback import format_exc

import numpy as np

from .anchors import AnchorGrid, assign_targets, generate_anchors
from .checkpoint import (
    Checkpoint,
    build_checkpoint,
    canonical_json,
    load_checkpoint,
    save_checkpoint,
)
from .config import RunConfig, run_config_to_dict
from .data import augment, preprocess, read_manifest
from .errors import NumericError, RetinaKitError, ValidationError
from .evaluation import coco_map
from .losses import loss_targets, total_detection_loss
from .network import backward, forward, init_params, param_shapes
from .optim import AdamState, adam_step, flat_buffer, packed
from .outputs import read_lines
from .postprocess import Detections, decode_detections
from .ppm import load_ppm

STREAM_INIT = 202
STREAM_SHUFFLE = 303
STREAM_AUGMENT = 404

# Dotted config fields (or "section." prefixes) a checkpoint's config echo is
# compared on. Inference needs the anchor geometry and input frame the heads
# were trained on; a resumed run needs every field but its length, its output
# name and the synthetic-data recipe.
INFERENCE_FIELDS = ("anchors.levels", "anchors.scales", "anchors.ratios", "training.input_size")
RESUME_FREE_FIELDS = (
    "training.epochs", "training.eval_every", "training.checkpoint_path", "synth."
)


# images `eval` reads, preprocesses, infers and decodes at a time; an image's
# detections do not depend on its chunk, only the memory and the speed do
EVAL_CHUNK = 32


@dataclass
class Sample:
    """A manifest entry: where its image is, its ground truth and its id; no pixels."""

    path: str
    boxes: np.ndarray  # (G, 4) corners in original-image pixels
    image_id: int


def load_samples(manifest_path) -> list[Sample]:
    """Read a manifest; paths resolve against the manifest dir and must exist.

    The images themselves are read where they are used (prepare_eval_input).
    """
    base = Path(manifest_path).parent
    samples = []
    for i, rec in enumerate(read_manifest(manifest_path)):
        img_path = Path(rec.image_path)
        if not img_path.is_absolute():
            img_path = base / img_path
        if not img_path.exists():
            raise ValidationError(f"manifest references missing image: {img_path}")
        samples.append(Sample(path=str(img_path), boxes=rec.boxes, image_id=i))
    return samples


def prepare_eval_input(sample: Sample, cfg: RunConfig):
    """Read the sample's image: its input tensor plus ground truth in the input pixel frame."""
    in_w, in_h = cfg.training.input_size
    image = load_ppm(sample.path)
    _, h, w = image.shape
    tensor = preprocess(image, (in_w, in_h))
    sx, sy = in_w / w, in_h / h
    return tensor, sample.boxes * np.array([sx, sy, sx, sy])


def infer_detections(params, cfg: RunConfig, grid: AnchorGrid, tensors, image_ids) -> Detections:
    """Detections of a batch of preprocessed (3, H, W) inputs, in batch order.

    grid is generate_anchors(cfg.anchors, *cfg.training.input_size), built
    once by the caller.
    """
    in_w, in_h = cfg.training.input_size
    (cls_rows, box_rows), _ = forward(np.stack(tensors), params, cfg.network, cfg.anchors)
    return decode_detections(cls_rows, box_rows, grid, cfg.eval, in_w, in_h, image_ids)


def evaluate_params(params, cfg: RunConfig, samples: list[Sample]):
    """Full eval, reading the images EVAL_CHUNK at a time; returns (report, Detections).

    With two chunks or more, a forked worker runs the odd chunks end to end
    while the main process runs the even ones. The main process takes each
    chunk's detections and ground truth in chunk order, so the first error in
    chunk order is the one raised, as in a serial run.
    """
    grid = generate_anchors(cfg.anchors, *cfg.training.input_size)
    chunks = [samples[start : start + EVAL_CHUNK] for start in range(0, len(samples), EVAL_CHUNK)]

    def infer(chunk):
        """The chunk's Detections, and its ground truth in the input frame by image id."""
        tensors, gts = [], {}
        for sample in chunk:
            tensor, gts[sample.image_id] = prepare_eval_input(sample, cfg)
            tensors.append(tensor)
        return infer_detections(params, cfg, grid, tensors, [s.image_id for s in chunk]), gts

    def odd_chunks(conn):
        return map(infer, chunks[1::2])

    parts = []
    all_gts = {}
    with _forked(odd_chunks, "eval worker") if len(chunks) > 1 else nullcontext() as worker:
        for k, chunk in enumerate(chunks):
            dets, gts = worker.recv() if k % 2 and worker else infer(chunk)
            parts.append(dets)
            all_gts.update(gts)
    dets = Detections.concat(parts)
    return coco_map(dets, all_gts, cfg.eval), dets


@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_path: str
    final_val: dict | None


def _prior_metrics_rows(checkpoint_path, epochs: int) -> list[str]:
    """The metrics rows of epochs 0..epochs-1 of the run that wrote a checkpoint.

    They sit next to the checkpoint, in metrics.jsonl, or in
    metrics.jsonl.partial for a periodic <checkpoint>.partial. The lines come
    back verbatim, so a resumed run's metrics.jsonl matches a straight run's.
    """
    ckpt = Path(checkpoint_path)
    name = "metrics.jsonl.partial" if ckpt.name.endswith(".partial") else "metrics.jsonl"
    path = ckpt.with_name(name)
    if not path.is_file():
        raise ValidationError(f"cannot resume: metrics file {path} of the resumed run is missing")
    lines = read_lines(path)[:epochs]
    try:
        found = [json.loads(line)["epoch"] for line in lines]
    except (ValueError, TypeError, KeyError):
        found = None
    if found != list(range(epochs)):
        raise ValidationError(
            f"cannot resume: {path} must begin with the rows of epochs 0..{epochs - 1}, "
            f"one per epoch in order"
        )
    return lines


def _epoch_order(cfg: RunConfig, n: int, epoch: int) -> np.ndarray:
    return np.random.default_rng([cfg.seed, STREAM_SHUFFLE, epoch]).permutation(n)


def _minibatch_inputs(prepared, grid: AnchorGrid, cfg: RunConfig, n: int, start_epoch: int):
    """Each minibatch's inputs from start_epoch on, in the order training takes them.

    Yields (images (b, 3, H, W) float32, labels, target_deltas), the last
    two as total_detection_loss takes them. Every image draws its
    augmentation from its own (seed, epoch, index) stream.
    """
    batch_size = cfg.training.batch_size
    for epoch in range(start_epoch, cfg.training.epochs):
        order = _epoch_order(cfg, n, epoch)
        for b in range(0, n, batch_size):
            tensors, assignments = [], []
            for idx in order[b : b + batch_size]:
                tensor, boxes = prepared[idx]
                aug_rng = np.random.default_rng([cfg.seed, STREAM_AUGMENT, epoch, int(idx)])
                tensor, boxes = augment(tensor, boxes, cfg.augment, aug_rng)
                tensors.append(tensor)
                assignments.append(assign_targets(grid, boxes, cfg.anchors))
            yield (np.stack(tensors), *loss_targets(assignments))


# seconds a forked worker gets to exit once its pipe is closed, before it is terminated
WORKER_EXIT_TIMEOUT = 5.0


def _serve(conn, main_end, messages, name: str) -> None:
    """Forked worker: send each message messages(conn) yields, then None.

    An exception raised instead is sent in the next message's place, its
    traceback attached as a note, and the main process raises it when it
    reads that message. The worker then holds its end of the pipe until the
    main process closes its own, so a message sent to it never meets a
    closed pipe.
    """
    main_end.close()  # the fork's copy; the pipe must close when the main process closes it
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the main process's to handle
    try:
        for msg in messages(conn):
            conn.send(msg)
        conn.send(None)
    except Exception as e:  # a send to a closed pipe lands here too, and its forward fails
        e.__notes__ = [*getattr(e, "__notes__", ()), f"in the {name}:\n{format_exc()}"]
        with suppress(OSError):
            conn.send(e)
    with suppress(EOFError, OSError):
        while True:
            conn.recv()


@dataclass
class _Worker:
    """The main process's end of a forked worker's pipe (see _forked)."""

    conn: multiprocessing.connection.Connection
    process: multiprocessing.Process
    name: str

    def send(self, obj) -> None:
        try:
            self.conn.send(obj)
        except OSError:
            raise self._exited() from None

    def recv(self):
        """The worker's next message, or None once it has no more; an error it sent is raised."""
        try:
            msg = self.conn.recv()
        except (EOFError, OSError):
            raise self._exited() from None
        if isinstance(msg, BaseException):
            raise msg
        return msg

    def _exited(self) -> RetinaKitError:
        self.process.join()
        return RetinaKitError(f"{self.name} exited with code {self.process.exitcode}")


@contextmanager
def _forked(messages, name: str):
    """messages(conn) run in a forked worker process, whose _Worker end this yields.

    Yields None where fork is unavailable; the caller then does the work
    in-process. The worker ends through os._exit, as every fork Process
    does, so buffers the main process holds open are not flushed twice. On
    leaving, the pipe is closed and the worker joined, or terminated after
    WORKER_EXIT_TIMEOUT seconds.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        yield None
        return
    conn, child_conn = multiprocessing.Pipe()
    process = multiprocessing.get_context("fork").Process(
        target=_serve, args=(child_conn, conn, messages, name), daemon=True
    )
    process.start()
    child_conn.close()
    try:
        yield _Worker(conn, process, name)
    finally:
        conn.close()
        process.join(WORKER_EXIT_TIMEOUT)
        if process.is_alive():
            process.terminate()
            process.join()


def _received(worker: _Worker, slots):
    """The worker's minibatches; each image batch is a view of its slot.

    The slot goes back to the worker when the next minibatch is asked for,
    so a view must not be used past that.
    """
    slot = None
    while True:
        if slot is not None:
            worker.send(slot)
        msg = worker.recv()
        if msg is None:
            return
        slot, count, labels, target_deltas = msg
        yield slots[slot, :count], labels, target_deltas


@contextmanager
def _prefetch(inputs, batch_shape):
    """inputs, run one minibatch ahead in a forked worker process (see _forked).

    Image batches travel through two shared-memory slots of batch_shape
    (B, 3, H, W); the labels and targets, which are small, through the
    worker's pipe. Where fork is unavailable, inputs runs in-process.
    """
    nbytes = 2 * math.prod(batch_shape) * np.dtype(np.float32).itemsize
    slots = np.frombuffer(mmap.mmap(-1, nbytes), np.float32).reshape(2, *batch_shape)

    def fill_slots(conn):
        """Write each minibatch of inputs to a free slot, then announce it.

        A message is (slot, count, labels, target_deltas). Both slots start
        free; the main process sends a slot back once it is done with it,
        and the worker waits for one before it writes.
        """
        free = [0, 1]
        for images, labels, target_deltas in inputs:
            if not free:
                free.append(conn.recv())
            slot = free.pop(0)
            slots[slot, : len(images)] = images
            yield slot, len(images), labels, target_deltas

    with _forked(fill_slots, "minibatch worker") as worker:
        yield inputs if worker is None else _received(worker, slots)


def run_training(
    cfg: RunConfig,
    train_manifest,
    val_manifest=None,
    out_dir=".",
    resume=None,
) -> TrainResult:
    out = Path(out_dir)
    train_samples = load_samples(train_manifest)
    if not train_samples:
        raise ValidationError(f"training manifest {train_manifest} has no samples")
    n = len(train_samples)
    batch_size = cfg.training.batch_size
    steps_per_epoch = math.ceil(n / batch_size)
    final_step = cfg.training.epochs * steps_per_epoch
    if final_step > 2**24:  # the checkpoint stores the Adam step as float32, exact up to 2**24
        raise ValidationError(
            f"training.epochs {cfg.training.epochs} at {steps_per_epoch} steps per epoch ends at "
            f"Adam step {final_step}, past 2**24, the last step a checkpoint stores exactly"
        )
    val_samples = load_samples(val_manifest) if val_manifest else None
    if val_samples == []:
        raise ValidationError(f"validation manifest {val_manifest} has no samples")
    # the preprocessed inputs and input-frame boxes, read once; augmentation
    # operates in the input frame every epoch
    prepared = [prepare_eval_input(s, cfg) for s in train_samples]
    for sample in val_samples or ():
        load_ppm(sample.path)  # an unreadable val image fails now, not after training

    in_w, in_h = cfg.training.input_size
    grid = generate_anchors(cfg.anchors, in_w, in_h)
    config_echo = canonical_json(run_config_to_dict(cfg))

    carried: list[str] = []
    if resume is not None:
        loaded, moments = load_params_for_config(load_checkpoint(resume), cfg, resume=True)
        # adam_step steps each of these as one flat buffer
        params = packed(loaded)
        state = AdamState(packed(moments.m), packed(moments.v), moments.step)
        if state.step % steps_per_epoch:
            raise ValidationError(
                f"checkpoint step {state.step} is not on an epoch boundary: {n} images at "
                f"batch size {batch_size} make {steps_per_epoch} steps per epoch"
            )
        if state.step > final_step:
            raise ValidationError(
                f"checkpoint has trained {state.step // steps_per_epoch} epochs, past "
                f"training.epochs {cfg.training.epochs}"
            )
        carried = _prior_metrics_rows(resume, state.step // steps_per_epoch)
    else:
        rng = np.random.default_rng([cfg.seed, STREAM_INIT])
        params = init_params(cfg.network, cfg.anchors, rng)
        state = AdamState.zeros_like(params)
    start_epoch = state.step // steps_per_epoch

    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / cfg.training.checkpoint_path
    partial_path = ckpt_path.with_name(ckpt_path.name + ".partial")
    metrics_path = out / "metrics.jsonl"
    metrics_partial = out / "metrics.jsonl.partial"

    final_val = None
    inputs = _minibatch_inputs(prepared, grid, cfg, n, start_epoch)
    with open(metrics_partial, "w", encoding="utf-8") as mf, _prefetch(
        inputs, (min(batch_size, n), 3, in_h, in_w)
    ) as batches:
        mf.writelines(line + "\n" for line in carried)
        for epoch in range(start_epoch, cfg.training.epochs):
            order = _epoch_order(cfg, n, epoch)
            loss_sum = 0.0
            for b in range(0, n, batch_size):
                images, labels, target_deltas = next(batches)
                (cls_rows, box_rows), cache = forward(images, params, cfg.network, cfg.anchors)
                # each image normalized by its own max(1, num_pos), as if it ran alone
                losses, g_cls, g_box = total_detection_loss(
                    cls_rows, box_rows, labels, target_deltas, cfg.loss
                )
                for i, loss in enumerate(losses.tolist()):
                    if not math.isfinite(loss):
                        raise NumericError(
                            f"non-finite loss at epoch {epoch} batch {b // batch_size} "
                            f"(sample {train_samples[order[b + i]].path})"
                        )
                    loss_sum += loss
                grads = backward(cache, g_cls, g_box)
                flat = flat_buffer(grads)
                np.multiply(flat, 1.0 / len(images), out=flat)
                adam_step(params, grads, state, lr=cfg.training.lr)

            row = {"epoch": epoch, "train_loss": loss_sum / n}
            scheduled = (epoch + 1) % cfg.training.eval_every == 0
            last = epoch == cfg.training.epochs - 1
            if val_samples is not None and (scheduled or last):
                report, _ = evaluate_params(params, cfg, val_samples)
                row["val_map"] = report["map"]
                row["val_ap50"] = report["ap50"]
                final_val = report
            if scheduled and not last:
                save_checkpoint(partial_path, build_checkpoint(params, state, config_echo))
            mf.write(json.dumps(row) + "\n")
            mf.flush()

    # written through <name>.partial, so this also retires the periodic checkpoint
    save_checkpoint(ckpt_path, build_checkpoint(params, state, config_echo))
    os.replace(metrics_partial, metrics_path)
    return TrainResult(
        checkpoint_path=str(ckpt_path),
        metrics_path=str(metrics_path),
        final_val=final_val,
    )


def _leaves(tree: dict, prefix: str = "") -> dict:
    """Nested config dict -> {"section.field": value}; lists stay whole."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def check_config_echo(ckpt: Checkpoint, cfg: RunConfig, resume: bool) -> None:
    """Reject a checkpoint whose config echo differs from cfg where it matters.

    Inference compares INFERENCE_FIELDS, a resumed run every field outside
    RESUME_FREE_FIELDS. Only fields both sides have are compared, so an echo
    that still carries a key this schema removed keeps loading.
    """
    try:
        echo = _leaves(ckpt.config())
    except (ValueError, AttributeError) as e:
        raise ValidationError(f"checkpoint config echo is not a JSON object: {e}") from e
    current = _leaves(run_config_to_dict(cfg))

    def compared(key):
        if resume:
            return not key.startswith(RESUME_FREE_FIELDS)
        return key.startswith(INFERENCE_FIELDS)

    differing = [k for k, v in current.items() if compared(k) and k in echo and echo[k] != v]
    if differing:
        raise ValidationError(
            f"checkpoint was trained under a different config; fields that differ: "
            f"{', '.join(differing)}"
        )


def load_params_for_config(
    ckpt: Checkpoint, cfg: RunConfig, resume: bool = False
) -> tuple[dict, AdamState]:
    """The checkpoint's parameters and Adam state, once it fits cfg.

    Every checkpoint a run reads comes through here: `eval`, `detect` and
    `train --resume`. The config echo is compared first (see
    check_config_echo), then the tensor table (see Checkpoint.unpack).
    """
    check_config_echo(ckpt, cfg, resume)
    return ckpt.unpack(param_shapes(cfg.network, cfg.anchors))
