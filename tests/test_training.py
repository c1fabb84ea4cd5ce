"""The forked workers against the same work run in-process.

run_training prepares minibatch k+1 (augmentation and anchor assignment) in
one forked worker while minibatch k runs, and evaluate_params (`eval` and
validation) runs every odd chunk of EVAL_CHUNK images in one forked worker
while the main process runs the even ones. The same work run in-process is
the oracle: outputs, error messages, exit codes and files left behind must
match it, and no process may outlive a run.
"""

import contextlib
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import retina_kit.cli as cli
import retina_kit.postprocess as postprocess
import retina_kit.training as training
from oracles import read_detections
from retina_kit.anchors import assign_targets, generate_anchors
from retina_kit.checkpoint import (
    build_checkpoint,
    canonical_json,
    load_checkpoint,
    save_checkpoint,
)
from retina_kit.cli import main
from retina_kit.config import load_run_config, run_config_to_dict
from retina_kit.data import augment
from retina_kit.errors import NumericError, ValidationError
from retina_kit.evaluation import ImageMatches
from retina_kit.losses import loss_targets
from retina_kit.network import init_params
from retina_kit.optim import AdamState
from retina_kit.ppm import load_ppm

# 13 images at batch size 4: three full minibatches and a ragged one per epoch
CONFIG = {
    "seed": 5,
    "synth": {"num_images": 13, "noise_std": 0.05},
    "network": {"stem_channels": [4, 8, 12, 16], "fpn_channels": 8, "head_depth": 1},
    "training": {"epochs": 2, "eval_every": 1, "batch_size": 4},
}


@pytest.fixture(scope="module")
def split(tmp_path_factory):
    root = tmp_path_factory.mktemp("split")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    assert main(["synth", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return str(cfg), str(root / "data" / "manifest.jsonl")


@pytest.fixture(scope="module")
def eval_split(tmp_path_factory):
    """70 images (two whole eval chunks and a ragged one) and a checkpoint with detections on them.

    Returns (config path, manifest path, checkpoint path).
    """
    assert 2 * training.EVAL_CHUNK < 70 < 3 * training.EVAL_CHUNK
    root = tmp_path_factory.mktemp("eval-split")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps({**CONFIG, "synth": {**CONFIG["synth"], "num_images": 70}}))
    assert main(["synth", "--config", str(cfg_path), "--out", str(root / "data")]) == 0
    cfg = load_run_config(cfg_path)
    params = init_params(cfg.network, cfg.anchors, np.random.default_rng(4))
    # lift some scores over the prior and score_threshold
    params["cls_out.w"] = params["cls_out.w"] * 10.0
    params["cls_out.b"] = params["cls_out.b"] + 1.5
    ckpt = root / "lifted.rkck"
    echo = canonical_json(run_config_to_dict(cfg))
    save_checkpoint(ckpt, build_checkpoint(params, AdamState.zeros_like(params), echo))
    return str(cfg_path), str(root / "data" / "manifest.jsonl"), str(ckpt)


def in_process(monkeypatch):
    """Report the fork start method unavailable, so every worker's items run in the main process."""
    methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
    monkeypatch.setattr(training.multiprocessing, "get_all_start_methods", lambda: methods)


def count_forwards(monkeypatch):
    """A list that gains one entry per network forward the main process runs."""
    calls, real = [], training.forward
    monkeypatch.setattr(training, "forward", lambda *args: calls.append(1) or real(*args))
    return calls


def train(split, out, capsys, val_manifest=None, resume=None):
    cfg, manifest = split
    capsys.readouterr()
    argv = ["train", "--config", cfg, "--manifest", manifest, "--out", str(out)]
    if val_manifest:
        argv += ["--val-manifest", val_manifest]
    if resume:
        argv += ["--resume", str(resume)]
    code = main(argv)
    assert multiprocessing.active_children() == []
    return code, capsys.readouterr().err


def evaluate(eval_split, out, capsys, manifest=None):
    cfg, all_images, ckpt = eval_split
    capsys.readouterr()
    code = main(["eval", "--config", cfg, "--checkpoint", ckpt,
                 "--manifest", str(manifest or all_images), "--out", str(out)])
    assert multiprocessing.active_children() == []
    return code, capsys.readouterr().err


def subset(eval_split, path, n, images=None):
    """The split's first n rows with absolute image paths; images maps a row index to a new image."""
    manifest = Path(eval_split[1])
    rows = [json.loads(line) for line in manifest.read_text().splitlines()[:n]]
    for i, row in enumerate(rows):
        row["image"] = str((images or {}).get(i, manifest.parent / row["image"]))
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


def tree(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def assert_no_outputs(out):
    left = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert not [n for n in left if n in ("report.json", "detections.jsonl")
                or n.endswith(".partial")], left


@pytest.mark.parametrize("val", [False, True], ids=["train", "train-val"])
def test_worker_outputs_equal_in_process(split, tmp_path, capsys, monkeypatch, val):
    val_manifest = split[1] if val else None
    assert train(split, tmp_path / "worker", capsys, val_manifest)[0] == 0
    in_process(monkeypatch)
    assert train(split, tmp_path / "serial", capsys, val_manifest)[0] == 0
    worker, serial = tree(tmp_path / "worker"), tree(tmp_path / "serial")
    assert sorted(worker) == ["checkpoint.rkck", "metrics.jsonl"]
    assert worker == serial


def fail_mid_epoch(split, tmp_path, capsys, monkeypatch, fail):
    """Call fail() at the 19th augment, in the worker and then in-process.

    Both runs must end alike; returns their (exit code, stderr) and the
    files the worker's run left.
    """
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 19:  # image 6 of epoch 1, in its second minibatch
            fail()
        return augment(*args)

    monkeypatch.setattr(training, "augment", failing)
    # the worker counts in its own copy of `calls`, so both runs fail at the same image
    result = train(split, tmp_path / "worker", capsys)
    in_process(monkeypatch)
    assert train(split, tmp_path / "serial", capsys) == result
    worker, serial = tree(tmp_path / "worker"), tree(tmp_path / "serial")
    assert worker == serial
    return result, sorted(worker)


def test_batch_past_the_split_equals_in_process(split, tmp_path, capsys, monkeypatch):
    # one minibatch per epoch holds all 13 images; the slots hold 13 images, not 10,000,000
    cfg = tmp_path / "big-batch.json"
    big_batch = {**CONFIG["training"], "batch_size": 10_000_000}
    cfg.write_text(json.dumps({**CONFIG, "training": big_batch}))
    big = (str(cfg), split[1])
    shapes = []
    real = training._prefetch
    monkeypatch.setattr(
        training, "_prefetch", lambda inputs, shape: shapes.append(shape) or real(inputs, shape)
    )
    assert train(big, tmp_path / "worker", capsys) == (0, "")
    assert shapes == [(13, 3, 64, 64)]
    in_process(monkeypatch)
    assert train(big, tmp_path / "serial", capsys) == (0, "")
    worker, serial = tree(tmp_path / "worker"), tree(tmp_path / "serial")
    assert sorted(worker) == ["checkpoint.rkck", "metrics.jsonl"]
    assert worker == serial


def test_worker_error_mid_epoch_matches_in_process(split, tmp_path, capsys, monkeypatch):
    def fail():
        raise ValidationError("augment refused image")

    result, files = fail_mid_epoch(split, tmp_path, capsys, monkeypatch, fail)
    assert result == (1, "error: augment refused image\n")
    assert files == ["checkpoint.rkck.partial", "metrics.jsonl.partial"]


def test_worker_ppm_error_mid_epoch_matches_in_process(split, tmp_path, capsys, monkeypatch):
    # a PpmParseError must cross the worker's pipe with its message intact
    cut = tmp_path / "cut.ppm"
    cut.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    (code, err), files = fail_mid_epoch(split, tmp_path, capsys, monkeypatch, lambda: load_ppm(cut))
    assert code == 1
    assert err.startswith(f"error: {cut}: pixel payload needs") and err.endswith(")\n")
    assert files == ["checkpoint.rkck.partial", "metrics.jsonl.partial"]


def test_main_process_numeric_error_names_the_sample(split, tmp_path, capsys, monkeypatch):
    real = training.total_detection_loss
    calls = []

    def nan_in_second_image(*args):
        losses, g_cls, g_box = real(*args)
        calls.append(1)
        if len(calls) == 2:  # epoch 0, batch 1
            losses[1] = np.nan
        return losses, g_cls, g_box

    monkeypatch.setattr(training, "total_detection_loss", nan_in_second_image)
    code, err = train(split, tmp_path / "worker", capsys)
    assert code == 2
    samples = training.load_samples(split[1])
    order = training._epoch_order(load_run_config(split[0]), len(samples), 0)
    path = samples[order[4 + 1]].path
    assert err == f"numeric error: non-finite loss at epoch 0 batch 1 (sample {path})\n"
    assert sorted(tree(tmp_path / "worker")) == ["metrics.jsonl.partial"]


def test_worker_killed_mid_run_exits_two(split, tmp_path, capsys, monkeypatch):
    main_pid = os.getpid()

    def dying(*args):
        if os.getpid() != main_pid:
            os._exit(7)
        return augment(*args)

    monkeypatch.setattr(training, "augment", dying)
    code, err = train(split, tmp_path / "worker", capsys)
    assert (code, err) == (2, "error: minibatch worker exited with code 7\n")


def test_prefetch_never_overwrites_a_batch_in_use(monkeypatch):
    # 300 one-value batches of mixed sizes; a slot rewritten while its view is
    # still held shows up as a wrong value after the pause
    def inputs():
        for k in range(300):
            count = 1 + k % 3
            yield np.full((count, 3, 2, 2), k, np.float32), np.full((count, 5), k % 2, np.int8), k

    for forked in (True, False):
        if not forked:
            in_process(monkeypatch)
        with training._prefetch(inputs(), (3, 3, 2, 2)) as batches:
            for k, (images, labels, tag) in enumerate(batches):
                assert (len(images), tag) == (1 + k % 3, k)
                if k % 7 == 0:
                    time.sleep(0.002)
                assert np.all(images == k) and np.all(labels == k % 2)
        assert k == 299
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
def test_prefetch_runs_at_most_two_minibatches_ahead(monkeypatch, forked):
    # after minibatch k is taken, the worker has made at most minibatches k + 1
    # and k + 2, into the other two slots: it makes k + 3 only once k is acknowledged
    if not forked:
        in_process(monkeypatch)
    made = multiprocessing.Value("i", 0)

    def inputs():
        for k in range(40):
            with made.get_lock():
                made.value += 1
            yield np.full((1, 3, 2, 2), k, np.float32), np.zeros((1, 5), np.int8), k

    with training._prefetch(inputs(), (1, 3, 2, 2)) as batches:
        for k, (_, _, tag) in enumerate(batches):
            time.sleep(0.002)  # time for the worker to run as far ahead as it may
            assert tag == k and made.value <= k + 3
    assert k == 39
    assert multiprocessing.active_children() == []


def test_worker_reads_every_acknowledgement():
    # far more acknowledgements than a pipe holds unread; a worker that left
    # them unread would block the main process's next one, and with it itself
    def timed_out(signum, frame):
        pytest.fail("the worker and the main process deadlocked")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(30)
    try:
        with training._forked(iter(range(5000)), "test worker") as items:
            assert list(items) == list(range(5000))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_minibatch_inputs_follow_the_epoch_order(split):
    cfg = load_run_config(split[0])
    samples = training.load_samples(split[1])
    prepared = [training.prepare_eval_input(s, cfg) for s in samples]
    grid = generate_anchors(cfg.anchors, *cfg.training.input_size)
    batches = list(training._minibatch_inputs(prepared, grid, cfg, len(samples), 1))
    assert [len(images) for images, _, _ in batches] == [4, 4, 4, 1]
    order = training._epoch_order(cfg, len(samples), 1)
    idx = int(order[12])
    rng = np.random.default_rng([cfg.seed, training.STREAM_AUGMENT, 1, idx])
    image, boxes = augment(*prepared[idx], cfg.augment, rng)
    labels, targets = loss_targets([assign_targets(grid, boxes, cfg.anchors)])
    last = batches[-1]
    assert np.array_equal(last[0][0], image)
    assert np.array_equal(last[1], labels) and np.array_equal(last[2], targets)


def test_eval_worker_outputs_equal_in_process(eval_split, tmp_path, capsys, monkeypatch):
    forwards = count_forwards(monkeypatch)
    assert evaluate(eval_split, tmp_path / "worker", capsys) == (0, "")
    assert len(forwards) == 2  # chunks 0 and 2; the worker ran chunk 1
    in_process(monkeypatch)
    assert evaluate(eval_split, tmp_path / "serial", capsys) == (0, "")
    assert len(forwards) == 2 + 3
    worker, serial = tree(tmp_path / "worker"), tree(tmp_path / "serial")
    assert sorted(worker) == ["detections.jsonl", "report.json"]
    dets = read_detections(tmp_path / "worker" / "detections.jsonl")
    assert set((dets.image_ids // training.EVAL_CHUNK).tolist()) == {0, 1, 2}
    assert worker == serial


def test_eval_worker_with_many_chunks_equals_in_process(eval_split, tmp_path, capsys,
                                                        monkeypatch):
    assert evaluate(eval_split, tmp_path / "chunk32", capsys) == (0, "")
    # 70 images in 9 chunks of 8 (the last of 6), the worker running chunks 1, 3, 5 and 7
    monkeypatch.setattr(training, "EVAL_CHUNK", 8)
    forwards = count_forwards(monkeypatch)
    assert evaluate(eval_split, tmp_path / "worker", capsys) == (0, "")
    assert len(forwards) == 5
    in_process(monkeypatch)
    assert evaluate(eval_split, tmp_path / "serial", capsys) == (0, "")
    assert len(forwards) == 5 + 9
    worker = tree(tmp_path / "worker")
    assert sorted(worker) == ["detections.jsonl", "report.json"]
    assert worker == tree(tmp_path / "serial") == tree(tmp_path / "chunk32")


def test_validation_in_eval_worker_equals_in_process(split, eval_split, tmp_path, capsys,
                                                     monkeypatch):
    # 2 epochs of 4 minibatches, each validated on 70 images in 3 chunks
    forwards = count_forwards(monkeypatch)
    assert train(split, tmp_path / "worker", capsys, eval_split[1]) == (0, "")
    assert len(forwards) == 2 * (4 + 2)
    in_process(monkeypatch)
    assert train(split, tmp_path / "serial", capsys, eval_split[1]) == (0, "")
    assert len(forwards) == 2 * (4 + 2) + 2 * (4 + 3)
    worker, serial = tree(tmp_path / "worker"), tree(tmp_path / "serial")
    assert sorted(worker) == ["checkpoint.rkck", "metrics.jsonl"]
    assert worker == serial


def test_resumed_validation_writes_each_metrics_row_once(split, eval_split, tmp_path, capsys):
    # the resumed run's carried row is still in metrics.jsonl.partial's write
    # buffer when the eval worker forks; a worker that flushed it on exit
    # would write it twice
    one_epoch = tmp_path / "one-epoch.json"
    one_epoch.write_text(json.dumps({**CONFIG, "training": {**CONFIG["training"], "epochs": 1}}))
    first = tmp_path / "first"
    assert train((str(one_epoch), split[1]), first, capsys, eval_split[1]) == (0, "")
    resumed, straight = tmp_path / "resumed", tmp_path / "straight"
    resume = first / "checkpoint.rkck"
    assert train(split, resumed, capsys, eval_split[1], resume) == (0, "")
    assert train(split, straight, capsys, eval_split[1]) == (0, "")
    assert len((resumed / "metrics.jsonl").read_text().splitlines()) == 2
    assert tree(resumed) == tree(straight)


@pytest.mark.parametrize("n, forks", [(32, 0), (33, 1)])
def test_eval_forks_only_past_one_chunk(eval_split, tmp_path, capsys, monkeypatch, n, forks):
    calls, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real())
    manifest = subset(eval_split, tmp_path / "subset.jsonl", n)
    assert evaluate(eval_split, tmp_path / "out", capsys, manifest) == (0, "")
    assert len(calls) == forks


@pytest.mark.parametrize("bad", [(40, 65), (10, 40)], ids=["worker-first", "main-first"])
def test_eval_errors_in_chunk_order(eval_split, tmp_path, capsys, monkeypatch, bad):
    # truncated images in two chunks, one run by each process: the earlier chunk's is reported
    rows = Path(eval_split[1]).read_text().splitlines()
    cut = {}
    for i in bad:
        whole = (Path(eval_split[1]).parent / json.loads(rows[i])["image"]).read_bytes()
        cut[i] = tmp_path / f"cut{i}.ppm"
        cut[i].write_bytes(whole[: len(whole) // 2])
    manifest = subset(eval_split, tmp_path / "cut.jsonl", 70, cut)
    result = evaluate(eval_split, tmp_path / "worker", capsys, manifest)
    assert result[0] == 1
    assert result[1].startswith(f"error: {cut[bad[0]]}: pixel payload needs")
    in_process(monkeypatch)
    assert evaluate(eval_split, tmp_path / "serial", capsys, manifest) == result
    assert_no_outputs(tmp_path / "worker")
    assert_no_outputs(tmp_path / "serial")


def test_eval_worker_numeric_error_matches_in_process(eval_split, tmp_path, capsys, monkeypatch):
    real = training.decode_detections

    def failing(*args):
        if args[-1][0] == training.EVAL_CHUNK:  # chunk 1's image ids, the worker's chunk
            raise NumericError("non-finite scores in chunk 1")
        return real(*args)

    monkeypatch.setattr(training, "decode_detections", failing)
    forwards = count_forwards(monkeypatch)
    result = evaluate(eval_split, tmp_path / "worker", capsys)
    assert result == (2, "numeric error: non-finite scores in chunk 1\n")
    assert len(forwards) == 1  # the main process ran chunk 0 only
    in_process(monkeypatch)
    assert evaluate(eval_split, tmp_path / "serial", capsys) == result
    assert_no_outputs(tmp_path / "worker")
    assert_no_outputs(tmp_path / "serial")


def test_eval_worker_killed_exits_two(eval_split, tmp_path, capsys, monkeypatch):
    main_pid, real = os.getpid(), training.decode_detections

    def dying(*args):
        if os.getpid() != main_pid:
            os._exit(7)
        return real(*args)

    monkeypatch.setattr(training, "decode_detections", dying)
    result = evaluate(eval_split, tmp_path / "worker", capsys)
    assert result == (2, "error: eval worker exited with code 7\n")
    assert_no_outputs(tmp_path / "worker")


def count_formatted(monkeypatch):
    """A count of detection_rows calls shared by both processes; the text they return is marked."""
    calls, real = multiprocessing.Value("i", 0), postprocess.detection_rows

    def marked(dets):
        with calls.get_lock():
            calls.value += 1
        return real(dets).replace('{"image_id"', '{"IMAGE_ID"')

    for module in (postprocess, training, cli):
        monkeypatch.setattr(module, "detection_rows", marked)
    return calls


def test_every_detections_file_comes_from_the_one_formatter(eval_split, tmp_path, capsys,
                                                            monkeypatch):
    cfg, manifest, ckpt = eval_split
    formatted = count_formatted(monkeypatch)
    assert evaluate(eval_split, tmp_path / "eval", capsys) == (0, "")
    assert formatted.value == 3  # once per chunk, the worker's chunk included
    assert main(["eval", "--config", cfg, "--replay-gt", "--manifest", manifest,
                 "--out", str(tmp_path / "replay")]) == 0
    image = Path(manifest).parent / "img_00005.ppm"
    assert main(["detect", "--config", cfg, "--checkpoint", ckpt, "--image", str(image),
                 "--annotate", "--out", str(tmp_path / "detect")]) == 0
    assert formatted.value == 5
    for out in ("eval", "replay", "detect"):
        lines = (tmp_path / out / "detections.jsonl").read_text().splitlines()
        assert lines and all(line.startswith('{"IMAGE_ID"') for line in lines), out


def test_validation_formats_no_rows(split, eval_split, tmp_path, capsys, monkeypatch):
    formatted = count_formatted(monkeypatch)
    assert train(split, tmp_path / "worker", capsys, eval_split[1]) == (0, "")
    assert formatted.value == 0


@pytest.mark.parametrize("rows", [True, False])
def test_eval_worker_sends_matches_and_rows_only(eval_split, monkeypatch, rows):
    # no boxes and no ground truth cross the pipe, and no rows unless asked for
    sent, real = [], training._forked

    @contextlib.contextmanager
    def spied(items, name):
        with real(items, name) as received:
            assert len(multiprocessing.active_children()) == 1  # the items cross the pipe
            yield (sent.append(item) or item for item in received)

    monkeypatch.setattr(training, "_forked", spied)
    cfg = load_run_config(eval_split[0])
    params, _ = training.load_params_for_config(load_checkpoint(eval_split[2]), cfg)
    _, texts = training.evaluate_params(params, cfg, training.load_samples(eval_split[1]), rows)
    [(matches, text)] = sent  # chunk 1 of 3
    assert type(matches) is ImageMatches and matches.num_images == training.EVAL_CHUNK
    assert text == (texts[1] if rows else None)

