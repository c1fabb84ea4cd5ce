"""The training input pipeline: the forked minibatch worker against the in-process generator.

run_training prepares minibatch k+1 (augmentation and anchor assignment) in
one forked worker while minibatch k runs. The same generator run in-process
is the oracle: outputs, error messages, exit codes and files left behind
must match it, and no process may outlive a run.
"""

import contextlib
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

import retina_kit.training as training
from retina_kit.anchors import assign_targets, generate_anchors
from retina_kit.cli import main
from retina_kit.config import load_run_config
from retina_kit.data import augment
from retina_kit.errors import ValidationError
from retina_kit.losses import loss_targets
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


def in_process(monkeypatch):
    """Run the minibatch generator in the main process, as where fork is unavailable."""
    monkeypatch.setattr(training, "_prefetch", lambda inputs, shape: contextlib.nullcontext(inputs))


def train(split, out, capsys, val=False):
    cfg, manifest = split
    capsys.readouterr()
    argv = ["train", "--config", cfg, "--manifest", manifest, "--out", str(out)]
    code = main(argv + (["--val-manifest", manifest] if val else []))
    assert multiprocessing.active_children() == []
    return code, capsys.readouterr().err


def tree(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("val", [False, True], ids=["train", "train-val"])
def test_worker_outputs_equal_in_process(split, tmp_path, capsys, monkeypatch, val):
    assert train(split, tmp_path / "worker", capsys, val)[0] == 0
    in_process(monkeypatch)
    assert train(split, tmp_path / "serial", capsys, val)[0] == 0
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


def test_prefetch_never_overwrites_a_batch_in_use():
    # 300 one-value batches of mixed sizes; a slot rewritten while its view is
    # still held shows up as a wrong value after the pause
    def inputs():
        for k in range(300):
            count = 1 + k % 3
            yield np.full((count, 3, 2, 2), k, np.float32), np.full((count, 5), k % 2, np.int8), k

    with training._prefetch(inputs(), (3, 3, 2, 2)) as batches:
        for k, (images, labels, tag) in enumerate(batches):
            assert (len(images), tag) == (1 + k % 3, k)
            if k % 7 == 0:
                time.sleep(0.002)
            assert np.all(images == k) and np.all(labels == k % 2)
    assert k == 299
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
