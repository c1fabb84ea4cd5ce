import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retina_kit
from oracles import read_detections
from retina_kit.checkpoint import load_checkpoint, save_checkpoint
from retina_kit.cli import main
from retina_kit.config import run_config_from_dict, run_config_to_dict
from retina_kit.network import param_shapes

TINY = {
    "seed": 11,
    "synth": {"num_images": 12, "noise_std": 0.05},
    "network": {"stem_channels": [4, 8, 12, 16], "fpn_channels": 8, "head_depth": 1},
    "training": {"epochs": 2, "eval_every": 1, "batch_size": 8},
}


@pytest.fixture
def tiny_cfg_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def synth_dir(cfg_path, tmp_path, name="data"):
    out = tmp_path / name
    assert main(["synth", "--config", cfg_path, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A finished TINY run: (config path, data dir, run dir holding checkpoint.rkck)."""
    # TINY: 12 images at batch size 8, so 2 steps per epoch; step 4 after 2 epochs
    tmp = tmp_path_factory.mktemp("finished")
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(TINY))
    data = synth_dir(str(cfg_path), tmp)
    run = tmp / "run"
    assert main(["train", "--config", str(cfg_path), "--manifest",
                 str(data / "manifest.jsonl"), "--out", str(run)]) == 0
    return str(cfg_path), data, run


class TestSynthCommand:
    def test_writes_expected_tree(self, tiny_cfg_path, tmp_path):
        out = synth_dir(tiny_cfg_path, tmp_path)
        ppms = sorted(p.name for p in out.glob("*.ppm"))
        assert len(ppms) == 12
        assert (out / "manifest.jsonl").exists()

    def test_identical_trees_across_runs(self, tiny_cfg_path, tmp_path):
        a = synth_dir(tiny_cfg_path, tmp_path, "a")
        b = synth_dir(tiny_cfg_path, tmp_path, "b")
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_impossible_template_exits_one(self, tmp_path, capsys):
        cfg = dict(TINY)
        cfg["synth"] = {"image_size": [32, 32], "template_height_px": [20, 60]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "cannot fit" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()  # nothing written on validation failure


class TestTrainCommand:
    def test_zero_epochs_writes_init_checkpoint_only(self, tmp_path):
        cfg = dict(TINY)
        cfg["training"] = {**TINY["training"], "epochs": 0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        data = synth_dir(str(cfg_path), tmp_path)
        out = tmp_path / "run"
        code = main(
            ["train", "--config", str(cfg_path), "--manifest", str(data / "manifest.jsonl"),
             "--out", str(out)]
        )
        assert code == 0
        assert (out / "checkpoint.rkck").exists()
        assert (out / "metrics.jsonl").read_text() == ""
        ckpt = load_checkpoint(out / "checkpoint.rkck")
        assert ckpt.tensors["step"].tolist() == [0.0]

    def test_training_is_deterministic(self, tiny_cfg_path, tmp_path):
        data = synth_dir(tiny_cfg_path, tmp_path)
        manifest = str(data / "manifest.jsonl")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(
                ["train", "--config", tiny_cfg_path, "--manifest", manifest,
                 "--val-manifest", manifest, "--out", str(out)]
            ) == 0
            outs.append(out)
        a, b = outs
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
        assert (a / "checkpoint.rkck").read_bytes() == (b / "checkpoint.rkck").read_bytes()

    def test_metrics_rows_have_loss_and_scheduled_map(self, tiny_cfg_path, tmp_path):
        data = synth_dir(tiny_cfg_path, tmp_path)
        manifest = str(data / "manifest.jsonl")
        out = tmp_path / "run"
        main(["train", "--config", tiny_cfg_path, "--manifest", manifest,
              "--val-manifest", manifest, "--out", str(out)])
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [0, 1]
        assert all(np.isfinite(r["train_loss"]) for r in rows)
        assert all("val_map" in r for r in rows)  # eval_every = 1

    def test_resume_reproduces_straight_run(self, tmp_path):
        cfg4 = dict(TINY)
        cfg4["training"] = {**TINY["training"], "epochs": 4, "eval_every": 10}
        cfg2 = dict(cfg4)
        cfg2["training"] = {**cfg4["training"], "epochs": 2}
        p4 = tmp_path / "c4.json"
        p4.write_text(json.dumps(cfg4))
        p2 = tmp_path / "c2.json"
        p2.write_text(json.dumps(cfg2))
        data = synth_dir(str(p4), tmp_path)
        manifest = str(data / "manifest.jsonl")

        straight = tmp_path / "straight"
        assert main(["train", "--config", str(p4), "--manifest", manifest, "--out", str(straight)]) == 0

        half = tmp_path / "half"
        assert main(["train", "--config", str(p2), "--manifest", manifest, "--out", str(half)]) == 0
        resumed = tmp_path / "resumed"
        assert main(
            ["train", "--config", str(p4), "--manifest", manifest, "--out", str(resumed),
             "--resume", str(half / "checkpoint.rkck")]
        ) == 0

        a = load_checkpoint(straight / "checkpoint.rkck")
        b = load_checkpoint(resumed / "checkpoint.rkck")
        assert a.tensors["step"].tolist() == b.tensors["step"].tolist()
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name]), name
        assert (resumed / "metrics.jsonl").read_bytes() == (straight / "metrics.jsonl").read_bytes()

    def test_resume_from_periodic_partial_checkpoint(self, tmp_path, monkeypatch):
        import retina_kit.training as training

        cfg = dict(TINY)
        cfg["training"] = {**TINY["training"], "epochs": 4, "eval_every": 1}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        manifest = str(synth_dir(str(cfg_path), tmp_path) / "manifest.jsonl")
        argv = ["train", "--config", str(cfg_path), "--manifest", manifest, "--out"]
        straight = tmp_path / "straight"
        assert main(argv + [str(straight)]) == 0

        # cut the run at the first step of epoch 2 (2 steps per epoch)
        real_step = training.adam_step

        def failing_step(params, grads, state, lr):
            if state.step == 4:
                raise KeyboardInterrupt
            real_step(params, grads, state, lr=lr)

        monkeypatch.setattr(training, "adam_step", failing_step)
        cut = tmp_path / "cut"
        with pytest.raises(KeyboardInterrupt):
            main(argv + [str(cut)])
        monkeypatch.undo()
        assert sorted(p.name for p in cut.iterdir()) == [
            "checkpoint.rkck.partial", "metrics.jsonl.partial"]

        assert main(argv + [str(cut), "--resume", str(cut / "checkpoint.rkck.partial")]) == 0
        assert sorted(p.name for p in cut.iterdir()) == ["checkpoint.rkck", "metrics.jsonl"]
        for name in ("checkpoint.rkck", "metrics.jsonl"):
            assert (cut / name).read_bytes() == (straight / name).read_bytes(), name

    def test_checkpoint_identical_across_blas_threads(self, tiny_cfg_path, tmp_path):
        manifest = str(synth_dir(tiny_cfg_path, tmp_path) / "manifest.jsonl")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(retina_kit.__file__).parents[1])
        ckpts = []
        for name, threads in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "retina_kit.cli", "train", "--config", tiny_cfg_path,
                 "--manifest", manifest, "--out", str(out)],
                env={**env, **threads}, check=True, capture_output=True,
            )
            ckpts.append((out / "checkpoint.rkck").read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_last_epoch_checkpoint_saved_once(self, tiny_cfg_path, tmp_path, monkeypatch):
        import retina_kit.training as training

        saved = []
        real_save = training.save_checkpoint

        def recording_save(path, ckpt):
            saved.append(Path(path).name)
            real_save(path, ckpt)

        monkeypatch.setattr(training, "save_checkpoint", recording_save)
        manifest = str(synth_dir(tiny_cfg_path, tmp_path) / "manifest.jsonl")
        # TINY: 2 epochs, eval_every 1; the last epoch's state goes only to the final save
        every = tmp_path / "every"
        assert main(["train", "--config", tiny_cfg_path, "--manifest", manifest,
                     "--out", str(every)]) == 0
        assert saved == ["checkpoint.rkck.partial", "checkpoint.rkck"]

        cfg = dict(TINY)
        cfg["training"] = {**TINY["training"], "eval_every": 10}
        cfg_path = tmp_path / "never.json"
        cfg_path.write_text(json.dumps(cfg))
        saved.clear()
        never = tmp_path / "never"
        assert main(["train", "--config", str(cfg_path), "--manifest", manifest,
                     "--out", str(never)]) == 0
        assert saved == ["checkpoint.rkck"]
        a = load_checkpoint(every / "checkpoint.rkck")
        b = load_checkpoint(never / "checkpoint.rkck")
        assert list(a.tensors) == list(b.tensors)
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes(), name
        assert sorted(p.name for p in every.iterdir()) == ["checkpoint.rkck", "metrics.jsonl"]

    def test_missing_image_is_validation_error(self, tiny_cfg_path, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"image": "missing.ppm", "boxes": [[0, 0, 4, 4]], "labels": [0]}\n')
        code = main(["train", "--config", tiny_cfg_path, "--manifest", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "missing.ppm" in capsys.readouterr().err

    def test_truncated_val_image_exits_one_before_training(self, tiny_cfg_path, tmp_path,
                                                          capsys):
        data = synth_dir(tiny_cfg_path, tmp_path)
        whole = (data / "img_00011.ppm").read_bytes()
        (tmp_path / "cut.ppm").write_bytes(whole[:-1])
        val = tmp_path / "val.jsonl"
        val.write_text(json.dumps({"image": "cut.ppm", "boxes": [], "labels": []}) + "\n")
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(["train", "--config", tiny_cfg_path, "--manifest", str(data / "manifest.jsonl"),
                     "--val-manifest", str(val), "--out", str(out)])
        assert code == 1
        assert "pixel payload" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_val_manifest_exits_one_before_training(self, tiny_cfg_path, tmp_path, capsys):
        data = synth_dir(tiny_cfg_path, tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(["train", "--config", tiny_cfg_path, "--manifest", str(data / "manifest.jsonl"),
                     "--val-manifest", str(empty), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: validation manifest {empty} has no samples\n"
        assert not out.exists()

    def test_class_label_rejected_before_training(self, tiny_cfg_path, tmp_path, capsys):
        data = synth_dir(tiny_cfg_path, tmp_path)
        rows = [json.loads(l) for l in (data / "manifest.jsonl").read_text().splitlines()]
        rows[3]["labels"] = [1] * len(rows[3]["boxes"])
        bad = data / "classes.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "run"
        code = main(["train", "--config", tiny_cfg_path, "--manifest", str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "classes.jsonl: line 4" in err and "single-class" in err
        assert not (out / "checkpoint.rkck").exists()


class TestResumeChecks:
    """A resumed run continues a finished epoch of the run it names."""

    @staticmethod
    def resume(finished, ckpt, out, manifest=None, cfg_path=None):
        run_cfg, data, _ = finished
        return main(["train", "--config", str(cfg_path or run_cfg), "--manifest",
                     str(manifest or data / "manifest.jsonl"), "--out", str(out),
                     "--resume", str(ckpt)])

    def test_no_epochs_left_carries_rows(self, finished, tmp_path):
        _, _, run = finished
        out = tmp_path / "out"
        assert self.resume(finished, run / "checkpoint.rkck", out) == 0
        rows = (out / "metrics.jsonl").read_bytes()
        assert rows == (run / "metrics.jsonl").read_bytes() and rows.count(b"\n") == 2
        a = load_checkpoint(run / "checkpoint.rkck")
        b = load_checkpoint(out / "checkpoint.rkck")
        assert list(a.tensors) == list(b.tensors)
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes(), name

    def test_step_off_epoch_boundary_exits_one(self, finished, tmp_path, capsys):
        _, data, run = finished
        lines = (data / "manifest.jsonl").read_text().splitlines(keepends=True)
        twenty = data / "twenty.jsonl"
        twenty.write_text("".join(lines + lines[:8]))  # 3 steps per epoch
        capsys.readouterr()
        out = tmp_path / "out"
        assert self.resume(finished, run / "checkpoint.rkck", out, manifest=twenty) == 1
        err = capsys.readouterr().err
        assert "step 4" in err and "3 steps per epoch" in err
        assert not out.exists()

    def test_past_the_epoch_count_exits_one(self, finished, tmp_path, capsys):
        _, _, run = finished
        shorter = tmp_path / "one-epoch.json"
        shorter.write_text(json.dumps({**TINY, "training": {**TINY["training"], "epochs": 1}}))
        capsys.readouterr()
        out = tmp_path / "out"
        assert self.resume(finished, run / "checkpoint.rkck", out, cfg_path=shorter) == 1
        err = capsys.readouterr().err
        assert "trained 2 epochs" in err and "training.epochs 1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "metrics",
        [
            pytest.param(None, id="missing"),
            pytest.param(b'{"epoch": 1, "train_loss": 1.0}\n', id="misnumbered"),
            pytest.param(b'{"epoch": 0, "note": "\xff"}\n', id="not-utf8"),
        ],
    )
    def test_unusable_metrics_exits_one(self, finished, tmp_path, capsys, metrics):
        _, _, run = finished
        moved = tmp_path / "moved"
        moved.mkdir()
        (moved / "checkpoint.rkck").write_bytes((run / "checkpoint.rkck").read_bytes())
        if metrics is not None:
            (moved / "metrics.jsonl").write_bytes(metrics)
        capsys.readouterr()
        out = tmp_path / "out"
        assert self.resume(finished, moved / "checkpoint.rkck", out) == 1
        assert str(moved / "metrics.jsonl") in capsys.readouterr().err
        assert not out.exists()


class TestCheckpointTable:
    """A checkpoint holds exactly the tensors a run of its config writes, or no run reads it."""

    @pytest.mark.parametrize(
        "command, tensor, value, code",
        [
            pytest.param("train", "stem0.w.m", np.zeros((2, 8, 3, 3, 3)), 1, id="m-shape"),
            pytest.param("train", "stem0.b.v", np.zeros(3), 1, id="v-shape"),  # stem0.b is (4,)
            pytest.param("train", "step", [2.5], 1, id="fractional-step"),
            pytest.param("train", "step", [-2.0], 1, id="negative-step"),
            pytest.param("train", "step", [4.0, 4.0], 1, id="two-entry-step"),
            pytest.param("train", "foo.m", [0.0], 1, id="orphan-moment"),
            pytest.param("train", "stem0.b.v", [-1.0, 0.0, 0.0, 0.0], 2, id="negative-second-moment"),
            pytest.param("eval", "stem0.w.m", None, 1, id="parameters-only"),
        ],
    )
    def test_malformed_table_exits_naming_the_tensor(self, finished, tmp_path, capsys,
                                                    command, tensor, value, code):
        cfg_path, data, run = finished
        ckpt = load_checkpoint(run / "checkpoint.rkck")
        if value is None:  # drop the Adam state
            ckpt.tensors = {n: t for n, t in ckpt.tensors.items()
                            if not n.endswith((".m", ".v", "step"))}
        else:
            ckpt.tensors[tensor] = np.asarray(value, np.float32)
        bad = tmp_path / "bad.rkck"
        save_checkpoint(bad, ckpt)
        manifest = str(data / "manifest.jsonl")
        argv = {
            # the checkpoint holds every epoch, so a good one resumes to no training step
            "train": ["train", "--manifest", manifest, "--resume", str(bad)],
            "eval": ["eval", "--manifest", manifest, "--checkpoint", str(bad)],
        }[command]
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg_path, "--out", str(out)]) == code
        err = capsys.readouterr().err
        prefix = "error: " if code == 1 else "numeric error: "
        assert err.startswith(prefix) and f"'{tensor}'" in err, err
        assert not out.exists()


class TestEvalCommand:
    def test_replay_gt_scores_perfectly(self, tiny_cfg_path, tmp_path):
        data = synth_dir(tiny_cfg_path, tmp_path)
        out = tmp_path / "eval"
        code = main(
            ["eval", "--config", tiny_cfg_path, "--manifest", str(data / "manifest.jsonl"),
             "--out", str(out), "--replay-gt"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["map"] == 1.0
        assert "config" in report and report["config"]["seed"] == 11

    def test_empty_manifest_warns(self, tiny_cfg_path, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "eval"
        code = main(
            ["eval", "--config", tiny_cfg_path, "--manifest", str(empty), "--out", str(out),
             "--replay-gt"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["map"] == 0.0
        assert "warning" in report and report["undefined"]

    def test_eval_requires_checkpoint(self, tiny_cfg_path, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["eval", "--config", tiny_cfg_path, "--manifest", str(empty),
                     "--out", str(tmp_path / "x")]) == 1

    def test_report_matches_replayed_detections(self, tiny_cfg_path, tmp_path):
        from retina_kit.config import load_run_config
        from retina_kit.evaluation import coco_map
        from retina_kit.training import load_samples, prepare_eval_input

        data = synth_dir(tiny_cfg_path, tmp_path)
        manifest = str(data / "manifest.jsonl")
        run = tmp_path / "run"
        main(["train", "--config", tiny_cfg_path, "--manifest", manifest, "--out", str(run)])
        out = tmp_path / "eval"
        assert main(
            ["eval", "--config", tiny_cfg_path, "--checkpoint", str(run / "checkpoint.rkck"),
             "--manifest", manifest, "--out", str(out)]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        dets = read_detections(out / "detections.jsonl")
        cfg = load_run_config(tiny_cfg_path)
        samples = load_samples(manifest)
        gts = {s.image_id: prepare_eval_input(s, cfg)[1] for s in samples}
        replay = coco_map(dets, gts, cfg.eval)
        assert replay["map"] == pytest.approx(report["map"], abs=1e-12)
        assert replay["ap_per_threshold"] == pytest.approx(report["ap_per_threshold"], abs=1e-12)

    def test_checkpoint_shape_mismatch_names_tensor(self, tiny_cfg_path, tmp_path, capsys):
        data = synth_dir(tiny_cfg_path, tmp_path)
        manifest = str(data / "manifest.jsonl")
        run = tmp_path / "run"
        main(["train", "--config", tiny_cfg_path, "--manifest", manifest, "--out", str(run)])
        other = dict(TINY)
        other["network"] = {**TINY["network"], "fpn_channels": 6}
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        code = main(
            ["eval", "--config", str(other_path), "--checkpoint", str(run / "checkpoint.rkck"),
             "--manifest", manifest, "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "lateral0.w" in capsys.readouterr().err


class TestEvalStreaming:
    """`eval` reads, infers and decodes a fixed chunk of images at a time."""

    @pytest.fixture(scope="class")
    def split(self, tmp_path_factory):
        """A 70-image split (two whole chunks and a ragged one) and a checkpoint with detections."""
        from retina_kit.checkpoint import build_checkpoint, canonical_json
        from retina_kit.network import init_params
        from retina_kit.optim import AdamState
        from retina_kit.training import EVAL_CHUNK

        assert 2 * EVAL_CHUNK < 70 < 3 * EVAL_CHUNK
        tmp = tmp_path_factory.mktemp("stream")
        cfg_path = tmp / "config.json"
        cfg_path.write_text(json.dumps({**TINY, "synth": {**TINY["synth"], "num_images": 70}}))
        data = synth_dir(str(cfg_path), tmp)
        cfg = run_config_from_dict(json.loads(cfg_path.read_text()))
        params = init_params(cfg.network, cfg.anchors, np.random.default_rng(4))
        # lift some scores over the prior and score_threshold
        params["cls_out.w"] = params["cls_out.w"] * 10.0
        params["cls_out.b"] = params["cls_out.b"] + 1.5
        ckpt = tmp / "lifted.rkck"
        save_checkpoint(ckpt, build_checkpoint(
            params, AdamState.zeros_like(params), canonical_json(run_config_to_dict(cfg))
        ))
        return cfg_path, data, ckpt

    def run_eval(self, split, manifest, out):
        cfg_path, _, ckpt = split
        return main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--manifest", str(manifest), "--out", str(out)])

    @staticmethod
    def manifest_of(split, path, n, last_image=None):
        """The split's first n rows, cycling, with absolute paths; optionally a new last image."""
        _, data, _ = split
        rows = [json.loads(l) for l in (data / "manifest.jsonl").read_text().splitlines()]
        rows = [{**r, "image": str(data / r["image"])} for r in (rows + rows)[:n]]
        if last_image is not None:
            rows[-1]["image"] = str(last_image)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    @staticmethod
    def count_forwards(monkeypatch):
        """A list that gains one entry per network forward the training module runs."""
        import retina_kit.training as training

        calls, real = [], training.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "forward", counted)
        return calls

    @staticmethod
    def assert_no_outputs(out):
        left = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert not [n for n in left if n in ("report.json", "detections.jsonl")
                    or n.endswith(".partial")], left

    def test_ragged_chunks_equal_per_image_inference(self, split, tmp_path):
        from retina_kit.anchors import generate_anchors
        from retina_kit.checkpoint import canonical_json
        from retina_kit.evaluation import coco_map
        from retina_kit.postprocess import Detections, write_detections
        from retina_kit.training import (
            EVAL_CHUNK,
            infer_detections,
            load_samples,
            prepare_eval_input,
        )

        cfg_path, data, ckpt = split
        out = tmp_path / "eval"
        assert self.run_eval(split, data / "manifest.jsonl", out) == 0

        cfg = run_config_from_dict(json.loads(cfg_path.read_text()))
        params, _ = load_checkpoint(ckpt).unpack(param_shapes(cfg.network, cfg.anchors))
        grid = generate_anchors(cfg.anchors, *cfg.training.input_size)
        parts, gts = [], {}
        for sample in load_samples(data / "manifest.jsonl"):
            tensor, gts[sample.image_id] = prepare_eval_input(sample, cfg)
            parts.append(infer_detections(params, cfg, grid, [tensor], [sample.image_id]))
        dets = Detections.concat(parts)
        assert set((dets.image_ids // EVAL_CHUNK).tolist()) == {0, 1, 2}  # in every chunk
        report = coco_map(dets, gts, cfg.eval)
        report["config"] = run_config_to_dict(cfg)
        write_detections(dets, tmp_path / "want.jsonl")
        want = (tmp_path / "want.jsonl").read_bytes()
        assert (out / "detections.jsonl").read_bytes() == want
        assert (out / "report.json").read_text() == canonical_json(report) + "\n"

    def test_eval_memory_does_not_grow_with_the_split(self, split, tmp_path):
        """Reading the manifest and evaluating it peaks alike on 32 and on 96 images."""
        import tracemalloc

        from retina_kit.training import evaluate_params, load_samples

        cfg_path, _, ckpt = split
        cfg = run_config_from_dict(json.loads(cfg_path.read_text()))
        params, _ = load_checkpoint(ckpt).unpack(param_shapes(cfg.network, cfg.anchors))
        manifests = [self.manifest_of(split, tmp_path / f"{n}.jsonl", n) for n in (32, 96)]
        evaluate_params(params, cfg, load_samples(manifests[0]))  # warm caches first
        peaks = []
        tracemalloc.start()
        try:
            for manifest in manifests:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                evaluate_params(params, cfg, load_samples(manifest))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**20, peaks

    def test_missing_image_exits_one_before_inference(self, split, tmp_path, capsys,
                                                      monkeypatch):
        calls = self.count_forwards(monkeypatch)
        manifest = self.manifest_of(split, tmp_path / "40.jsonl", 40, tmp_path / "gone.ppm")
        capsys.readouterr()
        out = tmp_path / "out"
        assert self.run_eval(split, manifest, out) == 1
        assert "gone.ppm" in capsys.readouterr().err
        assert calls == []
        self.assert_no_outputs(out)

    def test_truncated_image_past_first_chunk_exits_one(self, split, tmp_path, capsys,
                                                        monkeypatch):
        _, data, _ = split
        whole = (data / "img_00039.ppm").read_bytes()
        cut = tmp_path / "cut.ppm"
        cut.write_bytes(whole[: len(whole) // 2])
        calls = self.count_forwards(monkeypatch)
        manifest = self.manifest_of(split, tmp_path / "40.jsonl", 40, cut)
        capsys.readouterr()
        out = tmp_path / "out"
        assert self.run_eval(split, manifest, out) == 1
        assert "pixel payload" in capsys.readouterr().err
        assert calls == [1]  # the first chunk was inferred before the bad image was read
        self.assert_no_outputs(out)


class TestDetectCommand:
    @pytest.fixture
    def trained(self, tiny_cfg_path, tmp_path):
        data = synth_dir(tiny_cfg_path, tmp_path)
        run = tmp_path / "run"
        main(["train", "--config", tiny_cfg_path, "--manifest", str(data / "manifest.jsonl"),
              "--out", str(run)])
        return data, run / "checkpoint.rkck"

    def test_output_is_structurally_valid(self, tiny_cfg_path, tmp_path, trained):
        data, ckpt = trained
        out = tmp_path / "det"
        code = main(
            ["detect", "--config", tiny_cfg_path, "--checkpoint", str(ckpt),
             "--image", str(data / "img_00000.ppm"), "--out", str(out), "--annotate"]
        )
        assert code == 0
        dets = read_detections(out / "detections.jsonl")
        assert len(dets) <= 100
        for x1, y1, x2, y2 in dets.boxes:
            assert 0.0 <= x1 <= x2 <= 64.0
            assert 0.0 <= y1 <= y2 <= 64.0
        assert (out / "annotated.ppm").exists()

    def test_deterministic_outputs(self, tiny_cfg_path, tmp_path, trained):
        data, ckpt = trained
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            main(["detect", "--config", tiny_cfg_path, "--checkpoint", str(ckpt),
                  "--image", str(data / "img_00001.ppm"), "--out", str(out), "--annotate"])
            outs.append(out)
        a, b = outs
        assert (a / "detections.jsonl").read_bytes() == (b / "detections.jsonl").read_bytes()
        assert (a / "annotated.ppm").read_bytes() == (b / "annotated.ppm").read_bytes()

    def test_bad_image_passes_parse_error(self, tiny_cfg_path, tmp_path, trained, capsys):
        _, ckpt = trained
        bad = tmp_path / "bad.ppm"
        bad.write_text("P3\n1 1\n255\n1 2 3\n")
        code = main(["detect", "--config", tiny_cfg_path, "--checkpoint", str(ckpt),
                     "--image", str(bad), "--out", str(tmp_path / "x")])
        assert code == 1


class TestGradcheckCommand:
    def test_passes_and_writes_report(self, tiny_cfg_path, tmp_path):
        out = tmp_path / "gc"
        code = main(["gradcheck", "--config", tiny_cfg_path, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["passed"]
        assert len(report["suites"]) == 6


class TestExitCodes:
    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 3

    def test_invalid_config_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"training": {"lr": -1}}')
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_fractional_detection_cap_exits_one(self, tiny_cfg_path, tmp_path, capsys):
        data = synth_dir(tiny_cfg_path, tmp_path)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "eval": {"max_detections_per_image": 2.5}}))
        capsys.readouterr()
        out = tmp_path / "eval"
        code = main(["eval", "--config", str(path), "--manifest", str(data / "manifest.jsonl"),
                     "--out", str(out), "--replay-gt"])
        assert code == 1
        assert "eval.max_detections_per_image must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("synth", "num_images", 2.0), ("network", "fpn_channels", 32.5),
         ("network", "head_depth", 1.5)],
    )
    def test_fractional_integer_field_exits_one(self, tmp_path, capsys, section, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, section: {**TINY[section], key: value}}))
        out = tmp_path / "data"
        assert main(["synth", "--config", str(path), "--out", str(out)]) == 1
        assert f"error: {section}.{key} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "synth",
        [{"pedestrians_per_image": [1]}, {"template_aspect": [2.0, 3.0, 4.0]},
         {"template_aspect": ["wide", 3.0]}],
    )
    def test_malformed_range_exits_one(self, tmp_path, capsys, synth):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"synth": synth}))
        out = tmp_path / "data"
        assert main(["synth", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: synth.")
        assert not out.exists()

    def test_adam_step_past_float32_range_exits_one(self, finished, tmp_path, capsys, monkeypatch):
        # the checkpoint stores the Adam step as float32, which holds every whole number to 2**24
        _, data, _ = finished
        one = data / "one-image.jsonl"
        one.write_text((data / "manifest.jsonl").read_text().splitlines(keepends=True)[0])
        path = tmp_path / "long.json"
        path.write_text(json.dumps({**TINY, "training": {**TINY["training"], "epochs": 2**24 + 1}}))

        def init_params(*args):
            raise AssertionError("training started")

        monkeypatch.setattr("retina_kit.training.init_params", init_params)
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--manifest", str(one), "--out", str(out)]) == 1
        assert "error: training.epochs 16777217 at 1 steps per epoch" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [([], "required: command"),
         (["synth", "--out", "o"], "required: --config"),
         (["synth", "--config", "c.json", "--out", "o", "--bogus"], "unrecognized arguments: --bogus"),
         (["frob"], "invalid choice: 'frob'"),
         (["eval", "--config", "c.json", "--manifest", "m.jsonl"],
          "one of the arguments --checkpoint --replay-gt is required"),
         (["eval", "--config", "c.json", "--manifest", "m.jsonl", "--checkpoint", "k.rkck",
           "--replay-gt"], "not allowed with argument --checkpoint")],
        ids=["no-command", "missing-flag", "unknown-flag", "unknown-command", "eval-no-source",
             "eval-both-sources"],
    )
    def test_usage_error_exits_one(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not any(tmp_path.iterdir())

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["eval", "--help"])
        assert e.value.code == 0 and "--replay-gt" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "cfg, message",
        [({"training": None}, "training must be an object"),
         ({"synth": [1, 2]}, "synth must be an object"),
         ({"anchors": "abc"}, "anchors must be an object"),
         ({"anchors": {"levels": 5}}, "anchors.levels must be a list"),
         ({"anchors": {"levels": [{"stride": 8, "base_size": "abc"}]}},
          "anchors.levels[0].base_size must be a number"),
         ({"anchors": {"levels": [{"stride": 8, "base_size": None}]}},
          "anchors.levels[0].base_size must be a number"),
         ({"anchors": {"levels": [{"stride": 8}]}}, "anchors.levels[0].base_size is missing"),
         ({"anchors": {"levels": [{"stride": 8, "base_size": 16.0, "size": 1}]}},
          "anchors.levels[0] has unknown keys: ['size']"),
         ({"anchors": {"levels": [8]}}, "anchors.levels[0] must be an object")],
        ids=["null", "list", "string", "levels-int", "base-size-str", "base-size-null",
             "level-missing-key", "level-unknown-key", "level-not-object"],
    )
    def test_malformed_section_exits_one(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "data"
        assert main(["synth", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("augment", "max_rot_deg", float("nan")), ("augment", "max_rot_deg", 1e308),
         ("augment", "scale_max", 1e308), ("training", "lr", float("inf")),
         ("loss", "gamma", float("nan"))],
        ids=["rot-nan", "rot-huge", "scale-huge", "lr-inf", "gamma-nan"],
    )
    def test_non_finite_or_overflowing_float_exits_one(self, tiny_cfg_path, tmp_path, capsys,
                                                        section, key, value):
        # json.dumps writes NaN / Infinity literals, which json.loads accepts
        data = synth_dir(tiny_cfg_path, tmp_path)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, section: {**TINY.get(section, {}), key: value}}))
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(["train", "--config", str(path), "--manifest", str(data / "manifest.jsonl"),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()

    def test_integer_past_the_int_string_limit_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 1%s}' % ("0" * 4999))  # 5,000 digits; json.loads stops at 4,300
        out = tmp_path / "data"
        assert main(["synth", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON")
        assert not out.exists()

    def test_manifest_box_of_strings_and_bools_exits_one(self, tiny_cfg_path, tmp_path, capsys):
        data = synth_dir(tiny_cfg_path, tmp_path)
        manifest = data / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[1] = '{"image": "img_00001.ppm", "boxes": [["1", true, "10", 20]], "labels": [0]}'
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "eval"
        code = main(["eval", "--config", tiny_cfg_path, "--manifest", str(manifest),
                     "--out", str(out), "--replay-gt"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}: line 2: ")
        assert not out.exists()

    def test_non_utf8_manifest_exits_one(self, tiny_cfg_path, tmp_path, capsys):
        data = synth_dir(tiny_cfg_path, tmp_path)
        manifest = data / "manifest.jsonl"
        lines = manifest.read_bytes().splitlines(keepends=True)
        manifest.write_bytes(b"".join(lines[:2]) + b'{"image": "\xff.ppm"}\n' + b"".join(lines[2:]))
        capsys.readouterr()
        out = tmp_path / "eval"
        code = main(["eval", "--config", tiny_cfg_path, "--manifest", str(manifest),
                     "--out", str(out), "--replay-gt"])
        assert code == 1
        offset = len(lines[0]) + len(lines[1]) + len(b'{"image": "')
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 3: byte 0xff at offset {offset} is not UTF-8\n"
        )
        assert not out.exists()

    def test_bool_for_a_number_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "loss": {"gamma": True}}))
        out = tmp_path / "data"
        assert main(["synth", "--config", str(path), "--out", str(out)]) == 1
        assert "loss.gamma must be a number, got True" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name", ["sub/ckpt.rkck", "ABSOLUTE", "metrics.jsonl", "ckpt.rkck.partial", "..", ""]
    )
    def test_checkpoint_path_must_be_bare_name(self, tiny_cfg_path, tmp_path, capsys, name):
        data = synth_dir(tiny_cfg_path, tmp_path)
        if name == "ABSOLUTE":
            name = str(tmp_path / "elsewhere.rkck")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "training": {**TINY["training"], "checkpoint_path": name}}))
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(["train", "--config", str(path), "--manifest", str(data / "manifest.jsonl"),
                     "--out", str(out)])
        assert code == 1
        assert "error: training.checkpoint_path must be a bare file name" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "elsewhere.rkck").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_truncated_image_error_names_the_file(self, tiny_cfg_path, tmp_path, capsys,
                                                   command):
        data = synth_dir(tiny_cfg_path, tmp_path)
        cut = data / "img_00003.ppm"
        cut.write_bytes(cut.read_bytes()[:-7])
        argv = [command, "--config", tiny_cfg_path, "--manifest", str(data / "manifest.jsonl"),
                "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv + (["--replay-gt"] if command == "eval" else [])) == 1
        err = capsys.readouterr().err
        assert f"error: {cut}: pixel payload needs" in err

    @pytest.mark.parametrize(
        "command, tensor",
        [
            pytest.param("eval", "stem0.w", id="eval"),
            pytest.param("detect", "cls_out.w", id="detect"),
            pytest.param("train", "stem0.w.m", id="train-resume"),
        ],
    )
    def test_non_finite_checkpoint_exits_two(self, tiny_cfg_path, tmp_path, capsys,
                                             command, tensor):
        data = synth_dir(tiny_cfg_path, tmp_path)
        manifest = str(data / "manifest.jsonl")
        run = tmp_path / "run"
        assert main(["train", "--config", tiny_cfg_path, "--manifest", manifest,
                     "--out", str(run)]) == 0
        ckpt = load_checkpoint(run / "checkpoint.rkck")
        ckpt.tensors[tensor].reshape(-1)[0] = np.nan
        bad = tmp_path / "nan.rkck"
        save_checkpoint(bad, ckpt)
        argv = {
            "eval": ["eval", "--manifest", manifest, "--checkpoint", str(bad)],
            "detect": ["detect", "--checkpoint", str(bad), "--image",
                       str(data / "img_00000.ppm"), "--annotate"],
            # the checkpoint already holds every epoch, so no training step would run
            "train": ["train", "--manifest", manifest, "--resume", str(bad)],
        }[command]
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(argv + ["--config", tiny_cfg_path, "--out", str(out)]) == 2
        assert f"checkpoint tensor '{tensor}'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_checkpoint_config_exits_one(self, finished, tmp_path, capsys):
        cfg_path, data, run = finished
        raw = (run / "checkpoint.rkck").read_bytes()
        ckpt = tmp_path / "c.rkck"
        ckpt.write_bytes(raw[:-1] + b"\xff")  # the config echo's closing brace
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["eval", "--config", cfg_path, "--checkpoint", str(ckpt),
                     "--manifest", str(data / "manifest.jsonl"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: non-UTF-8 checkpoint config blob (byte {len(raw) - 1})" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, target, left",
        [
            pytest.param("synth", "manifest.jsonl", [f"img_{i:05d}.ppm" for i in range(12)],
                         id="synth"),
            pytest.param("eval", "detections.jsonl", [], id="eval"),
            pytest.param("train", "checkpoint.rkck", ["metrics.jsonl.partial"], id="train"),
            pytest.param("detect", "annotated.ppm", ["detections.jsonl"], id="detect"),
            pytest.param("gradcheck", "gradcheck.json", [], id="gradcheck"),
        ],
    )
    def test_output_write_failing_partway_leaves_no_file(self, tiny_cfg_path, tmp_path,
                                                         monkeypatch, command, target, left):
        import retina_kit.outputs as outputs

        data = synth_dir(tiny_cfg_path, tmp_path)
        manifest = str(data / "manifest.jsonl")
        if command == "synth":
            argv = ["synth"]
        elif command == "eval":
            argv = ["eval", "--manifest", manifest, "--replay-gt"]
        elif command == "train":
            argv = ["train", "--manifest", manifest]
        elif command == "detect":
            run = tmp_path / "run"
            assert main(["train", "--config", tiny_cfg_path, "--manifest", manifest,
                         "--out", str(run)]) == 0
            argv = ["detect", "--checkpoint", str(run / "checkpoint.rkck"),
                    "--image", str(data / "img_00000.ppm"), "--annotate"]
        else:
            argv = ["gradcheck"]
        written = []

        class FullDisk:
            """Takes the first 16 bytes, then fails like a device out of space."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.f.__exit__(*exc)

            def write(self, data):
                room = 16 - sum(map(len, written))
                if len(data) > room:
                    written.append(data[:room])
                    self.f.write(data[:room])
                    raise OSError(28, "No space left on device")
                written.append(data)
                return self.f.write(data)

        real_open = open

        def open_target_on_full_disk(path, *args, **kwargs):
            f = real_open(path, *args, **kwargs)
            return FullDisk(f) if Path(path).name == f"{target}.partial" else f

        monkeypatch.setattr(outputs, "open", open_target_on_full_disk, raising=False)
        out = tmp_path / "out"
        code = main(argv + ["--config", tiny_cfg_path, "--out", str(out)])
        assert code == 3
        assert sum(map(len, written)) == 16  # the failure came partway through the file
        # neither the target nor its .partial is left; earlier, complete outputs stay
        assert sorted(p.name for p in out.iterdir()) == left


class TestConfigMismatch:
    """A checkpoint is only read under the config it was trained with."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trained")
        cfg_path = tmp / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        data = synth_dir(str(cfg_path), tmp)
        run = tmp / "run"
        assert main(["train", "--config", str(cfg_path), "--manifest",
                     str(data / "manifest.jsonl"), "--out", str(run)]) == 0
        return data, run / "checkpoint.rkck"

    @staticmethod
    def run_changed(trained, tmp_path, command, changes):
        data, ckpt = trained
        cfg = {**TINY, **{section: {**TINY.get(section, {}), **kv} for section, kv in changes.items()}}
        cfg_path = tmp_path / "changed.json"
        cfg_path.write_text(json.dumps(cfg))
        manifest = str(data / "manifest.jsonl")
        argv = {
            "eval": ["eval", "--manifest", manifest, "--checkpoint", str(ckpt)],
            "detect": ["detect", "--checkpoint", str(ckpt), "--image", str(data / "img_00000.ppm")],
            "train": ["train", "--manifest", manifest, "--resume", str(ckpt)],
        }[command]
        return main(argv + ["--config", str(cfg_path), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "command, changes, field",
        [
            # still 9 anchors per cell, so every tensor shape matches
            pytest.param("eval", {"anchors": {"scales": [1.0, 1.5, 2.0]}}, "anchors.scales",
                         id="eval-scales"),
            pytest.param("detect", {"training": {"input_size": [96, 96]}},
                         "training.input_size", id="detect-input-size"),
            pytest.param("train", {"training": {"batch_size": 4}}, "training.batch_size",
                         id="resume-batch-size"),
            pytest.param("train", {"anchors": {"pos_iou": 0.6}}, "anchors.pos_iou",
                         id="resume-pos-iou"),
        ],
    )
    def test_mismatch_exits_one_naming_field(self, trained, tmp_path, capsys, command,
                                             changes, field):
        capsys.readouterr()
        assert self.run_changed(trained, tmp_path, command, changes) == 1
        err = capsys.readouterr().err
        assert "different config" in err and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, changes",
        [
            pytest.param("eval", {"eval": {"score_threshold": 0.2}}, id="eval-score-threshold"),
            pytest.param("train", {"training": {"eval_every": 2}, "synth": {"num_images": 5}},
                         id="resume-eval-every-synth"),
        ],
    )
    def test_unchecked_field_change_runs(self, trained, tmp_path, command, changes):
        assert self.run_changed(trained, tmp_path, command, changes) == 0

    def test_unreadable_echo_exits_one(self, trained, tmp_path, capsys):
        data, ckpt_path = trained
        ckpt = load_checkpoint(ckpt_path)
        ckpt.config_json = "[]"
        bad = tmp_path / "bad.rkck"
        save_checkpoint(bad, ckpt)
        capsys.readouterr()
        assert self.run_changed((data, bad), tmp_path, "eval", {}) == 1
        assert "config echo" in capsys.readouterr().err


class TestEvalDeterminism:
    def test_eval_report_identical_across_runs(self, tiny_cfg_path, tmp_path):
        data = synth_dir(tiny_cfg_path, tmp_path)
        manifest = str(data / "manifest.jsonl")
        run = tmp_path / "run"
        main(["train", "--config", tiny_cfg_path, "--manifest", manifest, "--out", str(run)])
        reports = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main(
                ["eval", "--config", tiny_cfg_path, "--checkpoint", str(run / "checkpoint.rkck"),
                 "--manifest", manifest, "--out", str(out)]
            ) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
