"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy criteria (end-to-end training, the focal-vs-cross-entropy
comparison, determinism re-runs) share module-scoped fixtures; the whole
module runs in roughly ten minutes on a laptop-class machine.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    iou,
    logsumexp_bce,
    naive_coco_map,
    random_box,
    random_round_trip_pair,
)
from retina_kit.boxes import box_areas, boxes_to_array, decode_boxes, encode_boxes, iou_matrix
from retina_kit.checkpoint import load_checkpoint
from retina_kit.cli import main
from retina_kit.config import run_config_from_dict, run_config_to_dict
from retina_kit.data import AugmentConfig, augment, read_manifest, write_manifest
from retina_kit.evaluation import coco_map
from retina_kit.experiments import desk_config, focal_vs_ce, make_split, write_report
from retina_kit.gradcheck import run_gradcheck
from retina_kit.losses import LossConfig, sigmoid_focal_loss
from retina_kit.optim import AdamState
from retina_kit.postprocess import (
    Detections,
    EvalConfig,
    nms_indices,
    read_detections,
    write_detections,
)
from retina_kit.ppm import load_ppm, save_ppm

EPOCHS = 30
TRAIN_SECONDS_CAP = 20 * 60
GRADCHECK_SECONDS_CAP = 2 * 60


def report_line(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {name}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def split(workdir):
    cfg = desk_config(seed=0, epochs=EPOCHS)
    return make_split(cfg, workdir / "data")


@pytest.fixture(scope="module")
def desk_cfg_path(workdir):
    cfg = desk_config(seed=0, epochs=EPOCHS)
    path = workdir / "desk_config.json"
    path.write_text(json.dumps(run_config_to_dict(cfg)))
    return str(path)


@pytest.fixture(scope="module")
def trained(split, desk_cfg_path, workdir):
    """Criterion 6 training run, shared by criteria 6 and 8."""
    train_m, val_m = split
    out = workdir / "run_a"
    t0 = time.time()
    code = main(
        ["train", "--config", desk_cfg_path, "--manifest", train_m,
         "--val-manifest", val_m, "--out", str(out)]
    )
    seconds = time.time() - t0
    assert code == 0
    return out, seconds


def test_criterion_1_paper_scale_context_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    ok = "0.4061" in readme
    for needle in ("ResNet-152", "WIDER", "ImageNet"):
        ok = ok and needle in readme
    assert report_line(
        1, "challenge-scale result documented as out-of-scope context", ok
    )


def test_criterion_2_gradient_suite():
    cfg = desk_config(seed=0)
    t0 = time.time()
    report = run_gradcheck(cfg)
    seconds = time.time() - t0
    by_name = {s["name"]: s for s in report["suites"]}
    ok = (
        report["passed"]
        and by_name["focal_loss"]["threshold"] == 1e-6
        and by_name["smooth_l1"]["threshold"] == 1e-6
        and by_name["conv2d"]["threshold"] == 1e-4
        and by_name["end_to_end"]["threshold"] == 1e-3
        and seconds < GRADCHECK_SECONDS_CAP
    )
    detail = ", ".join(f"{s['name']}={s['max_rel_error']:.2e}" for s in report["suites"])
    assert report_line(2, "gradcheck", ok, f"{detail}, {seconds:.1f}s")


def test_criterion_3_focal_reduction():
    rng = np.random.default_rng(7)
    logits = rng.uniform(-30, 30, size=10_000)
    targets = rng.integers(0, 2, size=10_000).astype(np.float64)
    worst = 0.0
    for alpha in (0.25, 0.5):
        loss, _ = sigmoid_focal_loss(logits, targets, LossConfig(gamma=0.0, alpha=alpha))
        worst = max(worst, float(np.max(np.abs(loss - logsumexp_bce(logits, targets, alpha)))))
    assert report_line(3, "gamma=0 equals weighted BCE", worst < 1e-12, f"max abs err {worst:.2e}")


def test_criterion_4_geometry_oracles():
    rng = np.random.default_rng(11)
    pairs = [random_round_trip_pair(rng) for _ in range(10_000)]
    gts = boxes_to_array([g for g, _ in pairs])
    anchors = boxes_to_array([a for _, a in pairs])
    rt = decode_boxes(anchors, encode_boxes(gts, anchors))
    worst_rt = float(np.max(np.abs(rt - gts)))
    sym_ok = True
    for _ in range(10_000):
        a = random_box(rng)
        b = random_box(rng)
        v = iou_matrix([a], [b])[0, 0]
        sym_ok = sym_ok and v == iou_matrix([b], [a])[0, 0] and v == iou(a, b)
        sym_ok = sym_ok and 0.0 <= v <= 1.0
    nms_ok = True
    for _ in range(1000):
        dets = [
            (random_box(rng, 0, 64, min_side=2), float(rng.uniform(0, 1)))
            for _ in range(int(rng.integers(1, 15)))
        ]
        keep = nms_indices(
            boxes_to_array([b for b, _ in dets]), np.array([s for _, s in dets]), 0.5, 100
        )
        kept = [dets[i][0] for i in keep]
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                nms_ok = nms_ok and iou(kept[i], kept[j]) <= 0.5
    ok = worst_rt < 1e-4 and sym_ok and nms_ok
    assert report_line(4, "geometry oracles", ok, f"round-trip max {worst_rt:.2e}")


def test_criterion_5_evaluator_oracle_equivalence():
    rng = np.random.default_rng(13)
    cfg = EvalConfig()
    exact = True
    monotone = True
    for _ in range(200):
        dets_by_image = {}
        gts_by_image = {}
        all_dets = []
        for img in range(int(rng.integers(1, 3))):
            n_d = int(rng.integers(0, 11))
            n_g = int(rng.integers(0, 6))
            dets = [
                (random_box(rng, 0, 64, min_side=2), float(rng.uniform(0.01, 1.0)))
                for _ in range(n_d)
            ]
            gts = [random_box(rng, 0, 64, min_side=2) for _ in range(n_g)]
            dets_by_image[img] = dets
            gts_by_image[img] = gts
            all_dets.append(Detections.for_image(img, [b for b, _ in dets], [s for _, s in dets]))
        report = coco_map(Detections.concat(all_dets), gts_by_image, cfg)
        naive_aps, naive_map = naive_coco_map(dets_by_image, gts_by_image, cfg.iou_thresholds)
        exact = exact and report["ap_per_threshold"] == naive_aps and report["map"] == naive_map
        aps = report["ap_per_threshold"]
        monotone = monotone and all(b <= a for a, b in zip(aps, aps[1:]))
    assert report_line(
        5, "coco_map equals brute-force evaluator (same floats), AP monotone", exact and monotone
    )


def test_criterion_6_end_to_end_training(trained, split, desk_cfg_path, workdir):
    out, seconds = trained
    _, val_m = split
    eval_out = workdir / "eval_a"
    code = main(
        ["eval", "--config", desk_cfg_path, "--checkpoint", str(out / "checkpoint.rkck"),
         "--manifest", val_m, "--out", str(eval_out)]
    )
    assert code == 0
    report = json.loads((eval_out / "report.json").read_text())
    ok = report["ap50"] >= 0.70 and report["map"] >= 0.35 and seconds <= TRAIN_SECONDS_CAP
    assert report_line(
        6,
        "desk-scale training",
        ok,
        f"ap50={report['ap50']:.3f} (>=0.70), map={report['map']:.3f} (>=0.35), "
        f"train {seconds:.0f}s (<= {TRAIN_SECONDS_CAP}s)",
    )


def test_criterion_7_focal_vs_cross_entropy(workdir):
    report = focal_vs_ce(base_seed=0, seeds=3, workdir=workdir / "focal_vs_ce", epochs=EPOCHS)
    write_report(report, workdir / "focal_vs_ce.json")
    ok = report["focal_at_least_as_good"]
    assert report_line(
        7,
        "gamma=2 at least matches gamma=0 over 3 seeds",
        ok,
        f"mean map gamma2={report['mean_map_gamma2']:.4f}, "
        f"gamma0={report['mean_map_gamma0']:.4f}",
    )


def test_criterion_8_determinism(trained, split, desk_cfg_path, workdir):
    out_a, _ = trained
    train_m, val_m = split
    out_b = workdir / "run_b"
    code = main(
        ["train", "--config", desk_cfg_path, "--manifest", train_m,
         "--val-manifest", val_m, "--out", str(out_b)]
    )
    assert code == 0
    same_metrics = (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()
    same_ckpt = (
        out_a / "checkpoint.rkck"
    ).read_bytes() == (out_b / "checkpoint.rkck").read_bytes()

    reports = []
    for name in ("eval_1", "eval_2"):
        eval_out = workdir / name
        code = main(
            ["eval", "--config", desk_cfg_path, "--checkpoint", str(out_a / "checkpoint.rkck"),
             "--manifest", val_m, "--out", str(eval_out)]
        )
        assert code == 0
        reports.append((eval_out / "report.json").read_bytes())
    same_eval = reports[0] == reports[1]
    ok = same_metrics and same_ckpt and same_eval
    assert report_line(
        8,
        "bit-identical reruns of train and eval",
        ok,
        f"metrics={same_metrics}, checkpoint={same_ckpt}, eval={same_eval}",
    )


def test_criterion_9_augmentation_contract():
    rng = np.random.default_rng(17)
    img = rng.integers(0, 256, size=(3, 64, 64)).astype(np.float32)
    boxes = np.array([[4.0, 6.0, 20.0, 40.0], [30.0, 10.0, 50.0, 56.0]])
    identity = AugmentConfig(
        translate_frac=0.0, max_rot_deg=0.0, scale_min=1.0, scale_max=1.0, hflip_prob=0.0
    )
    out_img, out_boxes = augment(img, boxes, identity, np.random.default_rng(0))
    identity_ok = np.array_equal(out_img, img) and out_boxes.tolist() == boxes.tolist()

    cfg = AugmentConfig()
    bounds_ok = True
    for _ in range(1000):
        bxs = [random_box(rng, 0, 64, min_side=3) for _ in range(int(rng.integers(1, 4)))]
        _, out = augment(img, boxes_to_array(bxs), cfg, rng)
        for x1, y1, x2, y2 in out:
            bounds_ok = bounds_ok and 0.0 <= x1 <= x2 <= 64.0
            bounds_ok = bounds_ok and 0.0 <= y1 <= y2 <= 64.0
        bounds_ok = bounds_ok and bool(np.all(box_areas(out) > 0.0))

    flip_cfg = AugmentConfig(
        translate_frac=0.0, max_rot_deg=0.0, scale_min=1.0, scale_max=1.0, hflip_prob=1.0
    )
    _, flipped = augment(img, np.array([[10.0, 0.0, 20.0, 5.0]]), flip_cfg, np.random.default_rng(3))
    flip_ok = flipped[0] == pytest.approx((44.0, 0.0, 54.0, 5.0), abs=1e-9)

    ok = identity_ok and bounds_ok and bool(flip_ok)
    assert report_line(
        9, "augmentation contract", ok,
        f"identity={identity_ok}, bounds={bounds_ok}, hflip={bool(flip_ok)}"
    )


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(23)

    img = rng.integers(0, 256, size=(3, 48, 32)).astype(np.float32)
    save_ppm(img, tmp_path / "rt.ppm")
    ppm_ok = np.array_equal(load_ppm(tmp_path / "rt.ppm"), img)

    from retina_kit.data import SampleRecord

    records = []
    for i in range(40):
        n = int(rng.integers(0, 4))
        boxes = boxes_to_array([random_box(rng, 0, 64, min_side=1) for _ in range(n)])
        records.append(SampleRecord(f"im{i}.ppm", boxes))
    write_manifest(records, tmp_path / "m.jsonl")
    back = read_manifest(tmp_path / "m.jsonl")
    on_disk = [json.loads(line) for line in (tmp_path / "m.jsonl").read_text().splitlines()]
    manifest_ok = (
        len(back) == len(records)
        and all(
            a.image_path == b.image_path
            and a.boxes.tolist() == b.boxes.tolist()
            for a, b in zip(records, back)
        )
        and all(r["labels"] == [0] * len(r["boxes"]) for r in on_disk)
    )

    rows = [
        (random_box(rng, 0, 64, min_side=1), float(rng.uniform(0, 1)), int(rng.integers(0, 6)))
        for _ in range(60)
    ]
    dets = Detections(
        boxes=boxes_to_array([b for b, _, _ in rows]),
        scores=np.array([s for _, s, _ in rows]),
        image_ids=np.array([i for _, _, i in rows]),
    )
    write_detections(dets, tmp_path / "d.jsonl")
    dback = read_detections(tmp_path / "d.jsonl")
    det_ok = (
        np.array_equal(dets.boxes, dback.boxes)
        and np.array_equal(dets.scores, dback.scores)
        and np.array_equal(dets.image_ids, dback.image_ids)
    )

    from retina_kit.checkpoint import build_checkpoint, save_checkpoint
    from retina_kit.network import init_params

    cfg = run_config_from_dict({})
    params = init_params(cfg.network, cfg.anchors, np.random.default_rng(5))
    ckpt = build_checkpoint(params, AdamState.zeros_like(params), run_config_to_dict(cfg))
    save_checkpoint(tmp_path / "a.rkck", ckpt)
    save_checkpoint(tmp_path / "b.rkck", load_checkpoint(tmp_path / "a.rkck"))
    ckpt_ok = (tmp_path / "a.rkck").read_bytes() == (tmp_path / "b.rkck").read_bytes()

    ok = ppm_ok and manifest_ok and det_ok and ckpt_ok
    assert report_line(
        10, "format round trips", ok,
        f"ppm={ppm_ok}, manifest={manifest_ok}, detections={det_ok}, checkpoint={ckpt_ok}"
    )
