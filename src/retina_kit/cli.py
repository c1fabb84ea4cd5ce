"""Command line entry point: synth / train / eval / detect / gradcheck.

Exit codes are a stable contract: 0 success, 1 validation error (a usage
error included), 2 runtime/numeric error, 3 I/O error. Config validation
happens before any output file is written; repeated invocations with the same
inputs produce byte-identical outputs (no timestamps in any format).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .anchors import generate_anchors
from .checkpoint import canonical_json, load_checkpoint
from .config import load_run_config, run_config_to_dict
from .data import preprocess
from .errors import NumericError, RetinaKitError, ValidationError
from .evaluation import coco_map
from .gradcheck import run_gradcheck
from .outputs import atomic_write
from .postprocess import Detections, write_detections
from .ppm import load_ppm, save_ppm
from .synth import synth_generate
from .training import (
    evaluate_params,
    infer_detections,
    load_params_for_config,
    load_samples,
    prepare_eval_input,
    run_training,
)


def cmd_synth(args) -> int:
    cfg = load_run_config(args.config)
    records = synth_generate(cfg.synth, args.out)
    print(f"wrote {len(records)} images and manifest.jsonl to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    result = run_training(
        cfg,
        train_manifest=args.manifest,
        val_manifest=args.val_manifest,
        out_dir=args.out,
        resume=args.resume,
    )
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    if result.final_val is not None:
        print(f"final val mAP: {result.final_val['map']:.4f}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    samples = load_samples(args.manifest)
    out = Path(args.out)

    if args.replay_gt:
        # debug path: ground truth replayed as unit-score detections
        all_gts = {s.image_id: prepare_eval_input(s, cfg)[1] for s in samples}
        dets = Detections.concat(
            Detections.for_image(img_id, gts, np.ones(len(gts))) for img_id, gts in all_gts.items()
        )
        report = coco_map(dets, all_gts, cfg.eval)
    else:
        params, _ = load_params_for_config(load_checkpoint(args.checkpoint), cfg)
        report, dets = evaluate_params(params, cfg, samples)

    report["config"] = run_config_to_dict(cfg)
    if not samples:
        report["warning"] = "empty manifest: no images were evaluated"
    out.mkdir(parents=True, exist_ok=True)
    write_detections(dets, out / "detections.jsonl")
    with atomic_write(out / "report.json") as f:
        f.write(canonical_json(report) + "\n")
    print(f"mAP {report['map']:.4f} over {report['num_images']} images -> {out / 'report.json'}")
    return 0


def _burn_outline(image: np.ndarray, box) -> None:
    h, w = image.shape[1], image.shape[2]
    x1 = int(np.clip(round(box[0]), 0, w - 1))
    y1 = int(np.clip(round(box[1]), 0, h - 1))
    x2 = int(np.clip(round(box[2]) - 1, 0, w - 1))
    y2 = int(np.clip(round(box[3]) - 1, 0, h - 1))
    color = np.array([255.0, 0.0, 0.0])[:, None]
    image[:, y1, x1 : x2 + 1] = color
    image[:, y2, x1 : x2 + 1] = color
    image[:, y1 : y2 + 1, x1] = color
    image[:, y1 : y2 + 1, x2] = color


def cmd_detect(args) -> int:
    cfg = load_run_config(args.config)
    params, _ = load_params_for_config(load_checkpoint(args.checkpoint), cfg)
    image = load_ppm(args.image)
    in_w, in_h = cfg.training.input_size
    grid = generate_anchors(cfg.anchors, in_w, in_h)
    dets = infer_detections(params, cfg, grid, [preprocess(image, (in_w, in_h))], [0])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_detections(dets, out / "detections.jsonl")
    if args.annotate:
        _, h, w = image.shape
        # detections live in the network input frame; map back to the source image
        sx, sy = w / in_w, h / in_h
        annotated = image.copy()
        for box in (dets.boxes * np.array([sx, sy, sx, sy])).tolist():
            _burn_outline(annotated, box)
        save_ppm(annotated, out / "annotated.ppm")
    print(f"{len(dets)} detections -> {out / 'detections.jsonl'}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = load_run_config(args.config)
    report = run_gradcheck(cfg)
    text = canonical_json(report) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_write(out / "gradcheck.json") as f:
            f.write(text)
    for suite in report["suites"]:
        status = "pass" if suite["passed"] else "FAIL"
        print(f"{suite['name']}: max rel error {suite['max_rel_error']:.3e} "
              f"(threshold {suite['threshold']:.0e}) {status}")
    if not report["passed"]:
        failing = [s["name"] for s in report["suites"] if not s["passed"]]
        print(f"gradcheck FAILED: {', '.join(failing)}", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is rejected input: it raises ValidationError, so main exits 1."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="retina-kit",
        description="Desk-scale single-stage pedestrian detection pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory for images + manifest")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train from a manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True, help="training manifest (JSONL)")
    p.add_argument("--val-manifest", default=None, help="validation manifest (JSONL)")
    p.add_argument("--out", default=".", help="directory for checkpoint + metrics.jsonl")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=".", help="directory for report.json + detections.jsonl")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument(
        "--replay-gt",
        action="store_true",
        help="debug: score the ground truth against itself (expects mAP 1.0)",
    )
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("detect", help="run inference on one PPM image")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--annotate", action="store_true", help="also write annotated.ppm")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("gradcheck", help="finite-difference checks of all gradients")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="optional directory for gradcheck.json")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 2
    except RetinaKitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
