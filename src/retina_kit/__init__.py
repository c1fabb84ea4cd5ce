"""Desk-scale single-stage pedestrian detection pipeline.

Library surface plus the `retina-kit` CLI: synthetic dataset generation,
focal-loss training with hand-written backprop, decode + NMS inference, and
a COCO-protocol mAP evaluator.
"""

import os

# One BLAS thread per process unless the caller chose otherwise; it only
# takes effect when numpy has not been imported yet. Training and `eval` each
# run two processes, which threaded BLAS would oversubscribe on two cores,
# and at these shapes a threaded GEMM was no faster than a serial one.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .anchors import AnchorConfig, AnchorGrid, AnchorLevel, assign_targets, generate_anchors
from .boxes import iou_matrix
from .config import RunConfig, load_run_config, run_config_from_dict, run_config_to_dict
from .data import AugmentConfig, SampleRecord, augment, preprocess, read_manifest, write_manifest
from .errors import NumericError, RetinaKitError, ValidationError
from .evaluation import average_precision, coco_map, match_detections, match_images, pooled_map
from .losses import LossConfig, sigmoid_focal_loss, smooth_l1, total_detection_loss
from .network import NetworkConfig, backward, forward, init_params
from .optim import AdamState, adam_step
from .postprocess import Detections, EvalConfig, decode_detections, nms_indices
from .ppm import load_ppm, save_ppm
from .synth import SynthConfig, synth_generate

__version__ = "0.1.0"
