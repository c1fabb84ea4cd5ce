#!/usr/bin/env python3
"""Synthesize the standard 300/60 split, train 30 epochs, evaluate.

Usage: python scripts/run_desk_experiment.py [workdir] [--seed N] [--gamma G]
"""

import sys
from pathlib import Path

from retina_kit.cli import UsageParser, exit_code
from retina_kit.experiments import desk_config, make_split, train_and_eval, write_report


def main():
    parser = UsageParser(description=__doc__)
    parser.add_argument("workdir", nargs="?", default="runs/desk")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--gamma", type=float, default=2.0)
    parser.add_argument("--epochs", type=int, default=30)
    args = parser.parse_args()

    cfg = desk_config(seed=args.seed, gamma=args.gamma, epochs=args.epochs)
    workdir = Path(args.workdir)
    train_m, val_m = make_split(cfg, workdir)
    report = train_and_eval(cfg, train_m, val_m, workdir / "run")
    out = workdir / "report.json"
    write_report(report, out)
    print(f"val mAP {report['map']:.4f}, AP@0.50 {report['ap50']:.4f} -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
