#!/usr/bin/env python3
"""Train gamma=2 vs gamma=0 on one fixed split over several seeds.

The class-imbalance claim is directional: the focusing term should score at
least as well as plain cross-entropy under the same budget. Writes a JSON
report with both per-seed and mean sweep mAPs.

Usage: python scripts/focal_vs_ce.py [workdir] [--seeds N] [--epochs E]
"""

import sys
from pathlib import Path

from retina_kit.cli import UsageParser, exit_code
from retina_kit.experiments import focal_vs_ce, write_report


def main():
    parser = UsageParser(description=__doc__)
    parser.add_argument("workdir", nargs="?", default="runs/focal_vs_ce")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=30)
    args = parser.parse_args()

    report = focal_vs_ce(args.base_seed, args.seeds, args.workdir, epochs=args.epochs)
    out = Path(args.workdir) / "focal_vs_ce.json"
    write_report(report, out)
    print(
        f"mean sweep mAP: gamma=2 {report['mean_map_gamma2']:.4f} vs "
        f"gamma=0 {report['mean_map_gamma0']:.4f} -> {out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
