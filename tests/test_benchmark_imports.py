"""perfbench/workloads.py imports the package and tests/oracles.py; a rename either side breaks here."""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_workloads_resolve_bbox_and_the_map_oracle(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look the module up
    spec.loader.exec_module(module)
    naive_coco_map = module.load_oracles().naive_coco_map
    box = module.BBox(0.0, 0.0, 4.0, 4.0)
    assert naive_coco_map({0: [(box, 0.9)]}, {0: [box]}, [0.5]) == ([1.0], 1.0)
