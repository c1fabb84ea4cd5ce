import os
import subprocess
import sys
from pathlib import Path

import pytest

import retina_kit
from retina_kit.errors import ValidationError
from retina_kit.experiments import focal_vs_ce


@pytest.mark.parametrize("seeds", [0, -1])
def test_focal_vs_ce_without_seeds_rejected_before_writing(tmp_path, seeds):
    # with no seed there is no mean to compare: it must fail before synthesizing the split
    with pytest.raises(ValidationError, match="seeds must be at least 1"):
        focal_vs_ce(0, seeds, tmp_path / "work", epochs=1)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "script, flags, message",
    [("focal_vs_ce.py", ["--seeds", "0"], "seeds must be at least 1"),
     ("focal_vs_ce.py", ["--seeds", "abc"], "argument --seeds: invalid int value"),
     ("run_desk_experiment.py", ["--epochs", "-1"], "training.epochs must be >= 0"),
     ("run_desk_experiment.py", ["--gamma"], "argument --gamma: expected one argument")],
)
def test_scripts_reject_input_as_the_cli_does(tmp_path, script, flags, message):
    # one error line and exit code 1 (a usage error included), no traceback, no work directory
    script = Path(__file__).parents[1] / "scripts" / script
    env = {**os.environ, "PYTHONPATH": str(Path(retina_kit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(script), str(tmp_path / "work"), *flags],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
