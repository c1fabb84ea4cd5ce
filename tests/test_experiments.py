import pytest

from retina_kit.errors import ValidationError
from retina_kit.experiments import focal_vs_ce


@pytest.mark.parametrize("seeds", [0, -1])
def test_focal_vs_ce_without_seeds_rejected_before_writing(tmp_path, seeds):
    # with no seed there is no mean to compare: it must fail before synthesizing the split
    with pytest.raises(ValidationError, match="seeds must be at least 1"):
        focal_vs_ce(0, seeds, tmp_path / "work", epochs=1)
    assert list(tmp_path.iterdir()) == []
