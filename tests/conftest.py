import retina_kit  # noqa: F401  # first, so its BLAS thread pin is set before numpy loads
import numpy as np
import pytest
from hypothesis import strategies as st

from retina_kit.boxes import BBox


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@st.composite
def bbox_strategy(draw, lo=0.0, hi=512.0, min_side=1.0):
    w = draw(st.floats(min_value=min_side, max_value=(hi - lo) / 2))
    h = draw(st.floats(min_value=min_side, max_value=(hi - lo) / 2))
    x1 = draw(st.floats(min_value=lo, max_value=hi - w))
    y1 = draw(st.floats(min_value=lo, max_value=hi - h))
    return BBox(x1, y1, x1 + w, y1 + h)


boxes = bbox_strategy
