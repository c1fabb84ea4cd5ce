import pytest

from retina_kit.config import run_config_from_dict
from retina_kit.gradcheck import run_gradcheck

SUITES = ["focal_loss", "smooth_l1", "conv2d", "upsample", "total_loss", "end_to_end"]


def test_all_suites_pass():
    report = run_gradcheck(run_config_from_dict({"seed": 0}))
    assert report["passed"]
    assert [s["name"] for s in report["suites"]] == SUITES
    for s in report["suites"]:
        assert s["passed"], f"{s['name']} exceeded {s['threshold']}: {s['max_rel_error']}"
        assert s["max_rel_error"] < s["threshold"]


def test_report_is_deterministic():
    cfg = run_config_from_dict({"seed": 3})
    a = run_gradcheck(cfg)
    b = run_gradcheck(cfg)
    assert a == b


# a network small enough that end_to_end probes all 195 of its parameters
TINY_NET = {
    "network": {"stem_channels": [2], "fpn_channels": 2, "head_depth": 0},
    "anchors": {"levels": [{"stride": 2, "base_size": 6.0}], "scales": [1.0], "ratios": [1.0]},
    "training": {"input_size": [16, 16]},
}


@pytest.mark.parametrize("suite", SUITES)
def test_sabotaged_gradient_is_caught(suite):
    # corrupt one suite's analytic gradient: that suite must fail and every other pass
    def perturb(name, analytic):
        if name != suite:
            return analytic
        if isinstance(analytic, dict):  # end_to_end: one entry of one parameter's gradient
            out = {k: v.copy() for k, v in analytic.items()}
            out["smooth0.w"].reshape(-1)[0] += 1e-2
            return out
        return analytic + 1e-2  # a scalar derivative, or every entry of an array

    report = run_gradcheck(run_config_from_dict({"seed": 0, **TINY_NET}), perturb=perturb)
    assert not report["passed"]
    assert [s["name"] for s in report["suites"] if not s["passed"]] == [suite]
