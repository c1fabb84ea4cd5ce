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


@pytest.mark.parametrize(
    "suite, config, param, step",
    [(s, TINY_NET, "smooth0.w", 1e-2) for s in SUITES]
    # under the default config end_to_end probes 200 of 96,157 entries: always the
    # first entry of every tensor, so one wrong entry there cannot slip through
    + [("end_to_end", {}, p, 1.0) for p in ("cls_out.b", "box_out.b", "stem0.b", "smooth1.w")],
    ids=SUITES + [f"default-{p}" for p in ("cls_out.b", "box_out.b", "stem0.b", "smooth1.w")],
)
def test_sabotaged_gradient_is_caught(suite, config, param, step):
    # corrupt one suite's analytic gradient: that suite must fail and every other pass
    def perturb(name, analytic):
        if name != suite:
            return analytic
        if isinstance(analytic, dict):  # end_to_end: entry 0 of one parameter's gradient
            out = {k: v.copy() for k, v in analytic.items()}
            out[param].reshape(-1)[0] += step
            return out
        return analytic + step  # a scalar derivative, or every entry of an array

    report = run_gradcheck(run_config_from_dict({"seed": 0, **config}), perturb=perturb)
    assert not report["passed"]
    assert [s["name"] for s in report["suites"] if not s["passed"]] == [suite]


def test_config_with_stride_32_passes_every_suite():
    # end_to_end's scene grows to the largest stride: at a fixed 16x16 this config,
    # which train accepts, was rejected as not divisible by its stride
    levels = [{"stride": s, "base_size": 2.0 * s} for s in (8, 16, 32)]
    cfg = run_config_from_dict(
        {"seed": 0, "network": {"stem_channels": [8, 16, 32, 64, 64]}, "anchors": {"levels": levels}}
    )
    report = run_gradcheck(cfg)
    assert [s["name"] for s in report["suites"] if not s["passed"]] == []
    assert report["passed"]
