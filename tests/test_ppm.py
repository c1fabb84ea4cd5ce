import pickle

import numpy as np
import pytest

from retina_kit.data import ManifestError
from retina_kit.errors import NumericError, ValidationError
from retina_kit.ppm import (
    PpmHeaderError,
    PpmMaxvalError,
    PpmParseError,
    PpmTruncatedError,
    PpmVariantError,
    load_ppm,
    save_ppm,
)


def test_minimal_red_pixel(tmp_path):
    path = tmp_path / "red.ppm"
    path.write_bytes(b"P6\n1 1\n255\n\xff\x00\x00")
    img = load_ppm(path)
    assert img.shape == (3, 1, 1)
    assert img[:, 0, 0].tolist() == [255.0, 0.0, 0.0]
    assert img.dtype == np.float32


def test_round_trip_random_u8(tmp_path, rng):
    img = rng.integers(0, 256, size=(3, 13, 7)).astype(np.float32)
    path = tmp_path / "rand.ppm"
    save_ppm(img, path)
    assert np.array_equal(load_ppm(path), img)


def test_save_rounds_and_clamps(tmp_path):
    img = np.array([[[-3.2]], [[127.5]], [[300.0]]])
    path = tmp_path / "clamp.ppm"
    save_ppm(img, path)
    out = load_ppm(path)
    assert out[0, 0, 0] == 0.0
    assert out[1, 0, 0] == 128.0  # np.rint half-to-even
    assert out[2, 0, 0] == 255.0


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "comment.ppm"
    path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6))
    assert load_ppm(path).shape == (3, 1, 2)


def test_ascii_variant_rejected(tmp_path):
    path = tmp_path / "ascii.ppm"
    path.write_bytes(b"P3\n1 1\n255\n255 0 0\n")
    with pytest.raises(PpmVariantError, match="P3"):
        load_ppm(path)


def test_missing_magic(tmp_path):
    path = tmp_path / "junk.ppm"
    path.write_bytes(b"hello world")
    with pytest.raises(PpmHeaderError):
        load_ppm(path)


def test_bad_maxval_offset(tmp_path):
    path = tmp_path / "maxval.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(PpmMaxvalError) as err:
        load_ppm(path)
    assert err.value.offset == 7  # byte where the maxval token starts


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.ppm"
    path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
    with pytest.raises(PpmTruncatedError, match="12 bytes"):
        load_ppm(path)


def test_header_cut_short(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n2 ")
    with pytest.raises(PpmHeaderError, match="height"):
        load_ppm(path)


def test_parse_errors_are_validation_errors(tmp_path):
    path = tmp_path / "v.ppm"
    path.write_bytes(b"P3\n")
    with pytest.raises(ValidationError):
        load_ppm(path)


def test_save_rejects_bad_shape(tmp_path):
    with pytest.raises(ValidationError):
        save_ppm(np.zeros((1, 4, 4)), tmp_path / "bad.ppm")


@pytest.mark.parametrize(
    "content, error",
    [(b"P6\n2 2\n255\n" + bytes(5), PpmTruncatedError), (b"P3\n1 1\n255\n0 0 0\n", PpmVariantError),
     (b"P6\n1 1\n65535\n" + bytes(6), PpmMaxvalError)],
    ids=["truncated", "variant", "maxval"],
)
def test_parse_errors_name_the_file(tmp_path, content, error):
    path = tmp_path / "named.ppm"
    path.write_bytes(content)
    with pytest.raises(error, match=r"^.*named\.ppm: .*\(byte offset \d+\)$") as info:
        load_ppm(path)
    assert str(info.value).startswith(f"{path}: ")


PARSE_FAILURES = {
    PpmHeaderError: b"P6\n2 ?\n255\n",
    PpmVariantError: b"P3\n1 1\n255\n0 0 0\n",
    PpmMaxvalError: b"P6\n1 1\n65535\n" + bytes(6),
    PpmTruncatedError: b"P6\n2 2\n255\n" + bytes(5),
}


@pytest.mark.parametrize("error", PpmParseError.__subclasses__(), ids=lambda c: c.__name__)
def test_parse_errors_survive_pickling(tmp_path, error):
    # the minibatch worker sends its exceptions to the main process pickled
    path = tmp_path / "bad.ppm"
    path.write_bytes(PARSE_FAILURES[error])
    with pytest.raises(error) as info:
        load_ppm(path)
    back = pickle.loads(pickle.dumps(info.value))
    assert type(back) is error
    assert str(back) == str(info.value) and str(back).startswith(f"{path}: ")
    assert back.offset == info.value.offset


@pytest.mark.parametrize("error", [ValidationError, ManifestError, NumericError])
def test_package_errors_survive_pickling(error):
    back = pickle.loads(pickle.dumps(error("bad input")))
    assert type(back) is error and str(back) == "bad input"
