import json
import os
import struct

import numpy as np
import pytest

from cminverse.tensorio import (
    dump_image,
    read_jsonl,
    read_tensor,
    tensor_bytes,
    write_jsonl,
    write_tensor,
)


def test_golden_header_bytes(tmp_path):
    # 2x3 row-major float32 payload behind "CMT1", u32 ndim, u32 dims.
    arr = np.arange(6.0).reshape(2, 3)
    blob = tensor_bytes(arr)
    assert blob[:4] == b"CMT1"
    assert struct.unpack("<I", blob[4:8]) == (2,)
    assert struct.unpack("<2I", blob[8:16]) == (2, 3)
    assert blob[16:] == arr.astype("<f4").tobytes()


def test_roundtrip_is_bit_identical(tmp_path):
    path = os.path.join(tmp_path, "t.cmt")
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 5, 7))
    write_tensor(path, arr)
    first = open(path, "rb").read()
    back = read_tensor(path)
    assert back.shape == (3, 5, 7)
    # float64 -> float32 happened on the first write; a second cycle is exact
    write_tensor(path, back)
    assert open(path, "rb").read() == first
    assert np.array_equal(read_tensor(path), back)


def test_read_rejects_corruption(tmp_path):
    path = os.path.join(tmp_path, "bad.cmt")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError, match="magic"):
        read_tensor(path)
    good = tensor_bytes(np.zeros((2, 2)))
    with open(path, "wb") as fh:
        fh.write(good[:-4])  # truncate payload
    with pytest.raises(ValueError, match="payload"):
        read_tensor(path)


def test_no_temp_files_left_behind(tmp_path):
    path = os.path.join(tmp_path, "x.cmt")
    write_tensor(path, np.ones(4))
    write_jsonl(os.path.join(tmp_path, "m.jsonl"), [{"a": 1}])
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]
    assert leftovers == []


def test_jsonl_sorted_keys_and_stable_bytes(tmp_path):
    path = os.path.join(tmp_path, "m.jsonl")
    records = [{"zeta": 1, "alpha": [1, 2]}, {"beta": {"y": 0, "x": 1}}]
    write_jsonl(path, records)
    text = open(path, "r").read()
    assert text.index("alpha") < text.index("zeta")
    assert read_jsonl(path) == records
    write_jsonl(path, records)
    assert open(path, "r").read() == text


def test_empty_manifest_is_empty_file(tmp_path):
    path = os.path.join(tmp_path, "m.jsonl")
    write_jsonl(path, [])
    assert open(path, "rb").read() == b""
    assert read_jsonl(path) == []


def test_pgm_header_and_clamping(tmp_path):
    path = os.path.join(tmp_path, "i.pgm")
    dump_image(path, np.array([[0.0, 0.5], [2.0, -1.0]]))
    blob = open(path, "rb").read()
    assert blob.startswith(b"P5\n2 2\n255\n")
    assert list(blob[-4:]) == [0, 128, 255, 0]


def test_ppm_interleaves_channels(tmp_path):
    path = os.path.join(tmp_path, "i.ppm")
    img = np.zeros((3, 1, 2))
    img[0, 0, 0] = 1.0  # red in pixel 0
    img[2, 0, 1] = 1.0  # blue in pixel 1
    dump_image(path, img)
    blob = open(path, "rb").read()
    assert blob.startswith(b"P6\n2 1\n255\n")
    assert list(blob[-6:]) == [255, 0, 0, 0, 0, 255]


def test_dump_image_dispatches_by_channels(tmp_path):
    dump_image(os.path.join(tmp_path, "a.pgm"), np.zeros((1, 2, 2)))
    dump_image(os.path.join(tmp_path, "b.ppm"), np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        dump_image(os.path.join(tmp_path, "c.pgm"), np.zeros((2, 2, 2)))


def test_jsonl_is_parseable_line_by_line(tmp_path):
    path = os.path.join(tmp_path, "m.jsonl")
    write_jsonl(path, [{"i": k} for k in range(3)])
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    assert rows == [{"i": 0}, {"i": 1}, {"i": 2}]
