import io

import numpy as np
import pytest

from efh.nn import make_rng
from efh.tensor_io import (FormatError, load_checkpoint, load_image,
                           load_tensor, read_ppm, read_tensor, save_checkpoint,
                           save_tensor, tensor_bytes, write_ppm, write_tensor)


class TestTnsrFormat:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_exact_roundtrip(self, tmp_path, dtype):
        rng = make_rng(0)
        arr = rng.normal(size=(3, 4, 5)).astype(dtype)
        path = tmp_path / "t.tnsr"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))

    def test_header_layout(self):
        arr = np.zeros((2, 3), dtype=np.float32)
        raw = tensor_bytes(arr)
        assert raw[:4] == b"TNSR"
        # version=1, ndim=2, dims 2 and 3, dtype code 0
        assert raw[4:8] == (1).to_bytes(4, "little")
        assert raw[8:12] == (2).to_bytes(4, "little")
        assert raw[12:20] == (2).to_bytes(8, "little")
        assert raw[20:28] == (3).to_bytes(8, "little")
        assert raw[28:32] == (0).to_bytes(4, "little")
        assert len(raw) == 32 + 6 * 4

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(b"JUNKxxxx"))

    def test_truncated_payload_rejected(self):
        raw = tensor_bytes(np.ones((4,), dtype=np.float32))
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(raw[:-2]))

    def test_scalar_roundtrip(self):
        raw = tensor_bytes(np.array(3.5, dtype=np.float64))
        assert read_tensor(io.BytesIO(raw)).item() == 3.5


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(1)
        named = {"a.w": rng.normal(size=(4, 4)).astype(np.float32),
                 "b.bias": rng.normal(size=7).astype(np.float64)}
        path = tmp_path / "m.otck"
        save_checkpoint(path, named)
        back = load_checkpoint(path)
        assert set(back) == set(named)
        for k in named:
            assert np.array_equal(back[k].view(np.uint8), named[k].view(np.uint8))

    @pytest.mark.parametrize("cut", [6, 14, 30])
    def test_truncated_rejected(self, tmp_path, cut):
        path = tmp_path / "m.otck"
        save_checkpoint(path, {"a.w": np.ones((2, 2), dtype=np.float32)})
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.otck"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestPpm:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(2)
        img = rng.uniform(size=(8, 6, 3)).astype(np.float32)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (8, 6, 3)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-6

    def test_load_image_dispatch(self, tmp_path):
        rng = make_rng(3)
        img = rng.uniform(size=(32, 32, 3)).astype(np.float32)
        tp = tmp_path / "a.tnsr"
        pp = tmp_path / "a.ppm"
        save_tensor(tp, img)
        write_ppm(pp, img)
        assert np.array_equal(load_image(tp), img)
        assert load_image(pp).shape == (32, 32, 3)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00\x01\x02\x03garbage")
        with pytest.raises(FormatError):
            load_image(path)

    def test_16_bit_samples_are_big_endian_words(self, tmp_path):
        path = tmp_path / "grey16.ppm"
        path.write_bytes(b"P6\n4 2\n65535\n" + b"\x80\x00" * (4 * 2 * 3))
        img = read_ppm(path)
        assert img.shape == (2, 4, 3)
        assert np.allclose(img, 32768 / 65535)

    @pytest.mark.parametrize("raw", [
        b"P6\n4 4\n255\n" + b"\x00" * 47,     # short payload
        b"P6\n4 4\n",                          # header ends before maxval
        b"P6\nfour 4\n255\n" + b"\x00" * 48,  # non-numeric width
        b"P6\n0 4\n255\n",                    # empty image
        b"P6\n4 4\n70000\n" + b"\x00" * 96,   # maxval out of range
    ])
    def test_malformed_rejected(self, tmp_path, raw):
        path = tmp_path / "bad.ppm"
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            read_ppm(path)

    def test_non_finite_pixels_rejected(self, tmp_path):
        img = np.full((32, 32, 3), 0.5, dtype=np.float32)
        img[3, 4, 1] = np.nan
        path = tmp_path / "nan.tnsr"
        save_tensor(path, img)
        with pytest.raises(FormatError):
            load_image(path)
