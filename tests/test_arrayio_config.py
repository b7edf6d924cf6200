import struct

import numpy as np
import pytest

from spinshuffle.arrayio import read_array, write_array, write_csv
from spinshuffle.config import (PipelineConfig, from_ini, load_config,
                                save_config, to_ini)


def standalone_reader(base):
    """Minimal independent reader for the array format (no shared code)."""
    with open(base + ".hdr") as fh:
        ndim = int(fh.readline())
        dims = [int(v) for v in fh.readline().split()]
        assert fh.readline().strip() == "complex64"
    assert len(dims) == ndim
    n = 1
    for d in dims:
        n *= d
    with open(base + ".dat", "rb") as fh:
        payload = fh.read()
    assert len(payload) == 8 * n
    values = struct.unpack("<" + "f" * (2 * n), payload)
    flat = [complex(values[2 * i], values[2 * i + 1]) for i in range(n)]
    # first dimension fastest-varying
    out = np.array(flat, dtype=np.complex64).reshape(dims, order="F")
    return out


class TestArrayFormat:
    @pytest.mark.parametrize("shape", [(7,), (4, 5), (3, 4, 2), (2, 3, 2, 2)])
    def test_round_trip_bit_exact(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        arr = (rng.standard_normal(shape)
               + 1j * rng.standard_normal(shape)).astype(np.complex64)
        base = str(tmp_path / "arr")
        write_array(base, arr)
        back = read_array(base)
        assert back.dtype == np.complex64
        assert back.shape == arr.shape
        assert np.array_equal(back.view(np.float32), arr.view(np.float32))

    def test_accepts_hdr_or_dat_suffix(self, tmp_path):
        arr = np.arange(6, dtype=np.complex64).reshape(2, 3)
        base = str(tmp_path / "x")
        write_array(base + ".hdr", arr)
        assert np.array_equal(read_array(base + ".dat"), arr)

    def test_independent_reader_agrees(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = (rng.standard_normal((5, 3, 2))
               + 1j * rng.standard_normal((5, 3, 2))).astype(np.complex64)
        base = str(tmp_path / "cross")
        write_array(base, arr)
        assert np.array_equal(standalone_reader(base), arr)

    def test_header_payload_mismatch(self, tmp_path):
        arr = np.ones((4, 4), np.complex64)
        base = str(tmp_path / "bad")
        write_array(base, arr)
        with open(base + ".hdr", "w") as fh:
            fh.write("2\n4 5\ncomplex64\n")
        with pytest.raises(ValueError, match="header implies"):
            read_array(base)

    def test_malformed_header(self, tmp_path):
        base = str(tmp_path / "broken")
        write_array(base, np.ones(3, np.complex64))
        with open(base + ".hdr", "w") as fh:
            fh.write("two\n3\ncomplex64\n")
        with pytest.raises(ValueError, match="malformed"):
            read_array(base)
        with open(base + ".hdr", "w") as fh:
            fh.write("1\n3\nfloat64\n")
        with pytest.raises(ValueError, match="dtype"):
            read_array(base)
        with open(base + ".hdr", "w") as fh:
            fh.write("2\n3\ncomplex64\n")
        with pytest.raises(ValueError, match="dims"):
            read_array(base)

    def test_fortran_layout_on_disk(self, tmp_path):
        # first dim contiguous: arr[1, 0] must directly follow arr[0, 0]
        arr = np.array([[1 + 0j, 3 + 0j], [2 + 0j, 4 + 0j]], np.complex64)
        base = str(tmp_path / "layout")
        write_array(base, arr)
        raw = np.fromfile(base + ".dat", dtype="<f4")
        assert list(raw[0::2]) == [1.0, 2.0, 3.0, 4.0]


class TestCsv:
    def test_format_conventions(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ("a", "b"), [(1, 2.5), (3, 0.1)])
        with open(path, "rb") as fh:
            raw = fh.read().decode()
        assert raw == "a,b\n1,2.5\n3,0.1\n"


class TestConfig:
    def test_round_trip_lossless(self):
        cfg = PipelineConfig(nx=32, accel=3.5, flips_deg=(120.0, 140.0),
                             n_echoes=2, noise_sigma=1e-3,
                             output_dir="some/dir")
        assert from_ini(to_ini(cfg)) == cfg

    def test_default_round_trip(self):
        assert from_ini(to_ini(PipelineConfig())) == PipelineConfig()

    def test_file_round_trip(self, tmp_path):
        cfg = PipelineConfig(subspace_k=5)
        path = str(tmp_path / "cfg.ini")
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_comments_and_sections(self):
        text = """
# a comment
[sequence]
n_echoes = 8   # inline comment
[solver]
max_iters = 7
"""
        cfg = from_ini(text)
        assert cfg.n_echoes == 8
        assert cfg.max_iters == 7

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            from_ini("[sequence]\nwavelength = 3\n")
        with pytest.raises(ValueError):
            from_ini("[warp]\nspeed = 9\n")

    def test_constant_train_expansion(self):
        cfg = PipelineConfig(n_echoes=4, flips_deg=(120.0,))
        assert cfg.train_flips() == (120.0,) * 4
        cfg = PipelineConfig(n_echoes=2, flips_deg=(100.0, 140.0))
        assert cfg.train_flips() == (100.0, 140.0)
        with pytest.raises(ValueError):
            PipelineConfig(n_echoes=3, flips_deg=(1.0, 2.0)).train_flips()
