import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshuffle import arrayio
from spinshuffle.arrayio import (FactoredStack, read_array, write_array,
                                 write_csv)
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


def interleaved_payload(array) -> bytes:
    """The .dat bytes of the former writer, kept as the byte oracle: three
    full-size copies (complex64, F-order ravel, interleaved floats)."""
    arr = np.asarray(array)
    data = np.ascontiguousarray(arr.astype(np.complex64, copy=False))
    dims = arr.shape if arr.ndim else (1,)
    interleaved = np.empty(2 * data.size, dtype="<f4")
    flat = data.reshape(dims, copy=False).ravel(order="F")
    interleaved[0::2] = flat.real
    interleaved[1::2] = flat.imag
    return interleaved.tobytes()


def _oracle_inputs():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((6, 5, 4)) + 1j * rng.standard_normal((6, 5, 4))
    cases = {"0-d": np.array(2.5 - 1j), "1-d": z[:, 0, 0],
             "C": z, "F": np.asfortranarray(z), "strided": z[::2, ::-1, 1:],
             "transposed": z.transpose(1, 2, 0), "empty": np.zeros((3, 0)),
             # one full default slab of 2**17 values and a partial one
             "two-slabs": rng.standard_normal((3, 50001))}
    for dtype in (bool, np.int64, np.float32, np.float64, np.complex64):
        cases[np.dtype(dtype).name] = (z.real * 3).astype(dtype)
    return cases


class TestArrayFormat:
    @pytest.mark.parametrize("slab", [7, arrayio._SLAB])
    @pytest.mark.parametrize("name", sorted(_oracle_inputs()))
    def test_matches_interleaving_oracle(self, tmp_path, monkeypatch, slab,
                                         name):
        # slabs of 7 values leave most inputs here a partial last slab
        monkeypatch.setattr(arrayio, "_SLAB", slab)
        arr = _oracle_inputs()[name]
        write_array(str(tmp_path / "a"), arr)
        assert (tmp_path / "a.dat").read_bytes() == interleaved_payload(arr)
        assert read_array(str(tmp_path / "a")).shape == (arr.shape or (1,))

    def test_writer_makes_no_full_size_copy(self, tmp_path):
        # a (32, 65536) complex128 ensemble is 33.5 MB; the interleaving
        # writer peaked at 50 MB of copies
        rng = np.random.default_rng(13)
        arr = rng.standard_normal((32, 65536)) + 0j
        tracemalloc.start()
        try:
            write_array(str(tmp_path / "big"), arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    # _SLAB 7 gives a factored stack one-column slabs and an array 7-value
    # slabs; 56 gives the stack 7-value slabs, so the last slab of most
    # shapes here is partial
    @pytest.mark.parametrize("slab", [7, 56])
    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(0, 5), k=st.integers(0, 3), nx=st.integers(1, 4),
           ny=st.integers(1, 11), seed=st.integers(0, 2 ** 32 - 1))
    def test_factored_stack_writes_its_product(self, slab, t, k, nx, ny,
                                               seed):
        rng = np.random.default_rng(seed)
        left = rng.standard_normal((t, k)) + 1j * rng.standard_normal((t, k))
        right = (rng.standard_normal((k, nx, ny))
                 + 1j * rng.standard_normal((k, nx, ny)))
        stack = FactoredStack(left, right)
        product = np.asarray(stack)
        assert product.shape == stack.shape == (t, nx, ny)
        np.testing.assert_allclose(product, np.einsum("tk,kxy->txy", left,
                                                      right), atol=1e-12)
        with (pytest.MonkeyPatch.context() as mp,
              tempfile.TemporaryDirectory() as out):
            mp.setattr(arrayio, "_SLAB", slab)
            write_array(out + "/stack", stack)
            write_array(out + "/product", product)
            for ext in (".hdr", ".dat"):
                with open(out + "/stack" + ext, "rb") as a, \
                        open(out + "/product" + ext, "rb") as b:
                    assert a.read() == b.read(), ext
        np.testing.assert_array_equal(
            np.concatenate(list(stack.slabs()), axis=-1), product)

    def test_factored_writer_expands_no_stack(self, tmp_path):
        # a (32, 256, 256) stack of rank 3 is 32 MiB of complex128 expanded
        # and 16 MiB as complex64; the factors are 1.5 MiB
        rng = np.random.default_rng(5)
        stack = FactoredStack(rng.standard_normal((32, 3)) + 0j,
                              rng.standard_normal((3, 256, 256)) + 0j)
        tracemalloc.start()
        try:
            write_array(str(tmp_path / "stack"), stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert (tmp_path / "stack.dat").stat().st_size == 8 * 32 * 256 * 256

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
