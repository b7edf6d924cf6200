import logging
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from spinshuffle.arrayio import read_array
from spinshuffle.cli import main
from spinshuffle.config import PipelineConfig, save_config
from spinshuffle.pipeline import sequence_from_config, write_arrays
from spinshuffle.qmap import fit_map
from spinshuffle.subspace import SubspaceBasis, back_project

SMALL = PipelineConfig(nx=16, ny=16, n_echoes=4, ensemble_size=32,
                       subspace_k=2, max_iters=30, accel=2.0)


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.ini"
    save_config(SMALL, str(path))
    return str(path)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1

    def test_runtime_error_is_two(self, tmp_path, capsys):
        # recon without its inputs in place
        assert main(["recon", "--out", str(tmp_path / "empty")]) == 2
        err = capsys.readouterr().err
        assert "error" in err
        # the failure names its stage, not only the missing file
        assert "'recon'" in err and "masks.hdr" in err

    def test_success_is_zero(self, tmp_path, cfg_path):
        assert main(["phantom", "--config", cfg_path,
                     "--out", str(tmp_path)]) == 0


class TestStagedFlow:
    def test_full_chain(self, tmp_path, cfg_path):
        out = str(tmp_path / "run")
        for command in ("phantom", "basis", "sim", "recon", "fit"):
            assert main([command, "--config", cfg_path, "--out", out]) == 0
        t2 = read_array(out + "/t2_map").real
        assert t2.shape == (16, 16)
        assert np.isfinite(t2).any()
        for name in ("labels", "basis", "masks", "kspace", "coefficients",
                     "images", "rho_map"):
            assert np.isfinite(read_array(f"{out}/{name}")).all()
        assert (tmp_path / "run" / "fit_summary.csv").exists()

    def test_chain_matches_pipeline(self, tmp_path, cfg_path):
        # the subcommands and `pipeline` run the same stage table; only the
        # complex64 files between the stages separate their results
        chain, whole = tmp_path / "chain", tmp_path / "whole"
        for command in ("phantom", "basis", "mask", "sim", "recon", "fit"):
            assert main([command, "--config", cfg_path,
                         "--out", str(chain)]) == 0
        assert main(["pipeline", "--config", cfg_path,
                     "--out", str(whole)]) == 0

        def arrays(out):
            return sorted(p.name for p in out.iterdir()
                          if p.suffix in (".hdr", ".dat"))

        assert arrays(chain) == arrays(whole)
        for name in ("labels", "ensemble", "basis", "singular_values",
                     "masks", "truth_images", "kspace"):
            assert ((chain / f"{name}.dat").read_bytes()
                    == (whole / f"{name}.dat").read_bytes()), name
        for name, rel in (("coefficients", 1e-6), ("images", 1e-6),
                          ("t2_map", 1e-4)):
            a = read_array(str(chain / name))
            b = read_array(str(whole / name))
            assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b)), name

    def test_crlb_outputs(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="spinshuffle")
        cfg = PipelineConfig(n_echoes=8)
        path = tmp_path / "cfg.ini"
        save_config(cfg, str(path))
        out = str(tmp_path / "crlb")
        assert main(["crlb", "--config", str(path), "--out", out]) == 0
        with open(out + "/crlb_sweep.csv") as fh:
            sweep = fh.read().splitlines()
        assert sweep[0] == "t2_ms,bound_constant,bound_optimized"
        assert len(sweep) == 28  # header + 27 grid points
        with open(out + "/flips_optimized.csv") as fh:
            header, *rows = fh.read().splitlines()
        assert header == "echo,flip_deg"
        echoes, flips = zip(*(row.split(",") for row in rows))
        assert [int(e) for e in echoes] == list(range(1, 9))
        assert np.isfinite([float(f) for f in flips]).all()
        assert "converged=True (tolerance after" in caplog.text

    @pytest.mark.parametrize("method", ["nlls", "dictionary"])
    def test_fit_uses_configured_method(self, tmp_path, method):
        cfg = replace(SMALL, fit_method=method)
        path = str(tmp_path / "cfg.ini")
        save_config(cfg, path)
        out = str(tmp_path / "run")
        for command in ("basis", "sim", "recon", "fit"):
            assert main([command, "--config", path, "--out", out]) == 0
        basis = SubspaceBasis(
            phi_k=read_array(out + "/basis").astype(complex),
            singular_values=read_array(out + "/singular_values").real)
        coeffs = read_array(out + "/coefficients").astype(complex)
        seq = sequence_from_config(cfg)
        bounds = (cfg.fit_t2_min_ms, cfg.fit_t2_max_ms)
        if method == "nlls":
            expected = fit_map(back_project(basis, coeffs), seq,
                               method="nlls", bounds=bounds,
                               t1_ms=cfg.fit_t1_nominal_ms)
        else:
            expected = fit_map(coeffs, seq, basis=basis, method="dictionary",
                               bounds=bounds, t1_ms=cfg.fit_t1_nominal_ms)
        np.testing.assert_array_equal(read_array(out + "/t2_map").real,
                                      expected.t2.astype(np.float32))

    def test_fit_fails_when_every_voxel_fails(self, tmp_path, cfg_path,
                                               capsys):
        out = tmp_path / "run"
        assert main(["basis", "--config", cfg_path, "--out", str(out)]) == 0
        write_arrays(str(out), coefficients=np.zeros((2, 16, 16), complex))
        assert main(["fit", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'fit'" in err and "256 of 256" in err
        assert not (out / "fit_summary.csv").exists()
        assert not (out / "t2_map.dat").exists()

    def test_pipeline_command(self, tmp_path, cfg_path, capsys):
        assert main(["pipeline", "--config", cfg_path,
                     "--out", str(tmp_path / "p")]) == 0
        out = capsys.readouterr().out
        assert "image NRMSE" in out
        assert "region 1" in out


class TestSeedOverride:
    def test_seed_changes_all_draws(self, tmp_path, cfg_path):
        a, b, c = (str(tmp_path / n) for n in "abc")
        assert main(["mask", "--config", cfg_path, "--out", a,
                     "--seed", "1"]) == 0
        assert main(["mask", "--config", cfg_path, "--out", b,
                     "--seed", "1"]) == 0
        assert main(["mask", "--config", cfg_path, "--out", c,
                     "--seed", "2"]) == 0
        ma = read_array(a + "/masks").real
        mb = read_array(b + "/masks").real
        mc = read_array(c + "/masks").real
        assert np.array_equal(ma, mb)
        assert not np.array_equal(ma, mc)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "spinshuffle", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout
