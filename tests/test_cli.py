import logging
import subprocess
import sys

import numpy as np
import pytest

from spinshuffle.arrayio import read_array
from spinshuffle.cli import main
from spinshuffle.config import PipelineConfig, save_config

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
        from spinshuffle.seqopt import read_schedule_csv
        flips = read_schedule_csv(out + "/flips_optimized.csv")
        assert flips.shape == (8,)
        assert "converged=True (tolerance after" in caplog.text

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
