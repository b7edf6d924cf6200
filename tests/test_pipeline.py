import os

import numpy as np
import pytest

from spinshuffle.arrayio import read_array
from spinshuffle import pipeline
from spinshuffle.config import PipelineConfig, load_config
from spinshuffle.pipeline import (PipelineError, build_masks,
                                  profile_from_config, run_pipeline)
from spinshuffle.qmap import FitMaps
from spinshuffle.sampling import draw_mask

SMALL = dict(nx=32, ny=32, n_echoes=8, ensemble_size=64, subspace_k=2,
             max_iters=40, accel=3.0)


# The arrays run_pipeline writes, one per output of its stages.
PIPELINE_ARRAYS = ("labels", "rho_true", "t2_true", "ensemble", "basis",
                   "singular_values", "masks", "truth_images", "kspace",
                   "coefficients", "images", "t2_map", "rho_map")


def small_config(tmp_path, **kw):
    args = dict(SMALL)
    args.update(kw)
    return PipelineConfig(output_dir=str(tmp_path), **args)


class TestRunPipeline:
    def test_outputs_written(self, tmp_path):
        cfg = small_config(tmp_path)
        report = run_pipeline(cfg)
        for name in ("labels", "truth_images", "ensemble", "basis", "masks",
                     "kspace", "coefficients", "images", "t2_map", "rho_map",
                     "singular_values"):
            assert (tmp_path / f"{name}.hdr").exists()
            assert (tmp_path / f"{name}.dat").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "objective_trace.csv").exists()
        assert load_config(str(tmp_path / "resolved_config.ini")) == cfg
        assert report.image_nrmse < 0.5

    def test_bit_identical_rerun(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_pipeline(small_config(out_a))
        run_pipeline(small_config(out_b))
        # every array of the stage table, and nothing else, is written
        assert sorted(p.name for p in out_a.iterdir()) == sorted(
            [f"{name}.{ext}" for name in PIPELINE_ARRAYS
             for ext in ("hdr", "dat")]
            + ["metrics.csv", "objective_trace.csv", "resolved_config.ini"])
        for name in PIPELINE_ARRAYS:
            raw_a = (out_a / f"{name}.dat").read_bytes()
            raw_b = (out_b / f"{name}.dat").read_bytes()
            assert raw_a == raw_b, name

    def test_large_prior_rerun_bit_identical(self, tmp_path):
        # a 65536-tissue basis is factored in blocks and its dictionary fit
        # scored in blocks; neither may make a rerun differ
        cfg = dict(solver="cg", ensemble_size=65536, fit_method="dictionary")
        run_pipeline(PipelineConfig(output_dir=str(tmp_path / "a"), **cfg))
        run_pipeline(PipelineConfig(output_dir=str(tmp_path / "b"), **cfg))
        for name in ("ensemble", "basis", "singular_values", "t2_map"):
            raw_a = (tmp_path / "a" / f"{name}.dat").read_bytes()
            raw_b = (tmp_path / "b" / f"{name}.dat").read_bytes()
            assert raw_a == raw_b, name

    def test_noiseless_fully_sampled_full_basis_identity(self, tmp_path):
        # consistency chain: accel 1, K = T, no noise, plain least squares
        cfg = small_config(tmp_path, accel=1.0, subspace_k=8,
                           noise_sigma=0.0, solver="cg", lam=0.0,
                           max_iters=10, tolerance=1e-12)
        report = run_pipeline(cfg)
        assert report.image_nrmse < 1e-6
        for rid, t2_true, mean, bias, std in report.region_stats:
            assert abs(bias) < 0.1

    def test_center_out_mode_runs(self, tmp_path):
        cfg = small_config(tmp_path, ordering="center-out", accel=2.0)
        report = run_pipeline(cfg)
        masks = read_array(str(tmp_path / "masks")).real > 0.5
        # single-pass ordering: every location acquired at most once
        assert masks.sum(axis=0).max() <= 1
        assert np.isfinite(report.image_nrmse)

    def test_stage_failure_reports_stage(self, tmp_path):
        cfg = small_config(tmp_path, solver="does-not-exist")
        with pytest.raises(PipelineError, match="reconstruct"):
            run_pipeline(cfg)

    @pytest.mark.parametrize("bounds", [(0.0, 2000.0), (2000.0, 5.0)])
    def test_invalid_fit_bounds_report_fit_stage(self, tmp_path, bounds):
        # zero gave all-NaN maps caught only at 'metrics'; reversed bounds
        # finished with region means of 670-1557 ms
        lo, hi = bounds
        cfg = small_config(tmp_path, fit_t2_min_ms=lo, fit_t2_max_ms=hi)
        with pytest.raises(PipelineError, match="T2 bounds") as info:
            run_pipeline(cfg)
        assert info.value.stage == "fit"

    def test_all_failed_region_reports_metrics_stage(self, tmp_path,
                                                     monkeypatch):
        def all_failed(stack, *args, **kwargs):
            shape = stack.shape[1:]
            return FitMaps(rho=np.zeros(shape, complex),
                           t2=np.full(shape, np.nan),
                           residual=np.zeros(shape),
                           failed=np.ones(shape, bool))

        monkeypatch.setattr(pipeline, "fit_map", all_failed)
        cfg = PipelineConfig(nx=16, ny=16, n_echoes=4, ensemble_size=32,
                             subspace_k=2, max_iters=20, accel=2.0,
                             output_dir=str(tmp_path))
        with pytest.raises(PipelineError, match="region 1") as info:
            run_pipeline(cfg)
        assert info.value.stage == "metrics"

    def test_mask_echo_layout(self, tmp_path):
        cfg = small_config(tmp_path)
        run_pipeline(cfg)
        masks = read_array(str(tmp_path / "masks"))
        assert masks.shape == (cfg.n_echoes, cfg.nx, cfg.ny)


def test_randomized_masks_equal_per_echo_draws():
    # one calibration shared by all echoes gives the per-echo draws exactly
    cfg = PipelineConfig()
    profile = profile_from_config(cfg)
    expected = np.stack([draw_mask(profile, (cfg.nx, cfg.ny),
                                   cfg.mask_seed + i)
                         for i in range(cfg.n_echoes)])
    assert np.array_equal(build_masks(cfg).masks, expected)
