import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spinshuffle.arrayio import read_array
from spinshuffle import pipeline, spinsim
from spinshuffle.config import _SECTIONS, PipelineConfig, load_config
from spinshuffle.pipeline import (PipelineError, build_masks,
                                  prior_from_config, profile_from_config,
                                  run_pipeline, sequence_from_config)
from spinshuffle.qmap import FitMaps
from spinshuffle.sampling import draw_mask
from spinshuffle.subspace import build_ensemble, compute_basis, sample_prior

SMALL = dict(nx=32, ny=32, n_echoes=8, ensemble_size=64, subspace_k=2,
             max_iters=40, accel=3.0)


# The arrays run_pipeline writes, one per output of its stages.
PIPELINE_ARRAYS = ("labels", "rho_true", "t2_true", "basis",
                   "singular_values", "masks", "truth_images", "kspace",
                   "coefficients", "images", "t2_map", "rho_map")


# (key, bad value, stage that fails, pattern its message holds), one or more
# rows per key of the config file but `assign_seed`, which no stage reads
INVALID_VALUES = [
    ("fit_t1_nominal_ms", -1.0, "fit", "t1_ms"),
    ("noise_sigma", float("nan"), "simulate", "sigma"),
    ("excitation_deg", float("nan"), "basis", "excitation_deg"),
    ("max_iters", 0, "reconstruct", "max_iters"),
    ("tolerance", float("nan"), "reconstruct", "tolerance"),
    ("accel", float("nan"), "masks", "accel"),
    ("decay_power", -3.0, "masks", "decay_power"),
    ("decay_power", float("nan"), "masks", "decay_power"),
    ("fully_sampled_radius", float("nan"), "masks", "fully_sampled_radius"),
    ("fully_sampled_radius", -1.0, "masks", "fully_sampled_radius"),
    ("profile_sigma", float("nan"), "masks", "sigma"),
    ("profile_sigma", 0.0, "masks", "sigma"),
    ("echo_spacing_ms", float("inf"), "basis", "echo_spacing_ms"),
    ("lam", float("inf"), "reconstruct", "lam"),
    ("accel", float("inf"), "masks", "accel"),
    ("t1_max_ms", float("inf"), "basis", "t1_range_ms"),
    ("t2_max_ms", float("inf"), "basis", "t2_range_ms"),
    ("t1_min_ms", float("nan"), "basis", "t1_range_ms"),
    ("excitation_phase_deg", float("nan"), "basis", "excitation_phase_deg"),
    ("flips_deg", (180.0,) * 7 + (float("nan"),), "basis", "flips_deg"),
    ("nx", 0, "phantom", "dims"),
    ("tolerance", float("inf"), "reconstruct", "tolerance"),
    ("accel", 1e9, "masks", "accel"),
    ("ny", 0, "phantom", "dims"),
    ("n_echoes", 0, "basis", "refocusing pulse"),
    ("t2_min_ms", 0.0, "basis", "t2_range_ms"),
    ("prior_sampling", "bogus", "basis", "sampling mode 'bogus'"),
    ("prior_seed", -1, "basis", "non-negative integer"),
    ("ensemble_size", 0, "basis", "at least one draw"),
    ("subspace_k", 0, "basis", "k=0"),
    ("profile_shape", "bogus", "masks", "profile shape 'bogus'"),
    ("ordering", "bogus", "masks", "ordering 'bogus'"),
    ("mask_seed", -1, "masks", "non-negative integer"),
    ("noise_seed", -1, "simulate", "non-negative integer"),
    ("solver", "bogus", "reconstruct", "solver 'bogus'"),
    ("fit_method", "bogus", "fit", "fit method 'bogus'"),
    ("fit_t2_min_ms", 0.0, "fit", "T2 bounds"),
    ("fit_t2_max_ms", 1.0, "fit", "T2 bounds"),
    ("output_dir", "file/out", "write", "file/out")]


def small_config(tmp_path, **kw):
    args = dict(SMALL, output_dir=str(tmp_path))
    args.update(kw)
    return PipelineConfig(**args)


class TestRunPipeline:
    def test_outputs_written(self, tmp_path):
        cfg = small_config(tmp_path)
        report = run_pipeline(cfg)
        for name in ("labels", "truth_images", "basis", "masks", "kspace",
                     "coefficients", "images", "t2_map", "rho_map",
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
        for name in ("basis", "singular_values", "t2_map"):
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

    @pytest.mark.parametrize("field, value, stage, named", INVALID_VALUES)
    def test_invalid_value_fails_at_its_stage(self, tmp_path, field, value,
                                              stage, named):
        # t1 -1 finished with region means near 8.5 ms; a NaN sigma and
        # max_iters 0 failed only at 'metrics', a NaN excitation at 'basis'
        # without naming it; a NaN tolerance or accel finished. Decay power
        # -3, a NaN or negative radius and a NaN or zero profile sigma
        # finished; a NaN decay power failed at 'masks' without naming it and
        # an infinite echo spacing at 'fit' with a ZeroDivisionError. An
        # infinite lam failed at 'metrics' and an infinite accel finished; an
        # infinite T1 or T2 maximum failed at 'basis' with an OverflowError
        # and a NaN T1 minimum there without naming the range. A zero nx
        # failed at 'phantom' naming neither dimension. An infinite tolerance
        # stopped FISTA after one iteration; an accel of 1e9 kept only the
        # fully sampled centre and finished. A directory under a regular
        # file cannot be made even by root; it failed before any stage
        if field == "output_dir":
            (tmp_path / "file").touch()
            value = str(tmp_path / value)
        cfg = small_config(tmp_path, **{field: value})
        with pytest.raises(PipelineError, match=named) as info:
            run_pipeline(cfg)
        assert info.value.stage == stage

    def test_every_config_key_has_an_invalid_value_row(self):
        keys = {key for names in _SECTIONS.values() for key in names}
        assert {row[0] for row in INVALID_VALUES} == keys - {"assign_seed"}

    @pytest.mark.parametrize("ordering", ["randomized", "center-out"])
    def test_assign_seed_changes_no_mask(self, ordering):
        # randomized masks draw from mask_seed and center-out ignores the
        # seed, so no value of assign_seed can fail or change a result
        cfg = PipelineConfig(ordering=ordering)
        assert np.array_equal(build_masks(cfg).masks,
                              build_masks(replace(cfg, assign_seed=-1)).masks)

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


class TestBasisStage:
    # 65536 tissues are 16 polynomial blocks, 2 * 4096 + 77 end in a partial
    # block, and 40 <= 2T + 1 take the engine whole
    @pytest.mark.parametrize("size", [65536, 2 * 4096 + 77, 40])
    def test_equals_build_ensemble_and_compute_basis(self, size):
        cfg = PipelineConfig(ensemble_size=size)
        arrays = pipeline._basis(cfg, {})
        ensemble = build_ensemble(sample_prior(prior_from_config(cfg), size),
                                  sequence_from_config(cfg))
        basis = compute_basis(ensemble, cfg.subspace_k)
        assert sorted(arrays) == ["basis", "singular_values"]
        assert np.array_equal(arrays["basis"], basis.phi_k)
        assert np.array_equal(arrays["singular_values"],
                              basis.singular_values)

    @pytest.mark.parametrize("size", [65536, 40])
    def test_real_path_matches_complex_path(self, monkeypatch, size):
        # Tolerances fixed before any timing: the CPMG-phased default
        # sequence's float64 path against the same stage with every pulse
        # phase turned by 45 deg and complex states forced. That turns each
        # echo by e^(i pi/4) (within 1e-14, some 50 float64 ulps of a unit
        # echo, in `_shared_pulse_ensemble` itself) and leaves the
        # phase-fixed basis (within 1e-12) and the singular values (within
        # 1e-13 sigma_1) as they are
        cfg = PipelineConfig(ensemble_size=size)
        t1, t2 = sample_prior(prior_from_config(cfg), size)
        seq = sequence_from_config(cfg)
        real = pipeline._basis(cfg, {})
        real_ensemble = spinsim._shared_pulse_ensemble(t1, t2, seq)
        turned = replace(seq, excitation_phase_deg=seq.excitation_phase_deg
                         + 45.0, flip_phases_deg=tuple(
                             p + 45.0 for p in seq.flip_phases_deg))
        frames = spinsim._frames

        def complex_frames(seq):
            *rest, excite = frames(seq)
            return (*rest, complex(excite))

        monkeypatch.setattr(pipeline, "sequence_from_config",
                            lambda cfg: turned)
        monkeypatch.setattr(spinsim, "_frames", complex_frames)
        spinsim._chebyshev_bank.cache_clear()
        try:
            reference = pipeline._basis(cfg, {})
            ensemble = spinsim._shared_pulse_ensemble(t1, t2, turned)
        finally:
            spinsim._chebyshev_bank.cache_clear()
        assert not np.any(real_ensemble.imag)
        assert np.max(np.abs(ensemble - np.exp(0.25j * np.pi)
                             * real_ensemble)) <= 1e-14
        assert np.max(np.abs(real["basis"] - reference["basis"])) <= 1e-12
        s = reference["singular_values"]
        assert np.max(np.abs(real["singular_values"] - s)) <= 1e-13 * s[0]

    def test_traced_basis_peak_holds_no_ensemble(self):
        # 4096-column blocks go straight into the QR tail: 8.9-9.6 MB at
        # 65536 tissues, where keeping a complex64 copy of the (32, 65536)
        # ensemble peaked at 25.7 MB
        cfg = PipelineConfig(ensemble_size=65536)
        tracemalloc.start()
        try:
            pipeline._basis(cfg, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


def test_randomized_masks_equal_per_echo_draws():
    # one calibration shared by all echoes gives the per-echo draws exactly
    cfg = PipelineConfig()
    profile = profile_from_config(cfg)
    expected = np.stack([draw_mask(profile, (cfg.nx, cfg.ny),
                                   cfg.mask_seed + i)
                         for i in range(cfg.n_echoes)])
    assert np.array_equal(build_masks(cfg).masks, expected)
