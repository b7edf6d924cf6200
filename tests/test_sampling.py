import numpy as np
import pytest

from spinshuffle.encoding import fft2c, ifft2c
from spinshuffle.sampling import (DensityProfile, NonIdentifiableError,
                                  SparsityModel, assign_echoes, draw_mask,
                                  monte_carlo_mask, sampling_probability,
                                  sparsity_crb, tpsf_peak)
from spinshuffle.transforms import HaarTransform, IdentityTransform


@pytest.mark.parametrize("accel", [float("nan"), 0.5])
def test_density_profile_names_bad_accel(accel):
    # the accel < 1 check let NaN through, and a NaN accel drew masks
    with pytest.raises(ValueError, match="accel"):
        DensityProfile(accel=accel)


class TestDrawMask:
    def test_unit_acceleration_full_mask(self):
        mask = draw_mask(DensityProfile(accel=1.0), (16, 16), 0)
        assert mask.all()

    def test_deterministic_under_seed(self):
        prof = DensityProfile(accel=4.0)
        assert np.array_equal(draw_mask(prof, (32, 32), 9),
                              draw_mask(prof, (32, 32), 9))
        assert not np.array_equal(draw_mask(prof, (32, 32), 9),
                                  draw_mask(prof, (32, 32), 10))

    def test_expected_count_calibrated(self):
        prof = DensityProfile(accel=4.0)
        counts = [draw_mask(prof, (64, 64), s).sum() for s in range(10)]
        assert abs(np.mean(counts) - 1024) / 1024 < 0.02

    def test_center_disc_always_on(self):
        prof = DensityProfile(accel=8.0, fully_sampled_radius=0.1)
        mask = draw_mask(prof, (64, 64), 4)
        gx = (np.arange(64) - 32) / 32.0
        disc = np.hypot(gx[:, None], gx[None, :]) <= 0.1
        assert mask[disc].all()

    def test_gaussian_profile(self):
        prof = DensityProfile(shape="gaussian", sigma=0.25, accel=4.0)
        counts = [draw_mask(prof, (64, 64), s).sum() for s in range(10)]
        assert abs(np.mean(counts) - 1024) / 1024 < 0.02

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DensityProfile(accel=0.5)
        with pytest.raises(ValueError):
            DensityProfile(shape="poisson")
        with pytest.raises(ValueError):
            draw_mask(DensityProfile(accel=2.0), (2, 8), 0)


def _probability_200_steps(profile, dims):
    # the calibration with all 200 bisection steps and no early exit
    gx = (np.arange(dims[0]) - dims[0] // 2) / (dims[0] / 2)
    gy = (np.arange(dims[1]) - dims[1] // 2) / (dims[1] / 2)
    r = np.hypot(gx[:, None], gy[None, :])
    density = profile.density(r)
    disc = r <= profile.fully_sampled_radius
    target = dims[0] * dims[1] / profile.accel

    def clipped(scale):
        p = np.minimum(1.0, scale * density)
        p[disc] = 1.0
        return p

    lo, hi = 0.0, 1.0
    while clipped(hi).sum() < target:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if clipped(mid).sum() < target:
            lo = mid
        else:
            hi = mid
    return clipped(hi)


@pytest.mark.parametrize("accel", [2.0, 4.0, 8.0])
@pytest.mark.parametrize("shape", ["polynomial", "gaussian"])
def test_early_exit_calibration_equals_200_steps(shape, accel):
    prof = DensityProfile(shape=shape, accel=accel)
    assert np.array_equal(sampling_probability(prof, (64, 48)),
                          _probability_200_steps(prof, (64, 48)))


def _unit_columns(mask, transform, indices):
    # reference: one unit coefficient image at a time
    cols = []
    for j in indices:
        e = np.zeros(mask.size, complex)
        e[j] = 1.0
        img = transform.adjoint(e.reshape(mask.shape))
        cols.append(transform.forward(ifft2c(mask * fft2c(img))).ravel())
    return cols


BATCH_MODELS = [IdentityTransform(), HaarTransform(levels=2)]


class TestTpsf:
    def test_full_mask_no_interference(self):
        mask = np.ones((32, 32), bool)
        assert tpsf_peak(mask, SparsityModel(), probe_count=8, seed=0) < 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            tpsf_peak(np.zeros((16, 16), bool), SparsityModel())

    def test_uniform_grid_aliases_coherently(self):
        vd = draw_mask(DensityProfile(accel=4.0), (32, 32), 3)
        grid = np.zeros((32, 32), bool)
        grid[::2, ::2] = True
        model = SparsityModel()
        p_vd = tpsf_peak(vd, model, probe_count=16, seed=5)
        p_grid = tpsf_peak(grid, model, probe_count=16, seed=5)
        assert p_grid > p_vd
        assert abs(p_grid - 1.0) < 1e-10  # exact replicas

    def test_wavelet_domain_probes(self):
        mask = draw_mask(DensityProfile(accel=2.0), (16, 16), 1)
        model = SparsityModel(transform=HaarTransform(levels=2))
        peak = tpsf_peak(mask, model, probe_count=8, seed=2)
        assert 0 < peak < 1.0

    @pytest.mark.parametrize("transform", BATCH_MODELS,
                             ids=["identity", "haar2"])
    def test_batched_equals_per_probe_loop(self, transform):
        for dims, seed in [((16, 16), 1), ((32, 32), 2), ((32, 16), 3)]:
            mask = draw_mask(DensityProfile(accel=3.0), dims, seed)
            probes = np.random.default_rng(seed).choice(
                mask.size, size=24, replace=False)
            peak = 0.0
            for j, col in zip(probes, _unit_columns(mask, transform, probes)):
                col = np.abs(col / col[j])
                col[j] = 0.0
                peak = max(peak, float(col.max()))
            assert tpsf_peak(mask, SparsityModel(transform=transform),
                             probe_count=24, seed=seed) == peak


class TestMonteCarloMask:
    def test_single_trial_equals_draw(self):
        prof = DensityProfile(accel=4.0)
        res = monte_carlo_mask(prof, (32, 32), SparsityModel(), 1, seed=11,
                               probe_count=8)
        assert np.array_equal(res.mask, draw_mask(prof, (32, 32), 11))

    def test_returns_per_trial_minimum(self):
        prof = DensityProfile(accel=4.0)
        model = SparsityModel()
        res = monte_carlo_mask(prof, (32, 32), model, 8, seed=21,
                               probe_count=16)
        # recompute every trial independently
        peaks = [tpsf_peak(draw_mask(prof, (32, 32), 21 + t), model,
                           probe_count=16, seed=21) for t in range(8)]
        assert res.trial_peaks == tuple(peaks)
        assert res.peak == min(peaks)
        assert res.trial_index == int(np.argmin(peaks))
        assert res.peak <= np.median(peaks)

    def test_prefix_stable_and_monotone_in_trials(self):
        prof = DensityProfile(accel=4.0)
        model = SparsityModel()
        peaks = [monte_carlo_mask(prof, (32, 32), model, n, seed=31,
                                  probe_count=8).peak for n in (1, 2, 4, 8)]
        assert all(peaks[i + 1] <= peaks[i] for i in range(3))


class TestAssignEchoes:
    def test_single_echo_identity(self):
        mask = draw_mask(DensityProfile(accel=4.0), (16, 16), 2)
        out = assign_echoes(mask, 1, "randomized", 0)
        assert np.array_equal(out.masks[0], mask)

    @pytest.mark.parametrize("ordering", ["center-out", "randomized"])
    def test_partition_property(self, ordering):
        rng = np.random.default_rng(17)
        for trial in range(50):
            mask = rng.random((16, 16)) < rng.uniform(0.2, 0.8)
            if mask.sum() < 4:
                continue
            out = assign_echoes(mask, 4, ordering, seed=trial)
            assert np.array_equal(out.masks.any(axis=0), mask)
            assert (out.masks.sum(axis=0) <= 1).all()

    def test_center_out_radial_ordering(self):
        mask = draw_mask(DensityProfile(accel=2.0), (32, 32), 5)
        out = assign_echoes(mask, 8, "center-out", 0)
        ix, iy = np.where(out.masks[0])
        r_first = np.hypot(ix - 16, iy - 16).max()
        ix, iy = np.where(out.masks[-1])
        r_last = np.hypot(ix - 16, iy - 16).min()
        assert r_first <= r_last + 1e-9

    def test_too_few_samples(self):
        mask = np.zeros((8, 8), bool)
        mask[0, :3] = True
        with pytest.raises(ValueError):
            assign_echoes(mask, 4, "randomized", 0)

    def test_unknown_ordering(self):
        with pytest.raises(ValueError):
            assign_echoes(np.ones((8, 8), bool), 2, "spiral", 0)


class TestSparsityCrb:
    def test_full_mask_identity(self):
        support = (3, 17, 42, 100)
        val = sparsity_crb(np.ones((16, 16), bool), SparsityModel(support=support))
        assert abs(val - len(support)) < 1e-10

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        mask = draw_mask(DensityProfile(accel=2.0), (16, 16), 21)
        support = tuple(int(v) for v in rng.choice(256, 8, replace=False))
        val = sparsity_crb(mask, SparsityModel(support=support))
        # dense construction of G = U^H F^H M F U
        f = np.zeros((256, 256), complex)
        eye = np.eye(256)
        for j in range(256):
            f[:, j] = fft2c(eye[:, j].reshape(16, 16)).ravel()
        a = np.diag(mask.ravel().astype(float)) @ f
        u = np.zeros((256, 8))
        u[list(support), range(8)] = 1
        g = u.T @ (a.conj().T @ a) @ u
        oracle = float(np.trace(np.linalg.inv(g)).real)
        assert abs(val - oracle) < 1e-8

    def test_monotone_under_mask_growth(self):
        rng = np.random.default_rng(6)
        support = tuple(int(v) for v in rng.choice(256, 6, replace=False))
        model = SparsityModel(support=support)
        for trial in range(20):
            small = draw_mask(DensityProfile(accel=4.0), (16, 16), 100 + trial)
            grown = small | draw_mask(DensityProfile(accel=4.0), (16, 16),
                                      200 + trial)
            assert (sparsity_crb(grown, model)
                    <= sparsity_crb(small, model) + 1e-9)

    def test_aliased_support_not_identifiable(self):
        # sampling a single k-space row cannot separate two pixels that
        # differ only along the unresolved axis
        mask = np.zeros((16, 16), bool)
        mask[8, :] = True
        model = SparsityModel(support=(0, 16))  # pixels (0,0) and (1,0)
        with pytest.raises(NonIdentifiableError):
            sparsity_crb(mask, model)

    def test_support_larger_than_samples(self):
        mask = np.zeros((16, 16), bool)
        mask[8, 8] = True
        with pytest.raises(ValueError):
            sparsity_crb(mask, SparsityModel(support=(0, 1)))

    @pytest.mark.parametrize("transform", BATCH_MODELS,
                             ids=["identity", "haar2"])
    def test_batched_equals_per_probe_loop(self, transform):
        mask = draw_mask(DensityProfile(accel=2.0), (16, 16), 8)
        support = (0, 5, 37, 90, 255)
        g = np.stack(_unit_columns(mask, transform, support), axis=1)
        g = g[list(support), :]
        g = 0.5 * (g + g.conj().T)
        expected = float(np.trace(np.linalg.inv(g)).real)
        model = SparsityModel(transform=transform, support=support)
        assert sparsity_crb(mask, model) == expected

    @pytest.mark.parametrize("support", [(-1,), (255, -1), (256,)],
                             ids=["-1", "255,-1", "256"])
    def test_out_of_range_support_rejected(self, support):
        mask = np.ones((16, 16), bool)
        bad = next(j for j in support if not 0 <= j < 256)
        with pytest.raises(ValueError, match=f"support index {bad} "):
            sparsity_crb(mask, SparsityModel(support=support))

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError):
            SparsityModel(support=(1, 1))
