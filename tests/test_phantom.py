import numpy as np
import pytest

from spinshuffle.encoding import Encoder, SamplingMasks, ifft2c
from spinshuffle.phantom import (EllipseSpec, add_noise, contrast_images,
                                 default_phantom, make_phantom,
                                 simulate_acquisition)
from spinshuffle.spinsim import TissueParams, constant_train, simulate_fse


class TestMakePhantom:
    def test_empty_scene_is_background(self):
        ph = make_phantom((16, 16), [], {})
        assert np.all(ph.labels == 0)
        assert np.all(ph.rho_map() == 0)

    def test_disc_area_close_to_analytic(self):
        r = 20.0
        ph = make_phantom((64, 64),
                          [EllipseSpec((32.0, 32.0), (r, r), 0.0, 1)],
                          {1: TissueParams()})
        count = int((ph.labels == 1).sum())
        assert abs(count - np.pi * r * r) / (np.pi * r * r) < 0.03

    def test_later_primitives_overwrite(self):
        ellipses = [EllipseSpec((8.0, 8.0), (6.0, 6.0), 0.0, 1),
                    EllipseSpec((8.0, 8.0), (3.0, 3.0), 0.0, 2)]
        ph = make_phantom((16, 16),
                          ellipses,
                          {1: TissueParams(), 2: TissueParams(t2=50.0)})
        assert ph.labels[8, 8] == 2
        assert ph.labels[8, 2] == 1

    def test_out_of_range_center_rejected(self):
        with pytest.raises(ValueError):
            make_phantom((16, 16),
                         [EllipseSpec((20.0, 8.0), (2.0, 2.0), 0.0, 1)],
                         {1: TissueParams()})

    def test_missing_region_params_rejected(self):
        with pytest.raises(ValueError):
            make_phantom((16, 16),
                         [EllipseSpec((8.0, 8.0), (2.0, 2.0), 0.0, 1)], {})

    def test_default_scene(self):
        ph = default_phantom((64, 64))
        assert ph.region_ids == (1, 2, 3, 4)
        assert sorted(t.t2 for t in ph.regions.values()) == [40.0, 60.0,
                                                             100.0, 200.0]


class TestContrastImages:
    def test_region_broadcast_matches_voxel_simulation(self):
        seq = constant_train(6, 150.0, 10.0)
        ph = default_phantom((32, 32))
        images = contrast_images(ph, seq)
        for rid in ph.region_ids:
            tissue = ph.regions[rid]
            expected = simulate_fse(tissue, seq)
            sel = ph.labels == rid
            column = images[:, sel][:, 0]
            assert np.max(np.abs(column - expected)) < 1e-14
        assert np.all(images[:, ph.labels == 0] == 0)


class TestSimulateAcquisition:
    seq = constant_train(4, 180.0, 10.0)

    def test_noiseless_full_sampling_inverts(self):
        ph = default_phantom((32, 32))
        masks = SamplingMasks(np.ones((4, 32, 32), bool))
        images = contrast_images(ph, self.seq)
        y = simulate_acquisition(images, masks, sigma=0.0, seed=0)
        k = y.reshape(4, 32, 32)
        for i in range(4):
            back = ifft2c(k[i])
            assert np.max(np.abs(back - images[i])) < 1e-12

    def test_same_seed_identical_noise(self):
        ph = default_phantom((16, 16))
        masks = SamplingMasks(np.ones((4, 16, 16), bool))
        images = contrast_images(ph, self.seq)
        a = simulate_acquisition(images, masks, sigma=0.01, seed=5)
        b = simulate_acquisition(images, masks, sigma=0.01, seed=5)
        assert np.array_equal(a, b)
        c = simulate_acquisition(images, masks, sigma=0.01, seed=6)
        assert not np.array_equal(a, c)

    def test_noise_variance_calibrated(self):
        rng_y = np.zeros(100_000, complex)
        noisy = add_noise(rng_y, 0.5, seed=3)
        var = np.mean(np.abs(noisy) ** 2)
        assert abs(var - 0.25) / 0.25 < 0.02

    def test_mask_echo_count_checked(self):
        ph = default_phantom((16, 16))
        masks = SamplingMasks(np.ones((3, 16, 16), bool))
        with pytest.raises(ValueError):
            simulate_acquisition(contrast_images(ph, self.seq), masks, 0.0, 0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(4, complex), -0.1, 0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        # NaN or inf sigma returned NaN or inf samples
        with pytest.raises(ValueError, match="sigma"):
            add_noise(np.zeros(4, complex), sigma, 0)
