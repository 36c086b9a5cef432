import math

import numpy as np
import pytest

from turbfuse import datagen as dg
from turbfuse import turbsim as ts
from turbfuse.errors import ContractError, ShapeError


class TestInitParams:
    def test_doubling_length_scales_r0(self):
        p1 = ts.init_params(10_000, 64)
        p2 = ts.init_params(20_000, 64)
        np.testing.assert_allclose(p2.fried_r0 / p1.fried_r0, 2 ** (-3 / 5), rtol=1e-12)

    def test_r0_strictly_decreasing_over_levels(self):
        r0s = [ts.init_params(L, 64).fried_r0 for L in ts.INTENSITY_LEVELS]
        assert all(a > b for a, b in zip(r0s, r0s[1:]))

    def test_zero_cn2_limit(self):
        p = ts.init_params(10_000, 64, {"cn2": 0.0})
        assert math.isinf(p.fried_r0)
        assert p.d_over_r0 == 0.0

    def test_default_calibration(self):
        # default cn2 puts D/r0 at ~2 for the 10k level
        p = ts.init_params(10_000, 64)
        assert abs(p.d_over_r0 - 2.0) < 0.01

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            ts.init_params(0, 64)
        with pytest.raises(ContractError):
            ts.init_params(10_000, -3)
        with pytest.raises(ContractError):
            ts.init_params(10_000, 64, {"n_zernike": 2})
        with pytest.raises(ContractError):
            ts.init_params(10_000, 64, {"bogus": 1})
        with pytest.raises(ContractError):
            ts.init_params(10_000, 64, {"pixel_pitch_m": 0.0})
        with pytest.raises(ContractError, match="cn2 nonnegative"):
            ts.init_params(10_000, 64, {"cn2": -1e-16})
        # r0 follows from the length, wavelength and cn2; nothing sets it
        with pytest.raises(ContractError, match="unknown turbulence overrides"):
            ts.init_params(10_000, 64, {"fried_r0": 1.0})


class TestTiltField:
    def test_deterministic(self):
        p = ts.init_params(20_000, 32)
        a = ts.tilt_field(p, 7)
        b = ts.tilt_field(p, 7)
        np.testing.assert_array_equal(a.dx, b.dx)
        np.testing.assert_array_equal(a.dy, b.dy)
        c = ts.tilt_field(p, 8)
        assert np.abs(a.dx - c.dx).max() > 0

    def test_zero_mean(self):
        p = ts.init_params(20_000, 32)
        t = ts.tilt_field(p, 1)
        assert abs(t.dx.mean()) < 1e-10 and abs(t.dy.mean()) < 1e-10

    def test_rms_grows_with_intensity(self):
        p_lo = ts.init_params(10_000, 32)
        p_hi = ts.init_params(40_000, 32)
        rms = lambda p, s: np.sqrt((ts.tilt_field(p, s).dx ** 2).mean())
        lo = np.mean([rms(p_lo, s) for s in range(50)])
        hi = np.mean([rms(p_hi, s) for s in range(50)])
        assert hi > lo

    def test_rms_matches_noll_tilt_variance(self):
        # per-axis angle-of-arrival RMS 0.4265*(lambda/D)*(D/r0)^(5/6) rad
        # (Noll mode-2 variance), projected to the object plane in pixels
        p = ts.init_params(20_000, 32)
        theta = 0.4265 * (p.wavelength / p.aperture_diameter) * p.d_over_r0 ** (5 / 6)
        expect = theta * p.intensity_meters / p.pixel_pitch_m
        np.testing.assert_allclose(p.tilt_rms_px, expect, rtol=1e-3)
        # RMS over 200 fields: per-field mean squares spread ~40%, so the
        # pooled RMS has ~1.5% standard error; 6% is four sigma
        ms = [(ts.tilt_field(p, s).dx ** 2).mean() for s in range(200)]
        np.testing.assert_allclose(np.sqrt(np.mean(ms)), expect, rtol=0.06)

    def test_spatial_autocorrelation_decays(self):
        p = ts.init_params(30_000, 32)
        # Monte-Carlo autocorrelation at lags 1 and 8 across seeds
        c1, c8 = [], []
        for s in range(50):
            dx = ts.tilt_field(p, s).dx
            dx = dx - dx.mean()
            var = (dx * dx).mean()
            c1.append((dx[:, :-1] * dx[:, 1:]).mean() / var)
            c8.append((dx[:, :-8] * dx[:, 8:]).mean() / var)
        assert np.mean(c1) > 0.5  # correlated, not white
        assert np.mean(c1) > np.mean(c8)


    @pytest.mark.parametrize("field, value", [("pixel_pitch_m", 0.1), ("outer_scale_m", 5.0)])
    def test_spectrum_cache_is_keyed_by_every_parameter_it_reads(self, field, value):
        # normalized by the target RMS, a field differs only through the spectrum
        p = ts.init_params(20_000, 32)
        q = ts.init_params(20_000, 32, {field: value})
        a, b = ts.tilt_field(p, 3), ts.tilt_field(q, 3)
        assert np.abs(a.dx / p.tilt_rms_px - b.dx / q.tilt_rms_px).max() > 1e-3
        ts._tilt_spectrum.cache_clear()
        fresh = ts.tilt_field(q, 3)
        assert fresh.dx.tobytes() == b.dx.tobytes() and fresh.dy.tobytes() == b.dy.tobytes()

    def test_cached_spectrum_is_read_only(self):
        amp, _ = ts._tilt_spectrum(32, 0.05, 10.0)
        with pytest.raises(ValueError):
            amp[0, 1] = 1.0


class TestApplyTilt:
    def test_zero_field_identity(self):
        rng = np.random.default_rng(0)
        img = rng.random((16, 16))
        t = ts.TiltField(np.zeros((16, 16)), np.zeros((16, 16)))
        np.testing.assert_array_equal(ts.apply_tilt(img, t), img)

    def test_integer_shift_translates(self):
        rng = np.random.default_rng(1)
        img = rng.random((8, 8))
        t = ts.TiltField(np.ones((8, 8)), np.zeros((8, 8)))
        out = ts.apply_tilt(img, t)
        np.testing.assert_allclose(out[:, :-1], img[:, 1:], rtol=1e-12)
        np.testing.assert_allclose(out[:, -1], img[:, -1], rtol=1e-12)  # edge clamp

    def test_half_pixel_shift_averages_neighbors(self):
        rng = np.random.default_rng(2)
        img = rng.random((8, 8))
        t = ts.TiltField(np.full((8, 8), 0.5), np.zeros((8, 8)))
        out = ts.apply_tilt(img, t)
        expect = 0.5 * (img[:, :-1] + img[:, 1:])
        np.testing.assert_allclose(out[:, :-1], expect, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ts.apply_tilt(np.zeros((4, 4)), ts.TiltField(np.zeros((5, 5)), np.zeros((5, 5))))


class TestNoll:
    def test_noll_index_table(self):
        # classic table, negative m = sine term
        expect = {1: (0, 0), 2: (1, 1), 3: (1, -1), 4: (2, 0), 5: (2, -2), 6: (2, 2),
                  7: (3, -1), 8: (3, 1), 9: (3, -3), 10: (3, 3), 11: (4, 0),
                  12: (4, 2), 13: (4, -2), 14: (4, 4), 15: (4, -4)}
        for j, nm in expect.items():
            assert ts.noll_to_nm(j) == nm

    def test_covariance_diagonal_matches_classic_values(self):
        # Noll residual-variance increments at D/r0 = 1: modes 4-6 ~ 0.0232,
        # modes 7-10 ~ 0.0062, mode 11 ~ 0.0024
        cov, _ = ts._unit_covariance(8)
        diag = np.diag(cov)
        np.testing.assert_allclose(diag[0:3], 0.0232, rtol=0.02)
        np.testing.assert_allclose(diag[3:7], 0.0062, rtol=0.05)
        np.testing.assert_allclose(diag[7], 0.0024, rtol=0.05)

    def test_covariance_entries_match_scipy_gamma(self, monkeypatch):
        # every entry of the 33-mode covariance, against the same formula on scipy.special.gamma
        from scipy.special import gamma

        nm = [ts.noll_to_nm(j) for j in range(4, 4 + 33)]
        got = [ts._noll_cov_entry(*a, *b) for a in nm for b in nm]
        calls = []
        monkeypatch.setattr(math, "gamma", lambda x: calls.append(x) or gamma(x))
        expect = [ts._noll_cov_entry(*a, *b) for a in nm for b in nm]
        assert calls  # the reference really ran on scipy's gamma
        np.testing.assert_allclose(got, expect, rtol=1e-15, atol=0)

    def test_covariance_scales_with_d_over_r0(self):
        p1 = ts.init_params(10_000, 64)
        p2 = ts.init_params(40_000, 64)
        c1 = ts.zernike_covariance(p1)
        c2 = ts.zernike_covariance(p2)
        ratio = (p2.d_over_r0 / p1.d_over_r0) ** (5 / 3)
        np.testing.assert_allclose(c2, c1 * ratio, rtol=1e-10)

    def test_sampled_variances_match_configured_covariance(self):
        p = ts.init_params(20_000, 64, {"n_zernike": 12})
        cov = ts.zernike_covariance(p)
        draws = ts.sample_zernike_coeffs(p, seed=3, n=20_000)
        emp = draws.var(axis=0)
        np.testing.assert_allclose(emp, np.diag(cov), rtol=0.05)


class TestPsf:
    def test_diffraction_limited_symmetric(self):
        p = ts.init_params(10_000, 64)
        kern = ts.zernike_psf(p, coeffs=np.zeros(p.n_zernike))
        assert abs(kern.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(kern, kern[::-1, ::-1], atol=1e-6)

    def test_random_kernels_unit_sum_nonnegative(self):
        p = ts.init_params(40_000, 64)
        for seed in range(10):
            kern = ts.zernike_psf(p, seed=seed)
            assert kern.min() >= 0
            assert abs(kern.sum() - 1.0) < 1e-6

    def test_wrong_coeff_count_rejected(self):
        p = ts.init_params(10_000, 64)
        with pytest.raises(ContractError):
            ts.zernike_psf(p, coeffs=np.zeros(2))


class TestBlur:
    @pytest.mark.parametrize("n", [16, 17, 64])
    @pytest.mark.parametrize("k", [1, 3, 7, 23])
    def test_equals_nearest_mode_direct_convolution(self, n, k):
        # k=23 on a 16-px image pads by more than the image: the TINY CLI config
        from scipy.ndimage import convolve

        rng = np.random.default_rng(100 * n + k)
        img = rng.random((n, n))
        kern = rng.random((k, k))
        kern /= kern.sum()
        np.testing.assert_allclose(ts.blur(img, kern), convolve(img, kern, mode="nearest"), rtol=0, atol=1e-12)

    def test_fft_lengths_are_smooth_and_minimal(self):
        assert [ts._fft_len(n) for n in (1, 7, 11, 38, 86, 90, 97)] == [1, 8, 12, 40, 90, 90, 100]


class TestDegrade:
    def test_deterministic(self):
        rng = np.random.default_rng(4)
        img = rng.random((32, 32))
        p = ts.init_params(20_000, 32)
        a = ts.degrade(img, p, 11)
        b = ts.degrade(img, p, 11)
        np.testing.assert_array_equal(a, b)
        c = ts.degrade(img, p, 12)
        assert np.abs(a - c).max() > 0

    def test_zero_turbulence_is_pure_diffraction_blur(self):
        rng = np.random.default_rng(5)
        img = rng.random((32, 32))
        p = ts.init_params(10_000, 32, {"cn2": 0.0})
        out = ts.degrade(img, p, 0)
        from scipy.ndimage import convolve

        kern = ts.zernike_psf(p, coeffs=np.zeros(p.n_zernike))
        expect = np.clip(convolve(img, kern, mode="nearest"), img.min(), img.max())
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_mse_monotone_in_intensity(self):
        rng = np.random.default_rng(6)
        imgs = rng.random((12, 32, 32))
        mses = []
        for L in ts.INTENSITY_LEVELS:
            p = ts.init_params(L, 32)
            errs = [
                ((ts.degrade(img, p, 100 * i + s) - img) ** 2).mean()
                for i, img in enumerate(imgs)
                for s in range(2)
            ]
            mses.append(np.mean(errs))
        assert all(a < b for a, b in zip(mses, mses[1:])), mses

    def test_faces_mse_monotone_in_intensity(self):
        specs = [dg.IdentitySpec(i, dg.identity_latent(i, 0)) for i in range(6)]
        imgs = [dg.render(spec, 10 * spec.id + j, 64) for spec in specs for j in range(2)]
        mses = []
        for L in ts.INTENSITY_LEVELS:
            p = ts.init_params(L, 64)
            errs = [
                ((ts.degrade(img, p, 100 * i + s) - img) ** 2).mean()
                for i, img in enumerate(imgs)
                for s in range(2)
            ]
            mses.append(np.mean(errs))
        assert all(a < b for a, b in zip(mses, mses[1:])), mses

    def test_output_stays_in_input_range(self):
        rng = np.random.default_rng(7)
        img = rng.random((32, 32)) * 0.8 + 0.1
        p = ts.init_params(40_000, 32)
        out = ts.degrade(img, p, 3)
        assert out.min() >= img.min() - 1e-12 and out.max() <= img.max() + 1e-12

    @pytest.mark.parametrize("seed", [11, np.random.SeedSequence([9, 20_000, 3])], ids=["int", "seed_sequence"])
    def test_degradation_psf_is_the_kernel_degrade_blurs_with(self, seed, monkeypatch):
        # the same seed object goes to both calls, so neither may consume it
        p = ts.init_params(20_000, 32)
        real = ts.blur
        kernels = []

        def recording(image, kernel, **kw):
            kernels.append(kernel)
            return real(image, kernel, **kw)

        monkeypatch.setattr(ts, "blur", recording)
        ts.degrade(np.random.default_rng(8).random((32, 32)), p, seed)
        assert kernels[0].tobytes() == ts.degradation_psf(p, seed).tobytes()
        assert ts.degradation_psf(p, seed).tobytes() != ts.degradation_psf(p, 12).tobytes()
