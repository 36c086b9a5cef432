import numpy as np
import pytest

from turbfuse import restore as rs
from turbfuse import turbsim as ts
from turbfuse.errors import ContractError
from turbfuse.restore import RestoreConfig, restore


@pytest.fixture
def images():
    rng = np.random.default_rng(0)
    clean = rng.random((32, 32)) * 0.8 + 0.1
    p = ts.init_params(20_000, 32)
    degraded = ts.degrade(clean, p, 5)
    return clean, degraded, p


class TestOracleBlend:
    def test_cached_artifact_basis_is_read_only_and_rebuilds_the_same(self, images):
        clean, degraded, _ = images
        cfg = RestoreConfig(mode="oracle_blend", artifact_sigma=0.3)
        first = restore(degraded, cfg, clean=clean, seed=4)
        with pytest.raises(ValueError):
            rs._artifact_basis((32, 32), cfg.artifact_smooth_px)[0, 0, 0] = 1.0
        rs._artifact_basis.cache_clear()
        assert restore(degraded, cfg, clean=clean, seed=4).tobytes() == first.tobytes()

    def test_w0_returns_clean(self, images):
        clean, degraded, _ = images
        cfg = RestoreConfig(mode="oracle_blend", fidelity_w=0.0, artifact_sigma=0.0)
        np.testing.assert_allclose(restore(degraded, cfg, clean=clean), clean, atol=1e-12)

    def test_w1_returns_degraded(self, images):
        clean, degraded, _ = images
        cfg = RestoreConfig(mode="oracle_blend", fidelity_w=1.0, artifact_sigma=0.0)
        np.testing.assert_allclose(restore(degraded, cfg, clean=clean), degraded, atol=1e-12)

    def test_mse_monotone_in_w(self, images):
        clean, degraded, _ = images
        mses = []
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = RestoreConfig(mode="oracle_blend", fidelity_w=w, artifact_sigma=0.0)
            out = restore(degraded, cfg, clean=clean)
            mses.append(((out - clean) ** 2).mean())
        assert all(a <= b + 1e-15 for a, b in zip(mses, mses[1:]))

    def test_artifacts_deterministic_and_bounded(self, images):
        clean, degraded, _ = images
        cfg = RestoreConfig(mode="oracle_blend", fidelity_w=0.5, artifact_sigma=0.1)
        a = restore(degraded, cfg, clean=clean, seed=3)
        b = restore(degraded, cfg, clean=clean, seed=3)
        np.testing.assert_array_equal(a, b)
        c = restore(degraded, cfg, clean=clean, seed=4)
        assert np.abs(a - c).max() > 0
        assert a.min() >= 0.0 and a.max() <= 1.0 and np.isfinite(a).all()

    def test_requires_clean(self, images):
        _, degraded, _ = images
        with pytest.raises(ContractError):
            restore(degraded, RestoreConfig(mode="oracle_blend"))


class TestArtifactSmoothing:
    @pytest.mark.parametrize("n", [64, 32, 8])
    @pytest.mark.parametrize("sigma", [0.5, 3.0, 5.0])
    def test_equals_scipy_wrap_gaussian_filter(self, n, sigma):
        # sigma 5 on 8 px: the 20-px radius wraps round the image more than twice
        from scipy.ndimage import gaussian_filter

        field = np.random.default_rng(n).standard_normal((n, n))
        expect = gaussian_filter(field, sigma, mode="wrap")
        np.testing.assert_allclose(rs._circular_gaussian(field, sigma), expect, rtol=0, atol=1e-14)

    def test_zero_smoothing_is_the_unit_rms_white_field(self):
        # scipy skips a sigma of 0; so does the one-tap kernel
        rng = np.random.default_rng(rs._ARTIFACT_BASIS_SEED)
        for mode in rs._artifact_basis((8, 8), 0.0):
            field = rng.standard_normal((8, 8))
            field -= field.mean()
            np.testing.assert_array_equal(mode, field / np.sqrt((field * field).mean()))


class TestWiener:
    def test_delta_psf_identity(self, images):
        _, degraded, _ = images
        delta = np.zeros((5, 5))
        delta[2, 2] = 1.0
        cfg = RestoreConfig(mode="wiener", wiener_nsr=1e-8)
        out = restore(degraded, cfg, psf=delta)
        np.testing.assert_allclose(out, np.clip(degraded, 0, 1), atol=1e-4)

    def test_improves_known_blur(self, images):
        _, _, p = images
        # smooth image: Wiener can only recover frequencies the OTF kept
        yy, xx = np.meshgrid(np.linspace(0, 2, 32), np.linspace(0, 2, 32), indexing="ij")
        clean = 0.5 + 0.3 * np.sin(2 * np.pi * xx) * np.cos(np.pi * yy)
        kern = ts.zernike_psf(p, seed=9)
        from scipy.ndimage import convolve

        blurred = convolve(clean, kern, mode="wrap")
        cfg = RestoreConfig(mode="wiener", wiener_nsr=1e-6)
        out = restore(blurred, cfg, psf=kern)
        mse_before = ((blurred - clean) ** 2).mean()
        mse_after = ((out - clean) ** 2).mean()
        assert mse_after < 0.05 * mse_before

    def test_requires_psf(self, images):
        _, degraded, _ = images
        with pytest.raises(ContractError):
            restore(degraded, RestoreConfig(mode="wiener"))


def test_config_validation():
    with pytest.raises(ContractError):
        RestoreConfig(mode="magic")
    with pytest.raises(ContractError):
        RestoreConfig(fidelity_w=1.5)
    with pytest.raises(ContractError):
        RestoreConfig(artifact_sigma=-0.1)
    with pytest.raises(ContractError):
        RestoreConfig(artifact_smooth_px=-1.0)
    with pytest.raises(ContractError):
        RestoreConfig(wiener_nsr=0.0)
