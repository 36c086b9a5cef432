"""Restoration proxies producing HQ images from degraded ones.

Two modes stand in for a learned restorer while keeping the fidelity-weight
semantics: ``oracle_blend`` mixes the clean image back in ((1-w)*clean +
w*degraded) and adds seed-deterministic smooth artifacts modelling imperfect
recovery; ``wiener`` deconvolves with the simulator's own PSF. w=1 is full
fidelity to the degraded input, w=0 a perfect restoration (before
artifacts).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError

MODES = ("oracle_blend", "wiener")


@dataclass
class RestoreConfig:
    mode: str = "oracle_blend"
    fidelity_w: float = 0.5
    artifact_sigma: float = 0.02
    artifact_smooth_px: float = 3.0
    wiener_nsr: float = 1e-2

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractError(f"mode must be one of {MODES}")
        if not 0.0 <= self.fidelity_w <= 1.0:
            raise ContractError("fidelity_w must lie in [0, 1]")
        if self.artifact_sigma < 0:
            raise ContractError("artifact_sigma must be nonnegative")
        if self.artifact_smooth_px < 0:
            raise ContractError("artifact_smooth_px must be nonnegative")
        if self.wiener_nsr <= 0:
            raise ContractError("wiener_nsr must be positive")


_ARTIFACT_BASIS_SEED = 0xA77  # fixed: artifacts live in one systematic subspace
_N_ARTIFACT_MODES = 8


def _circular_gaussian(field, sigma):
    """Gaussian smoothing of a 2-D field with periodic boundaries, the kernel
    of ``scipy.ndimage.gaussian_filter(field, sigma, mode="wrap")``: radius
    ``int(4 sigma + 0.5)``, weights exp(-t^2 / 2 sigma^2) normalised, applied
    along axis 0 then axis 1, each tap index taken modulo the axis length.
    It sums in scipy's order: the centre tap, then each pair of taps from the
    outermost in. Radius 0 (sigma below 0.125, 0 included) is the one-tap
    identity."""
    radius = int(4.0 * sigma + 0.5)
    if radius == 0:
        return field
    t = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * t**2)
    w = w / w.sum()
    for axis in (0, 1):
        out = field * w[radius]
        for d in range(radius, 0, -1):
            out += (np.roll(field, d, axis) + np.roll(field, -d, axis)) * w[radius + d]
        field = out
    return field


@functools.lru_cache(maxsize=8)
def _artifact_basis(shape, smooth_px):
    """Unit-RMS smooth fields spanning the artifact subspace; shared by every
    caller, so read-only."""
    rng = np.random.default_rng(_ARTIFACT_BASIS_SEED)
    modes = []
    for _ in range(_N_ARTIFACT_MODES):
        field = _circular_gaussian(rng.standard_normal(shape), smooth_px)
        field -= field.mean()
        modes.append(field / np.sqrt((field * field).mean()))
    basis = np.stack(modes)
    basis.flags.writeable = False
    return basis


def _smooth_artifacts(shape, sigma, smooth_px, rng):
    """Structured restoration error: smooth noise from a fixed subspace.

    The basis is shared by every image (a systematic hallucination style,
    the way a learned restorer fails); only the mode coefficients are
    per-image random. A frozen recognizer sees a domain shift; a trainable
    branch can learn the subspace away.
    """
    basis = _artifact_basis(shape, smooth_px)
    coeffs = rng.standard_normal(_N_ARTIFACT_MODES) / np.sqrt(_N_ARTIFACT_MODES)
    return sigma * np.tensordot(coeffs, basis, axes=1)


def restore(degraded, cfg: RestoreConfig, clean=None, psf=None, seed=0):
    """Restore one degraded image to [0, 1]; deterministic given seed."""
    degraded = np.asarray(degraded, dtype=np.float64)
    if degraded.ndim != 2:
        raise ShapeError(f"expected a 2-D image, got shape {degraded.shape}")

    if cfg.mode == "oracle_blend":
        if clean is None:
            raise ContractError("oracle_blend requires the clean image")
        clean = np.asarray(clean, dtype=np.float64)
        if clean.shape != degraded.shape:
            raise ShapeError("clean/degraded shapes differ")
        out = (1.0 - cfg.fidelity_w) * clean + cfg.fidelity_w * degraded
        if cfg.artifact_sigma > 0:
            rng = np.random.default_rng(seed)
            out = out + _smooth_artifacts(degraded.shape, cfg.artifact_sigma, cfg.artifact_smooth_px, rng)
    else:  # wiener
        if psf is None:
            raise ContractError("wiener requires the degradation PSF")
        psf = np.asarray(psf, dtype=np.float64)
        k = psf.shape[0]
        n, m = degraded.shape
        if psf.shape != (k, k) or k > min(n, m):
            raise ShapeError(f"bad PSF shape {psf.shape} for image {degraded.shape}")
        pad = np.zeros((n, m))
        pad[:k, :k] = psf
        pad = np.roll(pad, (-(k // 2), -(k // 2)), axis=(0, 1))  # kernel center at (0, 0)
        h = np.fft.fft2(pad)
        g = np.conj(h) / (np.abs(h) ** 2 + cfg.wiener_nsr)
        out = np.real(np.fft.ifft2(np.fft.fft2(degraded) * g))

    return np.clip(out, 0.0, 1.0)
