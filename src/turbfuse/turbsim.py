"""Atmospheric-turbulence image degradation.

Five-step pipeline: parameter initialization (Fried parameter from the
plane-wave formula), tilt power-spectrum generation, per-pixel tilt
warping, Zernike-coefficient sampling with Noll Kolmogorov statistics,
and FFT-pupil blur. Blur is spatially invariant (one tilt field and one
PSF per image); anisoplanatism is out of scope at desk scale.

``blur`` is an edge-padded linear convolution through ``numpy.fft``: the
image is padded by half the kernel with its border pixels, and the FFT is
long enough that no circular wrap reaches the kept window. In float64 it is
within 1e-12 of the direct sum ``scipy.ndimage.convolve(..., mode="nearest")``
(about 2e-15 measured on [0, 1] images).

Intensity is keyed by propagation length L in meters (10k/20k/30k/40k);
r0 = (0.423 k^2 Cn2 L)^(-3/5) with k = 2*pi/lambda, so larger L means a
smaller Fried parameter and stronger degradation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, ShapeError

# Cn2 calibrated so D_ap/r0 = 2 at L = 10 km with the default aperture and
# wavelength; the 10k..40k ladder then spans D/r0 in [2.0, 4.6].
DEFAULT_CN2 = 2.4322e-16
DEFAULT_WAVELENGTH = 525e-9
DEFAULT_APERTURE = 0.1

INTENSITY_LEVELS = (10_000.0, 20_000.0, 30_000.0, 40_000.0)


@dataclass
class TurbulenceParams:
    intensity_meters: float
    image_size: int
    aperture_diameter: float = DEFAULT_APERTURE
    wavelength: float = DEFAULT_WAVELENGTH
    cn2: float = DEFAULT_CN2
    n_zernike: int = 33  # Noll modes 4 .. 4+n-1 (piston/tilt excluded)
    outer_scale_m: float = 10.0
    pixel_pitch_m: float = 0.05  # object-plane m/px at range L: tilt PSD grid and angle->px
    fft_size: int = 96
    pupil_px: int = 32
    kernel_size: int = 23

    @property
    def fried_r0(self):
        return fried_parameter(self.intensity_meters, self.wavelength, self.cn2)

    @property
    def d_over_r0(self):
        if math.isinf(self.fried_r0):
            return 0.0
        return self.aperture_diameter / self.fried_r0

    @property
    def tilt_rms_px(self):
        """Per-axis RMS tilt shift in pixels, from the Noll mode-2/3 variance.

        Noll mode 2 is 2*rho*cos(theta), so a coefficient a2 (radians) tilts
        the wavefront by 2*a2/pi * lambda/D radians; with var(a2) =
        _noll_cov_entry(1,1,1,1) * (D/r0)^(5/3) the angle-of-arrival RMS is
        ~0.4265 * (lambda/D) * (D/r0)^(5/6), which projects to
        theta_rms * L / pixel_pitch_m pixels in the object plane.
        """
        theta_rms = (
            2.0
            * math.sqrt(_noll_cov_entry(1, 1, 1, 1))
            / math.pi
            * (self.wavelength / self.aperture_diameter)
            * self.d_over_r0 ** (5.0 / 6.0)
        )
        return theta_rms * self.intensity_meters / self.pixel_pitch_m


def fried_parameter(intensity_meters, wavelength, cn2):
    """Plane-wave Fried parameter r0 = (0.423 k^2 Cn2 L)^(-3/5)."""
    if intensity_meters <= 0 or wavelength <= 0:
        raise ContractError("propagation length and wavelength must be positive")
    if cn2 < 0:
        raise ContractError("cn2 must be nonnegative")
    if cn2 == 0.0:
        return math.inf
    k = 2.0 * math.pi / wavelength
    return (0.423 * k * k * cn2 * intensity_meters) ** (-3.0 / 5.0)


def init_params(intensity_meters, image_size, overrides=None):
    """Build TurbulenceParams for one intensity level, applying overrides."""
    if intensity_meters <= 0:
        raise ContractError("intensity_meters must be positive")
    if image_size <= 0:
        raise ContractError("image_size must be positive")
    p = TurbulenceParams(intensity_meters=float(intensity_meters), image_size=int(image_size))
    if overrides:
        known = {f for f in p.__dataclass_fields__}
        bad = set(overrides) - known
        if bad:
            raise ContractError(f"unknown turbulence overrides: {sorted(bad)}")
        p = replace(p, **overrides)
    if p.aperture_diameter <= 0 or p.wavelength <= 0 or p.cn2 < 0:
        raise ContractError("aperture and wavelength must be positive, and cn2 nonnegative")
    if p.pixel_pitch_m <= 0 or p.outer_scale_m <= 0:
        raise ContractError("pixel_pitch_m and outer_scale_m must be positive")
    if not 1 <= p.pupil_px <= p.fft_size:
        raise ContractError("pupil_px must lie in [1, fft_size]")
    if p.n_zernike < 3:
        raise ContractError("n_zernike must be >= 3")
    if p.kernel_size % 2 == 0 or p.kernel_size > p.fft_size:
        raise ContractError("kernel_size must be odd and <= fft_size")
    return p


def _rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# -- tilt ----------------------------------------------------------------------


@dataclass
class TiltField:
    """Per-pixel shift maps in pixel units; zero-mean by construction."""

    dx: np.ndarray
    dy: np.ndarray


@functools.lru_cache(maxsize=8)
def _tilt_spectrum(image_size, pixel_pitch_m, outer_scale_m):
    """Square root of the von Karman-regularized Kolmogorov spectrum on the
    image frequency grid, and the per-axis std of the screen it colours.

    Keyed by the only three parameters it reads (``TurbulenceParams`` is not
    hashable); the array is shared by every caller, so it is read-only.
    """
    n = image_size
    f = np.fft.fftfreq(n)  # cycles per pixel
    k = 2.0 * math.pi * np.hypot(*np.meshgrid(f, f, indexing="ij")) / pixel_pitch_m
    k0 = 2.0 * math.pi / outer_scale_m
    psd = (k * k + k0 * k0) ** (-11.0 / 6.0)
    psd[0, 0] = 0.0  # no DC power: fields come out zero-mean
    amp = np.sqrt(psd)
    amp.flags.writeable = False
    # E[Re(screen)^2] = sum(psd)/N^4; real/imag parts are two iid fields
    return amp, math.sqrt(psd.sum()) / (n * n)


def tilt_field(p: TurbulenceParams, seed):
    """Correlated random shift field with per-axis RMS = p.tilt_rms_px.

    That is 0.4265 * (lambda/D) * (D/r0)^(5/6) * L / pixel_pitch_m pixels,
    the Noll tilt variance projected to the object plane.
    """
    rng = _rng(seed)
    n = p.image_size
    amp, sigma = _tilt_spectrum(n, p.pixel_pitch_m, p.outer_scale_m)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    screen = np.fft.ifft2(noise * amp)
    scale = p.tilt_rms_px / sigma
    return TiltField(dx=np.real(screen) * scale, dy=np.imag(screen) * scale)


def apply_tilt(image, t: TiltField):
    """Backward warp: out[y, x] samples image at (y + dy, x + dx), bilinear.

    Sampling coordinates are clamped to the image border (edge-replicate).
    """
    image = np.asarray(image)
    if image.shape != t.dx.shape or image.shape != t.dy.shape:
        raise ShapeError(f"image {image.shape} does not match tilt field {t.dx.shape}")
    n, m = image.shape
    yy, xx = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    sy = np.clip(yy + t.dy, 0.0, n - 1.0)
    sx = np.clip(xx + t.dx, 0.0, m - 1.0)
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, n - 1)
    x1 = np.minimum(x0 + 1, m - 1)
    wy = sy - y0
    wx = sx - x0
    top = image[y0, x0] * (1 - wx) + image[y0, x1] * wx
    bot = image[y1, x0] * (1 - wx) + image[y1, x1] * wx
    return (top * (1 - wy) + bot * wy).astype(image.dtype, copy=False)


# -- Zernike statistics and PSF -------------------------------------------------


def noll_to_nm(j):
    """Noll index -> (n, m); negative m denotes the sine term."""
    if j < 1:
        raise ContractError("Noll indices start at 1")
    n = int(math.sqrt(2 * j - 1) + 0.5) - 1
    if n % 2:
        m = 2 * int((2 * (j + 1) - n * (n + 1)) // 4) - 1
    else:
        m = 2 * int((2 * j + 1 - n * (n + 1)) // 4)
    return n, m * (-1) ** (j % 2)


def _noll_cov_entry(ni, mi, nj, mj):
    """Kolmogorov covariance of Zernike coefficients at D/r0 = 1.

    Nonzero only for equal azimuthal order and matching sin/cos parity;
    the 7.2e-3 front factor is the classical Roddier constant.
    """
    if mi != mj:
        return 0.0
    m = abs(mi)
    sign = (-1.0) ** ((ni + nj - 2 * m) / 2.0)
    num = math.gamma(14.0 / 3.0) * math.gamma((ni + nj - 5.0 / 3.0) / 2.0)
    den = (
        math.gamma((ni - nj + 17.0 / 3.0) / 2.0)
        * math.gamma((nj - ni + 17.0 / 3.0) / 2.0)
        * math.gamma((ni + nj + 23.0 / 3.0) / 2.0)
    )
    front = 0.0072077  # (2*pi)^(11/3)*0.0457654*(1/2)^(5/3)/(2*pi)^(14/3)*pi
    return front * math.sqrt((ni + 1) * (nj + 1)) * sign * math.pi ** (8.0 / 3.0) * num / den


@functools.lru_cache(maxsize=8)
def _unit_covariance(n_modes):
    """Covariance matrix of Noll modes 4..3+n at D/r0 = 1, with Cholesky."""
    js = [4 + i for i in range(n_modes)]
    nm = [noll_to_nm(j) for j in js]
    cov = np.zeros((n_modes, n_modes))
    for a, (na, ma) in enumerate(nm):
        for b, (nb, mb) in enumerate(nm):
            cov[a, b] = _noll_cov_entry(na, ma, nb, mb)
    # tiny jitter keeps Cholesky stable for near-singular high-order blocks
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(n_modes))
    return cov, chol


def zernike_covariance(p: TurbulenceParams):
    """Coefficient covariance (radians^2) for modes 4..3+n at this intensity."""
    cov, _ = _unit_covariance(p.n_zernike)
    return cov * p.d_over_r0 ** (5.0 / 3.0)


def sample_zernike_coeffs(p: TurbulenceParams, seed, n=1):
    """Draw n coefficient vectors from the configured Noll covariance."""
    rng = _rng(seed)
    _, chol = _unit_covariance(p.n_zernike)
    z = rng.standard_normal((n, p.n_zernike))
    return z @ chol.T * p.d_over_r0 ** (5.0 / 6.0)


@functools.lru_cache(maxsize=8)
def _zernike_basis(fft_size, pupil_px, n_modes):
    """Stack of Noll-normalized Zernike modes 4..3+n over the pupil disk."""
    c = fft_size // 2
    yy, xx = np.meshgrid(np.arange(fft_size) - c, np.arange(fft_size) - c, indexing="ij")
    rho = np.hypot(yy, xx) / (pupil_px / 2.0)
    theta = np.arctan2(yy, xx)
    mask = rho <= 1.0
    rho_c = np.where(mask, rho, 0.0)

    basis = np.zeros((n_modes, fft_size, fft_size))
    for i in range(n_modes):
        n, m = noll_to_nm(4 + i)
        ma = abs(m)
        radial = np.zeros_like(rho_c)
        for k in range((n - ma) // 2 + 1):
            coef = (
                (-1.0) ** k
                * math.factorial(n - k)
                / (math.factorial(k) * math.factorial((n + ma) // 2 - k) * math.factorial((n - ma) // 2 - k))
            )
            radial += coef * rho_c ** (n - 2 * k)
        if m == 0:
            z = math.sqrt(n + 1.0) * radial
        elif m > 0:
            z = math.sqrt(2.0 * (n + 1.0)) * radial * np.cos(ma * theta)
        else:
            z = math.sqrt(2.0 * (n + 1.0)) * radial * np.sin(ma * theta)
        basis[i] = z * mask
    return basis, mask


def zernike_psf(p: TurbulenceParams, seed=None, coeffs=None):
    """Unit-sum PSF kernel from a random (or given) aberrated pupil.

    coeffs: optional length-n_zernike vector in radians; overrides sampling
    (all-zeros gives the diffraction-limited kernel).
    """
    if coeffs is None:
        coeffs = sample_zernike_coeffs(p, seed, n=1)[0]
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (p.n_zernike,):
        raise ContractError(f"expected {p.n_zernike} coefficients, got {coeffs.shape}")
    basis, mask = _zernike_basis(p.fft_size, p.pupil_px, p.n_zernike)
    phase = np.tensordot(coeffs, basis, axes=1)
    field = mask * np.exp(1j * phase)
    spectrum = np.fft.fft2(np.fft.ifftshift(field))
    # the centred kernel window, read from the unshifted spectrum; only it is squared
    c = p.fft_size // 2
    half = p.kernel_size // 2
    idx = np.fft.fftshift(np.arange(p.fft_size))[c - half : c + half + 1]
    kern = np.abs(spectrum[np.ix_(idx, idx)]) ** 2
    total = kern.sum()
    if total <= 0:
        raise ContractError("empty pupil produced a null PSF")
    return kern / total


# -- end-to-end degradation ------------------------------------------------------


def _child_rng(seed, i):
    """Generator of the ``i``-th child a fresh ``seed.spawn`` makes, built
    without spawning, so one seed object always gives the same children."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.default_rng(np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,), pool_size=ss.pool_size))


def _fft_len(n):
    """Smallest 2*3*5-smooth integer >= n: a length numpy's FFT does fast."""
    m = n
    for f in (2, 3, 5):
        while m % f == 0:
            m //= f
    return n if m == 1 else _fft_len(n + 1)


def blur(image, kern):
    """Convolve an image with an odd square kernel, borders edge-replicated.

    Equals ``scipy.ndimage.convolve(image, kern, mode="nearest")`` to float64
    rounding: the edge-padded image is linearly convolved through a real FFT
    long enough that no wrapped term reaches the kept window.
    """
    n, m = image.shape
    h = kern.shape[0] // 2
    s = (_fft_len(n + 2 * h), _fft_len(m + 2 * h))
    padded = np.pad(image, h, mode="edge")
    full = np.fft.irfft2(np.fft.rfft2(padded, s) * np.fft.rfft2(kern, s), s)
    return full[2 * h : 2 * h + n, 2 * h : 2 * h + m]


def degradation_psf(p: TurbulenceParams, seed):
    """The PSF kernel ``degrade(image, p, seed)`` blurs with (tilt draws from child 0)."""
    return zernike_psf(p, seed=_child_rng(seed, 1))


def degrade(image, p: TurbulenceParams, seed):
    """Tilt then blur one image; deterministic in (image, params, seed)."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != (p.image_size, p.image_size):
        raise ShapeError(f"expected {p.image_size}x{p.image_size} image, got {image.shape}")
    tilted = apply_tilt(image, tilt_field(p, _child_rng(seed, 0)))
    kern = degradation_psf(p, seed)
    return np.clip(blur(tilted, kern), image.min(), image.max())
