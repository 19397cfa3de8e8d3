"""Measurement operators with explicit SVD structure.

Every linear operator here exposes the factorisation A = U S V^T through
the orthonormal maps V^T, V and U^T, which is what the spectral-domain
sampler needs.
V is always the full n x n right basis (so V V^T x = x); singular values
are stored descending, zero-padded on demand for indices past min(m, n).
Signals are flat length-n vectors in (channel, row, column) row-major
order; all maps accept a single vector or a (batch, dim) stack.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _as_batch(x, dim: int, what: str):
    """Normalise input to a (B, dim) float64 array; track if it was single."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
        single = True
    elif arr.ndim == 2:
        single = False
    else:
        raise ValueError(f"{what}: expected a vector or a (batch, dim) stack")
    if arr.shape[1] != dim:
        raise ValueError(f"{what}: expected dimension {dim}, got {arr.shape[1]}")
    return np.ascontiguousarray(arr), single


class LinearOperator:
    """Base class: subclasses provide the orthonormal factor maps.

    Attributes
    ----------
    n, m : signal and measurement dimensions.
    singular_values : descending, length min(m, n), all >= 0.
    signal_shape : (c, h, w) of the signal domain.
    measurement_shape : (c, h, w) of the measurement when it is an image,
        else None.

    Gaussian conditioning (``priors``) reads an operator's structure from
    ``axis_matrices`` and ``selection``, both None unless a subclass states
    them; an operator with neither conditions through ``apply`` alone.
    """

    def __init__(self, n, m, singular_values, signal_shape, measurement_shape=None):
        s = np.ascontiguousarray(singular_values, dtype=np.float64)
        if s.size != min(m, n):
            raise ValueError(f"need {min(m, n)} singular values, got {s.size}")
        if not np.all(np.isfinite(s)) or np.any(s < 0.0) or np.any(np.diff(s) > 0.0):
            raise ValueError("singular values must be finite, non-negative and descending")
        self.n = int(n)
        self.m = int(m)
        self.singular_values = s
        self.signal_shape = tuple(signal_shape)
        self.measurement_shape = (
            tuple(measurement_shape) if measurement_shape is not None else None
        )

    # Factor maps on (B, dim) stacks; implemented by subclasses.
    def _vt(self, x2d):
        raise NotImplementedError

    def _v(self, xs2d):
        raise NotImplementedError

    def _ut(self, y2d):
        raise NotImplementedError

    def _direct(self, x2d):
        """Direct application, independent of the factored path."""
        raise NotImplementedError

    def apply(self, x):
        """A x for a vector or a (B, n) stack."""
        x2d, single = _as_batch(x, self.n, "apply")
        y = self._direct(x2d)
        return y[0] if single else y

    def to_spectral(self, x):
        """V^T x: signal coordinates in the operator's right singular basis."""
        x2d, single = _as_batch(x, self.n, "to_spectral")
        xs = self._vt(x2d)
        return xs[0] if single else xs

    def from_spectral(self, xs):
        """V xs: inverse of to_spectral (V is orthonormal)."""
        xs2d, single = _as_batch(xs, self.n, "from_spectral")
        x = self._v(xs2d)
        return x[0] if single else x

    def measurement_to_spectral(self, y):
        """(U^T y)_i / s_i with validity flags, aligned with to_spectral.

        Returns (y_bar, valid), both length n.  Indices with s_i = 0 (or
        beyond min(m, n)) carry y_bar = 0 and valid = False; they must
        never be read as measurements.
        """
        y2d, single = _as_batch(y, self.m, "measurement_to_spectral")
        s = self.padded_singular_values()
        valid = s > 0.0
        ys = self._ut(y2d)
        ybar = np.zeros((y2d.shape[0], self.n))
        k = self.singular_values.size
        ybar[:, :k] = ys[:, :k]
        ybar[:, valid] /= s[valid]
        ybar[:, ~valid] = 0.0
        return (ybar[0], valid) if single else (ybar, valid)

    def spectral_norm(self) -> float:
        """Largest singular value of the operator."""
        return float(self.singular_values[0])

    def axis_matrices(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(M_h, M_w) when A = I_c (x) M_h (x) M_w bit for bit, else None.

        M_h is (m_h, h) and M_w is (m_w, w), for the (c, h, w) signal grid
        and the (c, m_h, m_w) measurement grid.
        """
        return None

    def selection(self) -> np.ndarray | None:
        """The increasing signal indices ``kept`` when A x = x[kept], else None."""
        return None

    def padded_singular_values(self) -> np.ndarray:
        """Singular values zero-padded to the full spectral length n."""
        s = np.zeros(self.n)
        s[: self.singular_values.size] = self.singular_values
        return s


class IdentityOperator(LinearOperator):
    def __init__(self, channels, height, width):
        n = channels * height * width
        shape = (channels, height, width)
        super().__init__(n, n, np.ones(n), shape, shape)

    def _vt(self, x2d):
        return x2d.copy()

    _v = _ut = _direct = _vt

    def axis_matrices(self):
        _, h, w = self.signal_shape
        return np.eye(h), np.eye(w)


class DenseOperator(LinearOperator):
    """Arbitrary small dense matrix, factored by a full SVD."""

    def __init__(self, matrix, signal_shape=None):
        a = np.ascontiguousarray(matrix, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("operator matrix must be 2-D")
        m, n = a.shape
        u, s, vt = np.linalg.svd(a, full_matrices=True)
        if signal_shape is None:
            signal_shape = (1, 1, n)
        super().__init__(n, m, s, signal_shape)
        self.matrix = a
        self._u_full = u
        self._vt_full = vt

    def _direct(self, x2d):
        return x2d @ self.matrix.T

    def _vt(self, x2d):
        return x2d @ self._vt_full.T

    def _v(self, xs2d):
        return xs2d @ self._vt_full

    def _ut(self, y2d):
        return y2d @ self._u_full


def _householder_mean_basis(k: int) -> np.ndarray:
    """Symmetric orthogonal k x k basis whose first column is 1/sqrt(k)."""
    if k == 1:
        return np.ones((1, 1))
    v = np.full(k, 1.0 / math.sqrt(k))
    v[0] -= 1.0
    return np.eye(k) - 2.0 * np.outer(v, v) / (v @ v)


class BlockDownsampleOperator(LinearOperator):
    """Block-average pooling; every singular value equals 1/block."""

    def __init__(self, channels, height, width, block):
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        if height % block or width % block:
            raise ValueError(
                f"block {block} must divide height {height} and width {width}"
            )
        self.block = int(block)
        self.channels, self.height, self.width = channels, height, width
        hb, wb = height // block, width // block
        n = channels * height * width
        m = channels * hb * wb
        k = block * block
        super().__init__(
            n, m, np.full(m, 1.0 / block), (channels, height, width), (channels, hb, wb)
        )
        self._basis = _householder_mean_basis(k)  # columns: mean mode first

    def _blocks(self, x2d):
        b, (c, hb, wb) = self.block, (self.channels, self.height // self.block, self.width // self.block)
        blk = x2d.reshape(-1, c, hb, b, wb, b).transpose(0, 1, 2, 4, 3, 5)
        return blk.reshape(-1, c * hb * wb, b * b)

    def _unblocks(self, blk):
        b = self.block
        c, hb, wb = self.channels, self.height // b, self.width // b
        blk = blk.reshape(-1, c, hb, wb, b, b).transpose(0, 1, 2, 4, 3, 5)
        return blk.reshape(-1, self.n)

    def _direct(self, x2d):
        return self._blocks(x2d).mean(axis=2)

    def axis_matrices(self):
        """The 0/1 pooling matrices scaled so that every entry of their
        product is 1/block^2 as ``_direct`` computes it: by 1/block each
        where (1/block)^2 rounds to 1/block^2 (block 2, 3, 4, but not 5),
        so that a square grid has equal factors, else by 1/block^2 on the
        row factor."""
        b = self.block
        pool_h, pool_w = (np.kron(np.eye(size // b), np.ones((1, b)))
                          for size in (self.height, self.width))
        if (1.0 / b) * (1.0 / b) == 1.0 / (b * b):
            return pool_h / b, pool_w / b
        return pool_h / (b * b), pool_w

    def _vt(self, x2d):
        coords = self._blocks(x2d) @ self._basis
        return np.concatenate([coords[:, :, 0], coords[:, :, 1:].reshape(x2d.shape[0], -1)], axis=1)

    def _v(self, xs2d):
        nb = self.m
        k = self.block * self.block
        coords = np.empty((xs2d.shape[0], nb, k))
        coords[:, :, 0] = xs2d[:, :nb]
        coords[:, :, 1:] = xs2d[:, nb:].reshape(xs2d.shape[0], nb, k - 1)
        return self._unblocks(coords @ self._basis.T)

    def _ut(self, y2d):
        return y2d.copy()


def _real_dft_basis(length: int) -> np.ndarray:
    """Orthonormal real DFT basis: DC, cos/sin pairs, Nyquist for even length."""
    j = np.arange(length)
    cols = [np.full(length, 1.0 / math.sqrt(length))]
    for k in range(1, (length - 1) // 2 + 1):
        ang = 2.0 * math.pi * k * j / length
        cols.append(np.sqrt(2.0 / length) * np.cos(ang))
        cols.append(np.sqrt(2.0 / length) * np.sin(ang))
    if length % 2 == 0 and length > 1:
        cols.append(np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(length))
    return np.stack(cols, axis=1)


def _basis_eigenvalues(kernel_fft_real: np.ndarray) -> np.ndarray:
    """Map DFT coefficients onto the real-basis column order of _real_dft_basis."""
    length = kernel_fft_real.size
    vals = [kernel_fft_real[0]]
    for k in range(1, (length - 1) // 2 + 1):
        vals.extend([kernel_fft_real[k], kernel_fft_real[k]])
    if length % 2 == 0 and length > 1:
        vals.append(kernel_fft_real[length // 2])
    return np.asarray(vals)


def gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    """Unit-sum symmetric 1-D Gaussian kernel truncated at +-radius."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if radius < 1:
        raise ValueError(f"kernel_radius must be >= 1, got {radius}")
    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    return taps / taps.sum()


def _wrap_kernel(kernel: np.ndarray, length: int) -> np.ndarray:
    """Fold a centered kernel onto a ring of the given length."""
    radius = kernel.size // 2
    wrapped = np.zeros(length)
    for offset, tap in zip(range(-radius, radius + 1), kernel):
        wrapped[offset % length] += tap
    return wrapped


def _circulant(wrapped: np.ndarray) -> np.ndarray:
    """C[i, j] = wrapped[(i - j) % length], so C x is x convolved on the ring."""
    length = wrapped.size
    idx = np.arange(length)
    return wrapped[(idx[:, None] - idx[None, :]) % length]


class CircularBlurOperator(LinearOperator):
    """Separable circular convolution, diagonal in the real DFT basis.

    The kernel has unit sum, so the operator is doubly stochastic and the
    top singular value is exactly 1 (the DC mode).  All three maps are
    separable matrix products on each (h, w) channel image: apply is
    C_h X C_w^T with circulant C_h, C_w; V^T is Q_h^T X Q_w and V is
    Q_h X Q_w^T with the real DFT bases Q_h, Q_w.
    """

    def __init__(self, channels, height, width, sigma, kernel_radius=None):
        if kernel_radius is None:
            kernel_radius = max(1, math.ceil(3.0 * sigma))
        kernel = gaussian_kernel(sigma, kernel_radius)
        self.channels, self.height, self.width = channels, height, width
        n = channels * height * width

        self._qh = _real_dft_basis(height)
        self._qw = _real_dft_basis(width)
        self._wrapped_h = _wrap_kernel(kernel, height)
        self._wrapped_w = _wrap_kernel(kernel, width)
        # built by index, not from the DFT factors, so apply() stays an
        # independent check on the spectral maps
        self._ch = _circulant(self._wrapped_h)
        self._cw = _circulant(self._wrapped_w)
        lam_h = _basis_eigenvalues(np.fft.fft(self._wrapped_h).real)
        lam_w = _basis_eigenvalues(np.fft.fft(self._wrapped_w).real)
        lam = np.outer(lam_h, lam_w).ravel()
        order = np.argsort(-np.abs(lam), kind="stable")
        self._perm = order
        self._inv_perm = np.argsort(order, kind="stable")
        sgn = np.where(lam[order] < 0.0, -1.0, 1.0)
        self._sgn_full = np.repeat(sgn, channels)
        s_full = np.repeat(np.abs(lam[order]), channels)
        super().__init__(
            n, n, s_full, (channels, height, width), (channels, height, width)
        )

    def _direct(self, x2d):
        img = x2d.reshape(-1, self.channels, self.height, self.width)
        return (self._ch @ img @ self._cw.T).reshape(-1, self.n)

    def axis_matrices(self):
        return self._ch, self._cw

    def _vt(self, x2d):
        c, h, w = self.channels, self.height, self.width
        img = x2d.reshape(-1, c, h, w)
        coef = (self._qh.T @ img @ self._qw).reshape(-1, c, h * w)[:, :, self._perm]
        return coef.transpose(0, 2, 1).reshape(-1, self.n)

    def _v(self, xs2d):
        c, h, w = self.channels, self.height, self.width
        coef = xs2d.reshape(-1, h * w, c).transpose(0, 2, 1)[:, :, self._inv_perm]
        img = self._qh @ coef.reshape(-1, c, h, w) @ self._qw.T
        return img.reshape(-1, self.n)

    def _ut(self, y2d):
        return self._vt(y2d) * self._sgn_full


def centered_square_mask(height: int, width: int) -> np.ndarray:
    """Observation mask hiding a centered square of about half the side length.

    Each side is the largest at most half the grid's that has the grid's
    parity (0 where there is none), so the square sits on the centre line
    and the mask is invariant under both flips of the grid.
    """
    side_h, side_w = (max(size // 2 - (size // 2 - size) % 2, 0) for size in (height, width))
    top, left = (height - side_h) // 2, (width - side_w) // 2
    mask = np.ones((height, width), dtype=bool)
    mask[top : top + side_h, left : left + side_w] = False
    return mask


class InpaintOperator(LinearOperator):
    """Row selection keeping the observed pixels of every channel.

    ``selection()`` gives their increasing indices, so conditioning takes
    the prior covariance's rows and columns at them and never forms A; it
    splits by the grid's flips when the mask equals both of its flips, as
    the centred square does on every grid.
    """

    def __init__(self, channels, height, width, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (height, width):
            raise ValueError(f"mask shape {mask.shape} != ({height}, {width})")
        if not mask.any():
            raise ValueError("inpainting mask keeps no pixels")
        hw = height * width
        kept = np.flatnonzero(mask.ravel())
        dropped = np.flatnonzero(~mask.ravel())
        self._kept_full = np.concatenate(
            [ch * hw + kept for ch in range(channels)]
        )
        self._perm = np.concatenate(
            [self._kept_full] + [ch * hw + dropped for ch in range(channels)]
        )
        n = channels * hw
        m = channels * kept.size
        super().__init__(n, m, np.ones(m), (channels, height, width))

    def selection(self) -> np.ndarray:
        return self._kept_full

    def _direct(self, x2d):
        return x2d[:, self._kept_full]

    def _vt(self, x2d):
        return x2d[:, self._perm]

    def _v(self, xs2d):
        out = np.empty_like(xs2d)
        out[:, self._perm] = xs2d
        return out

    def _ut(self, y2d):
        return y2d.copy()


@dataclass(frozen=True)
class NonlinearOperator:
    """Deterministic forward map without SVD structure.

    ``fn`` maps a (B, n) stack of signals to the (B, m) stack of their
    measurements, each row by itself, so that ``apply`` calls it once per
    stack; a single signal goes in as a stack of one.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    n: int
    m: int
    signal_shape: tuple[int, int, int]

    def apply(self, x):
        x2d, single = _as_batch(x, self.n, "apply")
        y = self.fn(x2d)
        return y[0] if single else y


@dataclass(frozen=True)
class MeasurementModel:
    """A forward operator plus i.i.d. Gaussian measurement noise."""

    operator: LinearOperator | NonlinearOperator
    sigma_y: float

    def __post_init__(self):
        if self.sigma_y < 0.0:
            raise ValueError(f"sigma_y must be >= 0, got {self.sigma_y}")

    def degrade(self, x, seed) -> np.ndarray:
        """Measure x with seeded noise; the same seed reproduces bit-exactly.
        ``seed`` is an int for one signal, or one int per row of a (B, n) stack."""
        y = self.operator.apply(x)
        if self.sigma_y == 0.0:
            return y
        if np.shape(seed) != y.shape[:-1]:
            raise ValueError("degrade: need an int seed for one signal or one seed per row")
        rngs = [np.random.default_rng(s) for s in np.atleast_1d(seed)]
        noise = [rng.standard_normal(y.shape[-1]) for rng in rngs]
        return y + self.sigma_y * np.reshape(noise, y.shape)


def make_downsample(channels, height, width, block) -> LinearOperator:
    """Block-average pooling operator; block=1 degenerates to identity."""
    if block == 1:
        return IdentityOperator(channels, height, width)
    return BlockDownsampleOperator(channels, height, width, block)


def make_gaussian_blur(
    channels, height, width, sigma, kernel_radius=None
) -> CircularBlurOperator:
    """Circular Gaussian blur; radius defaults to ceil(3 sigma)."""
    return CircularBlurOperator(channels, height, width, sigma, kernel_radius)


def make_centered_square_inpaint(channels, height, width) -> InpaintOperator:
    """The standard masking task: hide a centered square of half side length."""
    return InpaintOperator(channels, height, width, centered_square_mask(height, width))


def make_synthetic_nonlinear_blur(
    channels, height, width, sigma, saturation, kernel_radius=None
) -> NonlinearOperator:
    """tanh-saturated circular blur: x -> tanh(saturation * blur(x)) / saturation.

    Reduces to the linear blur as saturation -> 0 (small-argument expansion
    of tanh); used to exercise residual computations without SVD access.
    """
    if saturation <= 0.0:
        raise ValueError(f"saturation must be positive, got {saturation}")
    blur = CircularBlurOperator(channels, height, width, sigma, kernel_radius)

    def fn(x):
        return np.tanh(saturation * blur.apply(x)) / saturation

    n = channels * height * width
    return NonlinearOperator(
        fn=fn,
        n=n,
        m=n,
        signal_shape=(channels, height, width),
    )
