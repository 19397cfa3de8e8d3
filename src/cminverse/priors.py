"""Signal priors and the consistency functions they induce.

A consistency function maps a noisy latent straight to a clean estimate:
``f(x_t, y, t) -> x_hat``.  The measurement ``y`` may be ignored
(unconditional denoising) or folded in through exact Gaussian
conditioning.  For a Gaussian prior both variants are available in
closed form, which makes the prior usable as a ground-truth reference
for the samplers; the empirical prior gives the same interface over a
finite atom set.

Latents follow the variance-exploding convention x_t = x + t * z with
z ~ N(0, I), so as t -> 0 every denoiser here approaches the identity
on x_t (the fixed-point boundary of a consistency function).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol

import numpy as np

from . import kernels


# Largest dimension n a pipeline conditions a Gaussian prior on the
# measurement for.  The conditioned closure holds dense n x n float64
# arrays, and its peak grows as n^2: a 64 x 64 deblur (n = 4096) sampled 8
# images at a peak resident size of about 800 MiB, so 128 x 128 would need
# about 12 GiB.
MAX_CONDITIONED_N = 64 * 64


class ConsistencyFn(Protocol):
    def __call__(self, x_t: np.ndarray, y: np.ndarray | None, t: float) -> np.ndarray:
        ...


def operator_matrix(operator) -> np.ndarray:
    """Materialise a linear operator as its dense (m, n) matrix."""
    return np.ascontiguousarray(operator.apply(np.eye(operator.n)).T)


def _as_matrix(operator) -> np.ndarray:
    return operator if isinstance(operator, np.ndarray) else operator_matrix(operator)


def _check_t(t: float) -> float:
    t = float(t)
    if not t > 0.0 or not np.isfinite(t):
        raise ValueError(f"noise level t must be positive and finite, got {t}")
    return t


def _basis_product(x: np.ndarray, axes: tuple[np.ndarray, ...], transpose: bool) -> np.ndarray:
    """x Q, or x Q^T when transpose, for the rows of x.

    ``axes`` gives Q: ``()`` is the identity, ``(Q,)`` a dense Q, and
    ``(Q_h, Q_w)`` stands for Q = I_c (x) Q_h (x) Q_w, applied one image
    axis at a time and never formed.  Q is orthonormal, or a block of
    orthonormal columns of such a basis.
    """
    if not axes:
        return x
    if len(axes) == 1:
        vecs = axes[0]
        return x @ (vecs.T if transpose else vecs)
    # row-major pixels (channel, row, col): x Q = Q_h^T X Q_w per channel
    # image X, and z Q^T = Q_h Z Q_w^T
    q_h, q_w = axes
    left, right = (q_h, q_w.T) if transpose else (q_h.T, q_w)
    channels = x.shape[-1] // (left.shape[1] * right.shape[0])
    out = left @ x.reshape(-1, left.shape[1], right.shape[0]) @ right
    return out.reshape(x.shape[:-1] + (channels * out.shape[1] * out.shape[2],))


@dataclass(frozen=True)
class EigenFactor:
    """Sigma = Q diag(lam) Q^T with lam >= 0.

    ``axes`` is ``(Q,)`` for a dense factor, or ``(Q_h, Q_w)`` for a
    covariance that is separable over the image axes, where
    Q = I_c (x) Q_h (x) Q_w is applied one axis at a time and never formed.
    """

    lam: np.ndarray
    axes: tuple[np.ndarray, ...]

    def coords(self, x: np.ndarray) -> np.ndarray:
        """x Q: a vector or the rows of a stack, in the eigenbasis."""
        return _basis_product(x, self.axes, transpose=False)

    def expand(self, z: np.ndarray) -> np.ndarray:
        """z Q^T: eigenbasis coordinates back to pixels."""
        return _basis_product(z, self.axes, transpose=True)

    def matrix(self, weights: np.ndarray) -> np.ndarray:
        """Q diag(weights) Q^T as a dense symmetric matrix."""
        if len(self.axes) == 1:
            vecs = self.axes[0]
            out = (vecs * weights) @ vecs.T
        else:
            out = self.expand(self.expand(np.diag(weights)).T)
        return (out + out.T) / 2.0


def _check_factor(factor: EigenFactor, n: int) -> None:
    """Raise unless factor has n eigenvalues and square axis blocks that tile n."""
    sides = [q.shape for q in factor.axes]
    if (factor.lam.shape != (n,) or len(sides) not in (1, 2)
            or any(len(q) != 2 or q[0] != q[1] for q in sides)
            or n % math.prod(q[0] for q in sides)):
        raise ValueError("factor does not match the prior's dimension")


def _eigen_factor(cov: np.ndarray) -> EigenFactor:
    """Dense factor of a PSD matrix by one eigh, lam clamped at 0."""
    lam, vecs = np.linalg.eigh(cov)
    return EigenFactor(np.maximum(lam, 0.0), (vecs,))


def _shrink_weights(lam: np.ndarray, t: float) -> np.ndarray:
    """lam / (lam + t^2), exactly 0 where lam = 0 (also when t^2 underflows to 0)."""
    return np.divide(lam, lam + t * t, out=np.zeros_like(lam), where=lam > 0.0)


def _denoise(mean: np.ndarray, factor: EigenFactor, x_t: np.ndarray, t: float) -> np.ndarray:
    """E[x | x_t] = mean + Q diag(lam/(lam+t^2)) Q^T (x_t - mean)."""
    t = _check_t(t)
    x_t = np.asarray(x_t, dtype=np.float64)
    resid = (x_t - mean).reshape(-1, factor.lam.size)
    out = mean + factor.expand(factor.coords(resid) * _shrink_weights(factor.lam, t))
    return out.reshape(x_t.shape)


def _denoise_cov(factor: EigenFactor, t: float) -> np.ndarray:
    """Var[x | x_t] = Q diag(lam (1 - lam/(lam+t^2))) Q^T, finite also at t^2 = inf."""
    lam = factor.lam
    return factor.matrix(lam * (1.0 - _shrink_weights(lam, _check_t(t))))


def _finite_or_raise(array: np.ndarray, sigma_y: float) -> np.ndarray:
    if not np.all(np.isfinite(array)):
        raise ValueError(
            f"conditioning on the measurement with sigma_y = {sigma_y:g} gave "
            "non-finite values; check the operator and the measurement noise level"
        )
    return array


def _parity_axis(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal even and odd bases of one image axis under the flip i -> size-1-i.

    Even columns: (e_i + e_{size-1-i})/sqrt(2) for i < size//2, then
    e_centre when size is odd.  Odd columns: (e_i - e_{size-1-i})/sqrt(2).
    """
    half, root = size // 2, math.sqrt(0.5)
    i = np.arange(half)
    even, odd = np.zeros((size, size - half)), np.zeros((size, half))
    even[i, i] = even[size - 1 - i, i] = odd[i, i] = root
    odd[size - 1 - i, i] = -root
    if size % 2:
        even[half, half] = 1.0
    return even, odd


def _parity_blocks(shape: tuple[int, int, int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-axis bases (B_h, B_w) of the four parity blocks of a (c, h, w) grid:
    even or odd rows times even or odd columns, every channel, in a fixed
    order (a block is empty when an axis has no odd part).  Together they
    form the orthonormal basis I_c (x) P_h (x) P_w, in which a matrix that
    commutes with both flips of the grid is block diagonal (Cantoni &
    Butler, Linear Algebra Appl. 13, 1976)."""
    _, h, w = shape
    return [(b_h, b_w) for b_h in _parity_axis(h) for b_w in _parity_axis(w)]


def _flip_gap(matrix: np.ndarray, row_shape, col_shape) -> float:
    """max |M - J M J| over the two image axes, where J reverses that axis of
    the rows' grid and of the columns' grid together."""
    grid = matrix.reshape(tuple(row_shape) + tuple(col_shape))
    return float(np.max([np.abs(grid - np.flip(grid, (axis, axis + 3))).max() for axis in (1, 2)]))


def _to_block(matrix: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """B_r^T M B_c for the block bases ``rows`` and ``cols`` (axes as in
    ``_basis_product``; ``()`` leaves that side as it is)."""
    half = _basis_product(matrix, cols, transpose=False)
    return _basis_product(half.T, rows, transpose=False).T


def _from_block(block: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """B_r M B_c^T: a block back in pixel coordinates."""
    half = _basis_product(block, cols, transpose=True)
    return _basis_product(half.T, rows, transpose=True).T


def _measurement_stage(cov, a, sigma_y):
    """Sigma A^T and the eigendecomposition of A Sigma A^T + sigma_y^2 I for one block."""
    sig_at = cov @ a.T
    gram = a @ sig_at + sigma_y * sigma_y * np.eye(a.shape[0])
    return (sig_at, *np.linalg.eigh(_finite_or_raise(gram, sigma_y)))


def _block_posterior(cov, sig_at, lam, vecs, floor):
    """Gain and Sigma_y of one block from its y-stage eigendecomposition,
    keeping the measurement directions whose variance exceeds floor."""
    keep = lam > floor
    lam, vecs = lam[keep], vecs[:, keep]
    root = (sig_at @ vecs) / np.sqrt(lam)
    gain = (root / np.sqrt(lam)) @ vecs.T
    cov = cov - root @ root.T
    return gain, (cov + cov.T) / 2.0


class GaussianPrior:
    """x ~ N(mean, Sigma); every conditional is available exactly.

    Sigma is given in one form.  A dense symmetric ``covariance`` is
    factored by one eigh when the factor is first used.  An ``EigenFactor``
    (``factor``, as ``rbf_prior`` builds it) is used as given, and
    ``covariance`` is then Q diag(lam) Q^T, formed once when first read:
    only the measurement-conditioned denoiser, ``posterior`` and
    ``joint_denoise_cov`` read it.
    """

    def __init__(self, mean, covariance: np.ndarray | None = None,
                 factor: EigenFactor | None = None):
        if (covariance is None) == (factor is None):
            raise ValueError("GaussianPrior takes either covariance= or factor=, "
                             "not both or neither")
        mu = np.ascontiguousarray(mean, dtype=np.float64)
        if mu.ndim != 1:
            raise ValueError("prior mean must be a vector")
        self.mean = mu
        if factor is not None:
            _check_factor(factor, mu.size)
            self.factor = factor
            return
        cov = np.ascontiguousarray(covariance, dtype=np.float64)
        if cov.shape != (mu.size, mu.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match dimension {mu.size}"
            )
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        self.covariance = (cov + cov.T) / 2.0

    @property
    def n(self) -> int:
        return self.mean.size

    @cached_property
    def covariance(self) -> np.ndarray:
        """Dense Sigma of a factor-form prior: Q diag(lam) Q^T, built on first read."""
        return self.factor.matrix(self.factor.lam)

    @cached_property
    def factor(self) -> EigenFactor:
        """Eigenfactor of a dense covariance, by one eigh on first use; shared by
        sample, denoise, denoise_cov and consistency().  Conditioned runs never
        need it."""
        return _eigen_factor(self.covariance)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """mean + (z * sqrt(lam)) Q^T with z ~ N(0, I): shape (n,) or (size, n)."""
        factor = self.factor
        z = rng.standard_normal(self.n if size is None else (size, self.n))
        return self.mean + factor.expand(z * np.sqrt(factor.lam))

    # --- conditioning on the latent alone -------------------------------
    def denoise(self, x_t: np.ndarray, t: float) -> np.ndarray:
        """E[x | x_t] = mean + Sigma (Sigma + t^2 I)^-1 (x_t - mean)."""
        return _denoise(self.mean, self.factor, x_t, t)

    def denoise_cov(self, t: float) -> np.ndarray:
        """Var[x | x_t] = t^2 Sigma (Sigma + t^2 I)^-1 (independent of x_t)."""
        return _denoise_cov(self.factor, t)

    # --- conditioning on the measurement --------------------------------
    def _block_bases(self, operator, a: np.ndarray) -> list[tuple[tuple, tuple]]:
        """(signal, measurement) block bases to condition in.

        The parity blocks of the operator's signal and measurement grids
        when the split is exact: A commutes with both image flips bit for
        bit, and Sigma to rounding (1e-12 of its largest entry), so that
        dropping its off-block entries is a rounding-level projection like
        its symmetrisation.  Otherwise one block in pixel coordinates.
        """
        meas_shape = getattr(operator, "measurement_shape", None)
        if meas_shape is not None:
            shape, cov = operator.signal_shape, self.covariance
            if (_flip_gap(a, meas_shape, shape) == 0.0
                    and _flip_gap(cov, shape, shape) <= 1e-12 * np.abs(cov).max()):
                return list(zip(_parity_blocks(shape), _parity_blocks(meas_shape)))
        return [((), ())]

    def _condition_on_measurement(self, operator, a: np.ndarray, sigma_y: float):
        """Gain K_y and the eigenfactor of Sigma_y of x | y, y = A x + sigma_y * noise.

        K_y = Sigma A^T (A Sigma A^T + sigma_y^2 I)^+ and
        Sigma_y = Sigma - K_y A Sigma depend on neither t nor y; the
        posterior mean is mean + K_y (y - A mean).  Sigma and A are split
        into the diagonal blocks of ``_block_bases`` (four parity blocks of
        about n/4 for a flip-invariant prior and operator, else one block),
        and each block takes one eigendecomposition of its part of
        A Sigma A^T + sigma_y^2 I and one of its part of Sigma_y.
        Measurement directions whose variance lies below working precision
        (relative to the largest over all blocks) carry no information and
        are dropped, so sigma_y = 0 stays exact where A Sigma A^T is
        numerically singular (a strong blur).  K_y and the factor's Q are
        returned dense, in pixel coordinates.
        """
        m, n = a.shape
        blocks = [(signal, measurement, _to_block(self.covariance, signal, signal))
                  for signal, measurement in self._block_bases(operator, a)
                  if all(q.shape[1] for q in signal)]  # an axis of length 1 has no odd part
        stages = [_measurement_stage(cov, _to_block(a, measurement, signal), sigma_y)
                  for signal, measurement, cov in blocks]
        top = max((lam[-1] for _, lam, _ in stages if lam.size), default=0.0)
        floor = top * m * np.finfo(np.float64).eps
        # one block at a time, each y-stage released before Sigma_y is factored
        parts = [_block_posterior(cov, *stages.pop(0), floor) for _, _, cov in blocks]
        # K_y^T accumulates C-ordered: each block's term comes out transposed
        gain_t = np.zeros((m, n))
        for (signal, measurement, _), (gain_k, _) in zip(blocks, parts):
            if gain_k.size:  # a block without measurements gains nothing
                gain_t += _from_block(gain_k, signal, measurement).T
        factors = [_eigen_factor(_finite_or_raise(cov_k, sigma_y)) for _, cov_k in parts]
        del parts
        # the factor's Q^T, a block of rows at a time
        q_t, start = np.empty((n, n)), 0
        for (signal, _, _), factor in zip(blocks, factors):
            stop = start + factor.lam.size
            q_t[start:stop] = _basis_product(factor.axes[0].T, signal, transpose=True)
            start = stop
        lam_y = np.concatenate([factor.lam for factor in factors])
        return _finite_or_raise(gain_t.T, sigma_y), EigenFactor(lam_y, (q_t.T,))

    def joint_denoise(
        self, x_t: np.ndarray, y: np.ndarray, t: float, operator, sigma_y: float
    ) -> np.ndarray:
        """E[x | x_t, y] for y = A x + sigma_y * noise, jointly Gaussian."""
        return self.measurement_consistency(operator, sigma_y)(x_t, y, t)

    def joint_denoise_cov(self, t: float, operator, sigma_y: float) -> np.ndarray:
        """Var[x | x_t, y] = t^2 Sigma_y (Sigma_y + t^2 I)^-1, free of x_t and y."""
        t = _check_t(t)
        _, factor = self._condition_on_measurement(operator, _as_matrix(operator), sigma_y)
        return _denoise_cov(factor, t)

    def posterior(self, operator, y: np.ndarray, sigma_y: float):
        """Mean and covariance of x | y under y = A x + sigma_y * noise; the
        covariance is Q diag(lam) Q^T from the eigenfactor of Sigma_y, with
        lam clamped at 0."""
        a = _as_matrix(operator)
        gain, factor = self._condition_on_measurement(operator, a, sigma_y)
        mean = self.mean + gain @ (np.asarray(y, dtype=np.float64) - a @ self.mean)
        return mean, factor.matrix(factor.lam)

    # --- consistency-function views -------------------------------------
    def consistency(self) -> ConsistencyFn:
        """Unconditional denoiser in consistency-function form (ignores y).

        Every level scales one cached factor of Sigma, so a call costs two
        matrix products and threads can share the closure.
        """
        factor = self.factor

        def fn(x_t, y, t):
            return _denoise(self.mean, factor, x_t, t)

        return fn

    def measurement_consistency(self, operator, sigma_y: float) -> ConsistencyFn:
        """Denoiser that conditions on both the latent and the measurement.

        x | y is Gaussian, N(mean_y, Sigma_y), so E[x | x_t, y] is plain
        denoising under that prior: mean_y + G_t (x_t - mean_y) with
        G_t = Sigma_y (Sigma_y + t^2 I)^-1.  The closure conditions on y
        and factors Sigma_y once, block by block (``_condition_on_measurement``:
        eight eigendecompositions of about n/4 x n/4 for a flip-invariant
        prior and operator, else one of m x m and one of n x n), so
        G_t = Q diag(lam/(lam+t^2)) Q^T at every level: a call costs three
        matrix products, with no solve, cache or lock.
        """
        a = _as_matrix(operator)
        m = a.shape[0]
        a_mu = a @ self.mean
        gain_y, factor = self._condition_on_measurement(operator, a, sigma_y)

        def fn(x_t, y, t):
            if y is None:
                raise ValueError("measurement-conditioned denoiser needs y")
            y = np.asarray(y, dtype=np.float64)
            mean_y = self.mean + (y.reshape(-1, m) - a_mu) @ gain_y.T
            return _denoise(mean_y, factor, x_t, t)

        return fn


@dataclass(frozen=True)
class EmpiricalPrior:
    """Finite atom set with weights; denoising is a softmax-weighted mean.

    The posterior weight of atom a_j given x_t is proportional to
    w_j * exp(-||x_t - a_j||^2 / (2 t^2)), so the denoised point always
    lies in the convex hull of the atoms.  As t -> 0 it snaps to the
    nearest atom; as t -> inf it approaches the weighted atom mean.
    """

    atoms: np.ndarray
    weights: np.ndarray | None = None
    log_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        atoms = np.ascontiguousarray(self.atoms, dtype=np.float64)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ValueError("atoms must be a non-empty (count, n) array")
        if self.weights is None:
            w = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
        else:
            w = np.ascontiguousarray(self.weights, dtype=np.float64)
            if w.shape != (atoms.shape[0],):
                raise ValueError("weights must align with the atom count")
            if np.any(w <= 0.0):
                raise ValueError("atom weights must be strictly positive")
            w = w / w.sum()
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "log_weights", np.log(w))

    @property
    def n(self) -> int:
        return self.atoms.shape[1]

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        idx = rng.choice(self.atoms.shape[0], size=size, p=self.weights)
        return self.atoms[idx]

    def denoise(self, x_t: np.ndarray, t: float) -> np.ndarray:
        t = _check_t(t)
        x_t = np.asarray(x_t, dtype=np.float64)
        return kernels.empirical_mean(self.atoms, self.log_weights, x_t, t)

    def consistency(self) -> ConsistencyFn:
        def fn(x_t, y, t):
            return self.denoise(x_t, t)

        return fn


def _rbf_axis(size: int, length_scale: float) -> np.ndarray:
    """exp(-(i - j)^2 / (2 length_scale^2)) over one image axis."""
    coords = np.arange(size, dtype=np.float64)
    diff = coords[:, None] - coords[None, :]
    return np.exp(-(diff * diff) / (2.0 * length_scale * length_scale))


def _check_rbf(length_scale: float, variance: float) -> None:
    if length_scale <= 0.0 or variance <= 0.0:
        raise ValueError("length_scale and variance must be positive")


def rbf_prior(shape: tuple[int, int, int], length_scale: float, variance: float = 1.0,
              mean_level: float = 0.0) -> GaussianPrior:
    """Squared-exponential Gaussian prior over an image grid, held as its exact factor.

    The covariance (see ``rbf_covariance``) is separable,
    Sigma = I_c (x) variance (K_h (x) K_w) + 1e-10 variance I with K the
    1-D RBF matrix of each axis (Saatci 2011; Rasmussen & Williams,
    GPML ch. 4).  One eigh per axis, K_h = Q_h diag(a) Q_h^T and
    K_w = Q_w diag(b) Q_w^T with a, b clamped at 0, therefore factors it
    exactly: Q = I_c (x) Q_h (x) Q_w and
    lam = tile(variance (a (x) b) + 1e-10 variance, c).  No n x n array is
    built here: sampling and denoising use the factor alone, and its
    eigenvectors, unlike those of a dense eigh, do not depend on the BLAS
    thread count for axes up to 128 pixels.
    """
    _check_rbf(length_scale, variance)
    c, h, w = shape
    axis_h = _eigen_factor(_rbf_axis(h, length_scale))
    axis_w = _eigen_factor(_rbf_axis(w, length_scale))
    lam = np.tile(variance * np.outer(axis_h.lam, axis_w.lam).ravel() + 1e-10 * variance, c)
    return GaussianPrior(
        mean=np.full(c * h * w, float(mean_level)),
        factor=EigenFactor(lam, (axis_h.axes[0], axis_w.axes[0])),
    )


def rbf_covariance(shape: tuple[int, int, int], length_scale: float, variance: float = 1.0) -> np.ndarray:
    """Squared-exponential covariance over an image grid, channels independent.

    Entry for pixels p, q (same channel) is
    variance * exp(-||coord_p - coord_q||^2 / (2 length_scale^2)); cross-channel
    blocks are zero.  A small diagonal jitter keeps the matrix numerically
    positive definite despite the fast eigenvalue decay.  Built as the
    Kronecker product of the per-axis RBF matrices: the closed-form
    reference for the covariance of ``rbf_prior``, which holds only its
    per-axis factor.
    """
    _check_rbf(length_scale, variance)
    c, h, w = shape
    # scale the h x h factor, so that no n x n temporary is made here
    block = np.kron(variance * _rbf_axis(h, length_scale), _rbf_axis(w, length_scale))
    block[np.diag_indices_from(block)] += 1e-10 * variance
    return block if c == 1 else np.kron(np.eye(c), block)
