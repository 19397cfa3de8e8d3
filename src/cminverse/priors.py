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

import threading
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import kernels


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


def _denoise_gain(cov: np.ndarray, t: float) -> np.ndarray:
    """cov (cov + t^2 I)^-1, the gain of E[x | x_t] under x ~ N(., cov)."""
    return np.linalg.solve(cov + t * t * np.eye(cov.shape[0]), cov).T


def _per_level(build):
    """Memoise build(t) per noise level.

    The lock makes every level's gain be built exactly once, also when a
    thread pool shares the closure and all workers miss the cache together.
    """
    gains: dict[float, np.ndarray] = {}
    lock = threading.Lock()

    def gain_at(t: float) -> np.ndarray:
        gain = gains.get(t)
        if gain is None:
            with lock:
                gain = gains.get(t)
                if gain is None:
                    gain = gains[t] = build(t)
        return gain

    return gain_at


def _finite_or_raise(array: np.ndarray, sigma_y: float) -> np.ndarray:
    if not np.all(np.isfinite(array)):
        raise ValueError(
            f"conditioning on the measurement with sigma_y = {sigma_y:g} gave "
            "non-finite values; check the operator and the measurement noise level"
        )
    return array


@dataclass(frozen=True)
class GaussianPrior:
    """x ~ N(mean, covariance); every conditional is available exactly."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mu = np.ascontiguousarray(self.mean, dtype=np.float64)
        cov = np.ascontiguousarray(self.covariance, dtype=np.float64)
        if mu.ndim != 1:
            raise ValueError("prior mean must be a vector")
        if cov.shape != (mu.size, mu.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match dimension {mu.size}"
            )
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "covariance", (cov + cov.T) / 2.0)

    @property
    def n(self) -> int:
        return self.mean.size

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        return rng.multivariate_normal(
            self.mean, self.covariance, size=size, method="svd"
        )

    # --- conditioning on the latent alone -------------------------------
    def denoise(self, x_t: np.ndarray, t: float) -> np.ndarray:
        """E[x | x_t] = mean + Sigma (Sigma + t^2 I)^-1 (x_t - mean)."""
        t = _check_t(t)
        x_t = np.asarray(x_t, dtype=np.float64)
        resid = (x_t - self.mean).reshape(-1, self.n)
        out = self.mean + resid @ _denoise_gain(self.covariance, t).T
        return out.reshape(x_t.shape)

    def denoise_cov(self, t: float) -> np.ndarray:
        """Var[x | x_t] = t^2 Sigma (Sigma + t^2 I)^-1 (independent of x_t)."""
        t = _check_t(t)
        cov = t * t * _denoise_gain(self.covariance, t)
        return (cov + cov.T) / 2.0

    # --- conditioning on the measurement --------------------------------
    def _condition_on_measurement(self, a: np.ndarray, sigma_y: float):
        """Gain K_y and covariance Sigma_y of x | y for y = A x + sigma_y * noise.

        K_y = Sigma A^T (A Sigma A^T + sigma_y^2 I)^+ and
        Sigma_y = Sigma - K_y A Sigma, from one m x m eigendecomposition
        that depends on neither t nor y.  The posterior mean is
        mean + K_y (y - A mean).  Directions of the measurement whose
        variance lies below working precision carry no information and
        are dropped, so sigma_y = 0 stays exact where A Sigma A^T is
        numerically singular (a strong blur).
        """
        sig_at = self.covariance @ a.T
        gram = a @ sig_at + sigma_y * sigma_y * np.eye(a.shape[0])
        lam, vecs = np.linalg.eigh(_finite_or_raise(gram, sigma_y))
        keep = lam > lam[-1] * a.shape[0] * np.finfo(np.float64).eps
        lam, vecs = lam[keep], vecs[:, keep]
        root = (sig_at @ vecs) / np.sqrt(lam)
        gain = (root / np.sqrt(lam)) @ vecs.T
        cov = self.covariance - root @ root.T
        cov = (cov + cov.T) / 2.0
        return _finite_or_raise(gain, sigma_y), _finite_or_raise(cov, sigma_y)

    def joint_denoise(
        self, x_t: np.ndarray, y: np.ndarray, t: float, operator, sigma_y: float
    ) -> np.ndarray:
        """E[x | x_t, y] for y = A x + sigma_y * noise, jointly Gaussian."""
        return self.measurement_consistency(operator, sigma_y)(x_t, y, t)

    def joint_denoise_cov(self, t: float, operator, sigma_y: float) -> np.ndarray:
        """Var[x | x_t, y] = t^2 Sigma_y (Sigma_y + t^2 I)^-1, free of x_t and y."""
        t = _check_t(t)
        _, cov_y = self._condition_on_measurement(_as_matrix(operator), sigma_y)
        cov = t * t * _denoise_gain(cov_y, t)
        return (cov + cov.T) / 2.0

    def posterior(self, operator, y: np.ndarray, sigma_y: float):
        """Mean and covariance of x | y under y = A x + sigma_y * noise."""
        a = _as_matrix(operator)
        gain, cov = self._condition_on_measurement(a, sigma_y)
        mean = self.mean + gain @ (np.asarray(y, dtype=np.float64) - a @ self.mean)
        return mean, cov

    # --- consistency-function views -------------------------------------
    def consistency(self) -> ConsistencyFn:
        """Unconditional denoiser in consistency-function form (ignores y).

        Gain matrices are cached per noise level, so repeated calls at the
        handful of levels a sampler visits cost one solve each.
        """
        gain_at = _per_level(lambda t: _denoise_gain(self.covariance, t))

        def fn(x_t, y, t):
            gain = gain_at(_check_t(t))
            x_t = np.asarray(x_t, dtype=np.float64)
            resid = (x_t - self.mean).reshape(-1, self.n)
            return (self.mean + resid @ gain.T).reshape(x_t.shape)

        return fn

    def measurement_consistency(self, operator, sigma_y: float) -> ConsistencyFn:
        """Denoiser that conditions on both the latent and the measurement.

        x | y is Gaussian, N(mean_y, Sigma_y), so E[x | x_t, y] is plain
        denoising under that prior: mean_y + G_t (x_t - mean_y) with
        G_t = Sigma_y (Sigma_y + t^2 I)^-1.  The closure conditions on y
        once (one m x m eigendecomposition) and caches G_t per level as in
        consistency() (one n x n solve each); a call then costs two
        matrix-vector products.
        """
        a = _as_matrix(operator)
        m = a.shape[0]
        a_mu = a @ self.mean
        gain_y, cov_y = self._condition_on_measurement(a, sigma_y)
        gain_at = _per_level(
            lambda t: _finite_or_raise(_denoise_gain(cov_y, t), sigma_y)
        )

        def fn(x_t, y, t):
            if y is None:
                raise ValueError("measurement-conditioned denoiser needs y")
            gain = gain_at(_check_t(t))
            x_t = np.asarray(x_t, dtype=np.float64)
            y = np.asarray(y, dtype=np.float64)
            single = x_t.ndim == 1
            mean_y = self.mean + (y.reshape(-1, m) - a_mu) @ gain_y.T
            out = mean_y + (x_t.reshape(-1, self.n) - mean_y) @ gain.T
            return out[0] if single else out

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

    @classmethod
    def from_atoms(cls, atoms, weights=None) -> "EmpiricalPrior":
        return cls(np.asarray(atoms, dtype=np.float64), weights)

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


def rbf_covariance(shape: tuple[int, int, int], length_scale: float, variance: float = 1.0) -> np.ndarray:
    """Squared-exponential covariance over an image grid, channels independent.

    Entry for pixels p, q (same channel) is
    variance * exp(-||coord_p - coord_q||^2 / (2 length_scale^2)); cross-channel
    blocks are zero.  A small diagonal jitter keeps Cholesky factorisations
    viable despite the fast eigenvalue decay.
    """
    if length_scale <= 0.0 or variance <= 0.0:
        raise ValueError("length_scale and variance must be positive")
    c, h, w = shape
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    coords = np.stack([rr.ravel(), cc.ravel()], axis=1).astype(np.float64)
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    block = variance * np.exp(-d2 / (2.0 * length_scale * length_scale))
    n = c * h * w
    cov = np.zeros((n, n))
    for ch in range(c):
        sl = slice(ch * h * w, (ch + 1) * h * w)
        cov[sl, sl] = block
    cov[np.diag_indices_from(cov)] += 1e-10 * variance
    return cov
