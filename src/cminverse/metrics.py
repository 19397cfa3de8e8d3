"""Reconstruction fidelity and distribution-distance metrics.

PSNR and SSIM score reconstructions against references, one image or a
whole (N, c, h, w) stack per call; the Fréchet distance and KID compare
whole sets through pluggable feature vectors (raw pixels by default --
no neural feature extractor ships with the package, but precomputed
features can be read from a tensor file).
"""

import math

import numpy as np

from . import kernels
from .tensorio import read_tensor

FEATURE_MODES = ("raw_pixels", "pooled_patches", "external_file")
MIN_SSIM_WINDOW = 7  # the window ssim takes when the smaller image side is under 32


def _as_chw(x) -> np.ndarray:
    """A (..., c, h, w) float64 array; a 2-D (h, w) image becomes (1, h, w)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim < 3:
        raise ValueError(f"expected (..., c, h, w) or (h, w) images, got shape {arr.shape}")
    return arr


def _image_pair(x, reference):
    a, b = _as_chw(x), _as_chw(reference)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def _per_image(values: np.ndarray):
    """A float for a single image, else the array of per-image values."""
    return float(values) if values.ndim == 0 else values


def psnr(x, reference, peak: float = 1.0):
    """10 log10(peak^2 / MSE) over the last three axes; identical images
    give inf.  A single image gives a float, an (N, c, h, w) stack N values."""
    if peak <= 0.0:
        raise ValueError(f"peak must be positive, got {peak}")
    a, b = _image_pair(x, reference)
    mse = np.mean((a - b) ** 2, axis=(-3, -2, -1))
    with np.errstate(divide="ignore"):
        return _per_image(10.0 * np.log10(peak * peak / mse))


def gaussian_window(size: int, sigma: float = 1.5) -> np.ndarray:
    """Unit-sum 1-D Gaussian profile of odd length; the 2-D SSIM window
    is its outer product with itself."""
    if size < 3 or size % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {size}")
    half = size // 2
    g = np.exp(-0.5 * (np.arange(-half, half + 1) / sigma) ** 2)
    return g / g.sum()


def ssim(
    x,
    reference,
    window: int | None = None,
    k1: float = 0.01,
    k2: float = 0.03,
    peak: float = 1.0,
):
    """Mean local structural similarity under a Gaussian-weighted window.

    Acts on the last three axes like ``psnr``.  The window defaults to 11
    (7 when the smaller image side is under 32).  Channels are scored
    independently and averaged.
    """
    a, b = _image_pair(x, reference)
    h, w = a.shape[-2:]
    if window is None:
        window = 11 if min(h, w) >= 32 else MIN_SSIM_WINDOW
    if min(h, w) < window:
        raise ValueError(f"image {h}x{w} is smaller than the {window} window")
    win = gaussian_window(window)
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    return _per_image(kernels.ssim_mean(a, b, win, c1, c2).mean(axis=-1))


def _psd_sqrt(cov: np.ndarray):
    vals, vecs = np.linalg.eigh(cov)
    clamp = float(-np.sum(vals[vals < 0.0]))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T, clamp


def frechet_distance_with_clamp(mu1, cov1, mu2, cov2):
    """Fréchet distance between two Gaussians plus the eigenvalue mass
    that had to be clamped to zero to take the matrix square roots."""
    mu1 = np.asarray(mu1, dtype=np.float64).ravel()
    mu2 = np.asarray(mu2, dtype=np.float64).ravel()
    cov1 = np.asarray(cov1, dtype=np.float64)
    cov2 = np.asarray(cov2, dtype=np.float64)
    d = mu1.size
    if mu2.size != d or cov1.shape != (d, d) or cov2.shape != (d, d):
        raise ValueError("moment dimensions disagree")
    root1, clamp1 = _psd_sqrt(cov1)
    cross_vals = np.linalg.eigvalsh(root1 @ cov2 @ root1)
    clamp2 = float(-np.sum(cross_vals[cross_vals < 0.0]))
    cross = 2.0 * float(np.sqrt(np.clip(cross_vals, 0.0, None)).sum())
    diff = mu1 - mu2
    value = float(diff @ diff + np.trace(cov1) + np.trace(cov2) - cross)
    return max(value, 0.0), clamp1 + clamp2


def frechet_distance(mu1, cov1, mu2, cov2) -> float:
    """||mu1-mu2||^2 + trace(cov1 + cov2 - 2 (cov1 cov2)^(1/2)), >= 0."""
    return frechet_distance_with_clamp(mu1, cov1, mu2, cov2)[0]


def _feature_stack(features) -> np.ndarray:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 2:
        raise ValueError("need at least 2 feature vectors")
    return feats


def gaussian_fit(features) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance of a (count, d) feature stack."""
    feats = _feature_stack(features)
    mu = feats.mean(axis=0)
    centered = feats - mu
    cov = centered.T @ centered / (feats.shape[0] - 1)
    return mu, cov


def _mean_and_r(features):
    """Mean, R factor of the centered stack, and N - 1 (cov = R^T R / (N - 1))."""
    feats = _feature_stack(features)
    mu = feats.mean(axis=0)
    return mu, np.linalg.qr(feats - mu, mode="r"), feats.shape[0] - 1


def frechet_from_features(features_x, features_y) -> float:
    """Fréchet distance between the Gaussian fits of two (count, d) stacks.

    With cov_i = R_i^T R_i / (N_i - 1), trace((cov1 cov2)^(1/2)) is the sum
    of singular values of R1 R2^T / sqrt((N1 - 1)(N2 - 1)).  R_i has
    min(N_i, d) rows, so no d x d matrix is formed, and the value is exact
    for any N and d: no round-off eigenvalue of a rank-deficient
    covariance enters a square root.
    """
    mu1, r1, dof1 = _mean_and_r(features_x)
    mu2, r2, dof2 = _mean_and_r(features_y)
    if mu1.size != mu2.size:
        raise ValueError("moment dimensions disagree")
    diff = mu1 - mu2
    cross = np.linalg.svd(r1 @ r2.T, compute_uv=False).sum()
    value = float(
        diff @ diff
        + np.sum(r1 * r1) / dof1
        + np.sum(r2 * r2) / dof2
        - 2.0 * cross / math.sqrt(dof1 * dof2)
    )
    return max(value, 0.0)


def polynomial_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """k(a, b) = (a.b / d + 1)^3 on stacks of feature vectors."""
    d = a.shape[-1]
    return (a @ b.T / d + 1.0) ** 3


def _unbiased_mmd2(fx: np.ndarray, fy: np.ndarray) -> float:
    m = fx.shape[0]
    kxx = polynomial_kernel(fx, fx)
    kyy = polynomial_kernel(fy, fy)
    kxy = polynomial_kernel(fx, fy)
    sum_off_x = kxx.sum() - np.trace(kxx)
    sum_off_y = kyy.sum() - np.trace(kyy)
    return float(
        sum_off_x / (m * (m - 1)) + sum_off_y / (m * (m - 1)) - 2.0 * kxy.mean()
    )


def kid_with_se(
    features_x,
    features_y,
    subset_size: int = 50,
    n_subsets: int = 10,
    seed: int = 0,
) -> tuple[float, float]:
    """KID and the standard error of its subset mean, both x1000.

    KID is the unbiased MMD^2 with a degree-3 polynomial kernel.  Each of
    the n_subsets rounds draws subset_size vectors without replacement
    from both sets (seeded), computes the unbiased estimator, and the
    rounds are averaged.  One round has no spread, so its error is 0.
    """
    fx = np.asarray(features_x, dtype=np.float64)
    fy = np.asarray(features_y, dtype=np.float64)
    if fx.ndim != 2 or fy.ndim != 2 or fx.shape[1] != fy.shape[1]:
        raise ValueError("feature sets must be 2-D with equal dimension")
    if subset_size < 2:
        raise ValueError(f"subset_size must be >= 2, got {subset_size}")
    if n_subsets < 1:
        raise ValueError(f"n_subsets must be >= 1, got {n_subsets}")
    if fx.shape[0] < subset_size or fy.shape[0] < subset_size:
        raise ValueError(
            f"need at least subset_size={subset_size} vectors per set, "
            f"got {fx.shape[0]} and {fy.shape[0]}"
        )
    rng = np.random.default_rng(seed)
    estimates = []
    for _ in range(n_subsets):
        ix = rng.choice(fx.shape[0], size=subset_size, replace=False)
        iy = rng.choice(fy.shape[0], size=subset_size, replace=False)
        estimates.append(_unbiased_mmd2(fx[ix], fy[iy]))
    estimates = np.asarray(estimates)
    se = estimates.std(ddof=1) / math.sqrt(n_subsets) if n_subsets > 1 else 0.0
    return 1000.0 * float(estimates.mean()), 1000.0 * float(se)


def kid(
    features_x,
    features_y,
    subset_size: int = 50,
    n_subsets: int = 10,
    seed: int = 0,
) -> float:
    """KID x1000 (see kid_with_se)."""
    return kid_with_se(features_x, features_y, subset_size, n_subsets, seed)[0]


def feature_extract(
    x,
    mode: str = "raw_pixels",
    pool: int = 2,
    feature_file: str | None = None,
    index: int | np.ndarray | None = None,
) -> np.ndarray:
    """Turn images into feature vectors: one image gives a (d,) vector, an
    (N, c, h, w) stack an (N, d) table.

    raw_pixels flattens each image; pooled_patches block-averages
    non-overlapping pool x pool patches first; external_file ignores
    ``x`` and returns row ``index`` of a precomputed (count, d) tensor
    file, or the rows of an index array from one read of it.
    """
    if mode not in FEATURE_MODES:
        raise ValueError(f"mode must be one of {FEATURE_MODES}, got {mode!r}")
    if mode == "external_file":
        if feature_file is None or index is None:
            raise ValueError("external_file mode needs feature_file and index")
        table = read_tensor(feature_file)
        if table.ndim != 2:
            raise ValueError(f"{feature_file}: expected a (count, d) feature table")
        rows = np.asarray(index)
        stray = rows[(rows < 0) | (rows >= table.shape[0])]
        if stray.size:
            raise ValueError(
                f"feature index {stray[0]} out of range for {table.shape[0]} rows"
            )
        return table[index]
    arr = _as_chw(x)
    lead = arr.shape[:-3]
    if mode == "raw_pixels":
        return arr.reshape(lead + (-1,)).copy()
    c, h, w = arr.shape[-3:]
    if pool < 1 or h % pool or w % pool:
        raise ValueError(f"pool {pool} must divide image sides {h}x{w}")
    pooled = arr.reshape(lead + (c, h // pool, pool, w // pool, pool)).mean(axis=(-3, -1))
    return pooled.reshape(lead + (-1,))
