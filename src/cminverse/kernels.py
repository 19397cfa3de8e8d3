"""The hot kernels, in numpy: the spectral posterior update, the
discrete-prior posterior mean and windowed SSIM.

Callers go through the module attribute (``kernels.ssim_mean(...)``) so
that a tracer can wrap each kernel in place.
"""

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "python"


def ddrm_update(
    x_bar_next,
    x_bar_theta,
    y_bar,
    y_valid,
    s_padded,
    sigma_t,
    sigma_next,
    sigma_y,
    eta,
    eta_b,
    noise,
):
    """Per-coefficient spectral posterior update, one noise transition.

    Each index draws from one of three Gaussians keyed on the singular
    value s_i and the noise-to-signal ratio sigma_y / s_i:

      s_i = 0            : mean pulls along (x_next - x_theta) / sigma_next
      sigma_t <  sy/s_i  : mean pulls along (y_bar - x_theta) / (sy/s_i)
      sigma_t >= sy/s_i  : mean blends x_theta with y_bar via eta_b

    ``noise`` supplies the standard-normal draws, so the caller owns the
    random stream.  The coefficient arrays are (n,) vectors or (B, n)
    stacks; ``y_valid`` and ``s_padded`` are (n,) and broadcast over rows.
    """
    x_bar_theta = np.asarray(x_bar_theta, dtype=np.float64)
    y_bar = np.asarray(y_bar, dtype=np.float64)
    s = np.asarray(s_padded, dtype=np.float64)

    zero = s == 0.0
    nsr = np.divide(sigma_y, s, out=np.full_like(s, np.inf), where=~zero)
    case3 = ~zero & (sigma_t >= nsr)
    if np.any(~zero & ~np.asarray(y_valid, dtype=bool)):
        raise ValueError("spectral measurement required at an invalid index")

    pull = np.sqrt(max(1.0 - eta * eta, 0.0)) * sigma_t
    # The pulled cases share one form; the measurement-dominated case
    # overwrites its entries below.
    case2 = ~zero & ~case3
    toward = np.where(case2, y_bar, x_bar_next)
    scale = np.where(case2, nsr, sigma_next)
    mean = x_bar_theta + pull * (toward - x_bar_theta) / scale
    var3 = sigma_t * sigma_t - (np.where(case3, nsr, 0.0) * eta_b) ** 2
    if np.any(var3 < 0.0):
        raise ValueError(
            "negative variance in the measurement-dominated branch; "
            "eta_b is too large for this noise level"
        )
    mean = np.where(case3, (1.0 - eta_b) * x_bar_theta + eta_b * y_bar, mean)
    std = np.where(case3, np.sqrt(var3), eta * sigma_t)
    return mean + std * np.asarray(noise, dtype=np.float64)


def empirical_mean(atoms, log_weights, x, t):
    """Posterior mean under a discrete prior observed through x_t = x + t z.

    Weights are softmax(log_weights - ||x - a_j||^2 / (2 t^2)), computed
    with the max logit subtracted for stability.  ``x`` may be a single
    vector (n,) or a batch (B, n).
    """
    atoms = np.asarray(atoms, dtype=np.float64)
    log_weights = np.asarray(log_weights, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x

    # ||x - a||^2 via the Gram expansion; stabilised softmax follows.
    sq_x = np.einsum("bi,bi->b", xb, xb)
    sq_a = np.einsum("ji,ji->j", atoms, atoms)
    d = sq_x[:, None] + sq_a[None, :] - 2.0 * (xb @ atoms.T)
    logits = log_weights[None, :] - d / (2.0 * t * t)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    out = w @ atoms
    return out[0] if single else out


def ssim_mean(x, y, window, c1, c2):
    """Mean local SSIM of image pairs under a separable window.

    ``x`` and ``y`` are (..., h, w) stacks of 2-D images; each image's
    mean is over every valid window position (no padding), so a 2-D pair
    gives a float and a stack gives one mean per leading index.  The
    window is the unit-sum 1-D profile g of length K; the 2-D weights
    are outer(g, g), applied as one pass along each of the last two axes.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    g = np.asarray(window, dtype=np.float64)
    k = g.shape[0]
    if x.shape[-2] < k or x.shape[-1] < k:
        raise ValueError(f"image {x.shape[-2:]} smaller than window ({k}, {k})")

    win = np.lib.stride_tricks.sliding_window_view

    # One moment map at a time: filtering all five as one stack makes
    # temporaries five times larger, which measured slower on image stacks.
    def blur(image):
        return win(win(image, k, axis=-2) @ g, k, axis=-1) @ g

    mu_x, mu_y = blur(x), blur(y)
    var_x = blur(x * x) - mu_x * mu_x
    var_y = blur(y * y) - mu_y * mu_y
    cov = blur(x * y) - mu_x * mu_y

    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    means = np.mean(num / den, axis=(-2, -1))
    return float(means) if means.ndim == 0 else means
