import math

import numpy as np
import pytest

from cminverse import kernels
from cminverse.metrics import gaussian_window


def _random_ddrm_inputs(seed, n=12):
    rng = np.random.default_rng(seed)
    s = np.concatenate([rng.uniform(0.3, 2.0, size=n - 3), np.zeros(3)])
    valid = s > 0.0
    y_bar = np.where(valid, rng.standard_normal(n), 0.0)
    return dict(
        x_bar_next=rng.standard_normal(n),
        x_bar_theta=rng.standard_normal(n),
        y_bar=y_bar,
        y_valid=valid,
        s_padded=s,
        sigma_t=0.4,
        sigma_next=1.1,
        sigma_y=0.3,
        eta=0.85,
        eta_b=1.0,
        noise=rng.standard_normal(n),
    )


def test_ddrm_three_cases_hand_values():
    # Diagonal spectrum s = [2, 0.5, 0] with sigma_y = 0.2 splits the
    # noise-to-signal ratios into [0.1, 0.4, inf]; at sigma_t = 0.2 the
    # three indices land in the three distinct cases.
    x_next = np.array([0.3, -0.2, 0.5])
    x_theta = np.array([0.1, 0.4, -0.3])
    y_bar = np.array([1.0, -1.0, 0.0])
    valid = np.array([True, True, False])
    s = np.array([2.0, 0.5, 0.0])
    noise = np.array([1.0, -1.0, 2.0])
    out = kernels.ddrm_update(
        x_next, x_theta, y_bar, valid, s, 0.2, 1.0, 0.2, 0.85, 1.0, noise
    )
    pull = math.sqrt(1.0 - 0.85**2) * 0.2
    # index 0: sigma_t >= nsr -> mean y_bar, var sigma_t^2 - nsr^2
    assert out[0] == pytest.approx(1.0 + math.sqrt(0.04 - 0.01) * 1.0, rel=1e-12)
    # index 1: sigma_t < nsr -> pull toward y_bar scaled by sigma_t/nsr
    mean1 = 0.4 + pull * (-1.0 - 0.4) / 0.4
    assert out[1] == pytest.approx(mean1 + 0.85 * 0.2 * -1.0, rel=1e-12)
    # index 2: s = 0 -> pull along the previous iterate
    mean2 = -0.3 + pull * (0.5 - (-0.3)) / 1.0
    assert out[2] == pytest.approx(mean2 + 0.85 * 0.2 * 2.0, rel=1e-12)


def test_ddrm_rejects_invalid_measured_coordinate():
    kw = _random_ddrm_inputs(3)
    kw["y_valid"] = np.zeros_like(kw["y_valid"])  # all invalid but s > 0
    with pytest.raises(ValueError):
        kernels.ddrm_update(**kw)


def test_ddrm_case3_variance_edge():
    # At sigma_t = sigma_y / s with eta_b = 1 the case-3 variance is
    # exactly zero (allowed); eta_b > 1 drives it negative (rejected).
    kw = _random_ddrm_inputs(4, n=4)
    kw.update(
        s_padded=np.ones(4),
        y_valid=np.ones(4, dtype=bool),
        y_bar=np.ones(4),
        sigma_y=0.5,
        sigma_t=0.5,
        sigma_next=1.0,
        eta_b=1.0,
    )
    out = kernels.ddrm_update(**kw)
    assert np.array_equal(out, np.ones(4))  # deterministic at zero variance
    kw["eta_b"] = 1.2
    with pytest.raises(ValueError):
        kernels.ddrm_update(**kw)


def test_empirical_mean_limits():
    atoms = np.array([[0.0], [1.0]])
    logw = np.log(np.array([0.25, 0.75]))
    # tiny t snaps to the nearest atom
    near = kernels.empirical_mean(atoms, logw, np.array([0.9]), 1e-3)
    assert near[0] == pytest.approx(1.0, abs=1e-12)
    # huge t approaches the weighted atom mean
    far = kernels.empirical_mean(atoms, logw, np.array([0.4]), 1e6)
    assert far[0] == pytest.approx(0.75, abs=1e-6)


def test_empirical_mean_extreme_distances_stay_finite():
    atoms = np.array([[0.0], [1000.0]])
    logw = np.log(np.array([0.5, 0.5]))
    out = kernels.empirical_mean(atoms, logw, np.array([-500.0]), 0.01)
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(0.0, abs=1e-9)


def _ssim_brute_force(x, y, window2d, c1, c2):
    """Weighted-moment SSIM, one window position at a time."""
    k = window2d.shape[0]
    rows, cols = x.shape[0] - k + 1, x.shape[1] - k + 1
    total = 0.0
    for i in range(rows):
        for j in range(cols):
            px, py = x[i : i + k, j : j + k], y[i : i + k, j : j + k]
            mx, my = np.sum(window2d * px), np.sum(window2d * py)
            vx = np.sum(window2d * px * px) - mx * mx
            vy = np.sum(window2d * py * py) - my * my
            cxy = np.sum(window2d * px * py) - mx * my
            total += ((2 * mx * my + c1) * (2 * cxy + c2)) / (
                (mx * mx + my * my + c1) * (vx + vy + c2)
            )
    return total / (rows * cols)


@pytest.mark.parametrize("size", [16, 32, 64])
@pytest.mark.parametrize("k", [7, 11])
def test_ssim_matches_brute_force_2d_window(size, k):
    rng = np.random.default_rng(size + k)
    x = rng.random((size, size))
    y = np.clip(x + 0.2 * rng.standard_normal((size, size)), 0.0, 1.0)
    half = k // 2
    r2 = np.add.outer(np.arange(-half, half + 1) ** 2, np.arange(-half, half + 1) ** 2)
    window2d = np.exp(-0.5 * r2 / 1.5**2)
    window2d /= window2d.sum()
    got = kernels.ssim_mean(x, y, gaussian_window(k), 1e-4, 9e-4)
    want = _ssim_brute_force(x, y, window2d, 1e-4, 9e-4)
    assert abs(got - want) <= 1e-14


def test_ssim_stack_gives_one_mean_per_image():
    rng = np.random.default_rng(8)
    x = rng.random((2, 3, 12, 12))
    y = np.clip(x + 0.2 * rng.standard_normal(x.shape), 0.0, 1.0)
    window = gaussian_window(7)
    got = kernels.ssim_mean(x, y, window, 1e-4, 9e-4)
    assert got.shape == (2, 3)
    for i in range(2):
        for ch in range(3):
            assert got[i, ch] == kernels.ssim_mean(x[i, ch], y[i, ch], window, 1e-4, 9e-4)


def test_ssim_window_larger_than_image_raises():
    with pytest.raises(ValueError):
        kernels.ssim_mean(np.zeros((3, 3)), np.zeros((3, 3)), np.ones(5) / 5, 1e-4, 9e-4)


def test_backend_name_is_python():
    assert kernels.backend_name() == "python"
