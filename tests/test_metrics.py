import math

import numpy as np
import pytest

from cminverse.metrics import (
    feature_extract,
    frechet_distance,
    frechet_distance_with_clamp,
    frechet_fit,
    frechet_from_features,
    frechet_from_fits,
    gaussian_fit,
    gaussian_window,
    kid,
    kid_with_se,
    polynomial_kernel,
    psnr,
    ssim,
)
from cminverse.tensorio import write_tensor


def test_psnr_constant_offset_is_exact():
    # offset 0.1 everywhere: mse = 0.01, psnr = 10 log10(100) = 20
    rng = np.random.default_rng(0)
    img = rng.uniform(0.2, 0.8, size=(1, 8, 8))
    assert psnr(img + 0.1, img) == pytest.approx(20.0, abs=1e-9)
    assert psnr(img + 0.1, img) == psnr(img, img + 0.1)


def test_psnr_identical_is_infinite():
    img = np.zeros((1, 4, 4))
    assert psnr(img, img) == math.inf


def test_psnr_matches_two_pass_reference():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.0, 1.0, size=(3, 6, 5))
    b = rng.uniform(0.0, 1.0, size=(3, 6, 5))
    sq = math.fsum(float(v) ** 2 for v in (a - b).ravel())
    expected = 10.0 * math.log10(1.0 / (sq / a.size))
    assert psnr(a, b) == pytest.approx(expected, abs=1e-10)


def test_psnr_validation():
    with pytest.raises(ValueError):
        psnr(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))
    with pytest.raises(ValueError):
        psnr(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)), peak=0.0)


def test_ssim_self_is_one():
    rng = np.random.default_rng(2)
    img = rng.uniform(0.0, 1.0, size=(3, 16, 16))
    assert ssim(img, img) == 1.0


def test_ssim_constant_images_closed_form():
    # constant patches have zero variance, so only the luminance factor
    # survives: (2ab + C1) / (a^2 + b^2 + C1) with C1 = 1e-4
    a = np.full((1, 12, 12), 0.6)
    b = np.full((1, 12, 12), 0.4)
    expected = (2 * 0.6 * 0.4 + 1e-4) / (0.6**2 + 0.4**2 + 1e-4)
    assert expected == pytest.approx(0.9230917131320899, abs=1e-15)
    assert ssim(a, b) == pytest.approx(expected, abs=1e-12)


def test_ssim_anticorrelated_scores_low():
    rng = np.random.default_rng(3)
    img = rng.uniform(0.0, 1.0, size=(1, 16, 16))
    flipped = 1.0 - img
    assert ssim(img, flipped) < 0.5
    assert ssim(img, flipped) < ssim(img, img)


def test_ssim_window_rules():
    img = np.zeros((1, 16, 16))
    with pytest.raises(ValueError):
        ssim(img, img, window=4)  # even
    with pytest.raises(ValueError):
        ssim(img, img, window=1)  # too small
    with pytest.raises(ValueError):
        ssim(np.zeros((1, 5, 5)), np.zeros((1, 5, 5)))  # smaller than default 7
    # small images fall back to the 7-point window
    small = np.random.default_rng(4).uniform(size=(1, 8, 8))
    assert ssim(small, small) == 1.0


def test_gaussian_window_properties():
    g = gaussian_window(11)
    assert g.shape == (11,)
    assert g.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(g) == 5
    assert np.array_equal(g, g[::-1])
    win = np.outer(g, g)
    assert win.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(win) == 5 * 11 + 5
    assert np.array_equal(win, win.T)
    with pytest.raises(ValueError):
        gaussian_window(4)


def test_frechet_identical_gaussians():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert frechet_distance([1.0, -1.0], cov, [1.0, -1.0], cov) == pytest.approx(
        0.0, abs=1e-12
    )


def test_frechet_mean_shift_with_identity_covariance():
    # equal unit covariances: the trace terms cancel and only ||d||^2 is left
    eye = np.eye(3)
    d = np.array([0.3, -1.2, 2.0])
    expected = float(d @ d)
    assert frechet_distance(np.zeros(3), eye, d, eye) == pytest.approx(
        expected, abs=1e-10
    )


def test_frechet_diagonal_hand_value():
    # diff^2 = 2, traces 5 + 5, cross term 2 tr diag(sqrt(1*4), sqrt(4*1)) = 8
    value = frechet_distance(
        [0.0, 0.0], np.diag([1.0, 4.0]), [1.0, 1.0], np.diag([4.0, 1.0])
    )
    assert value == pytest.approx(4.0, abs=1e-8)


def test_frechet_symmetry():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    cov1, cov2 = a @ a.T, b @ b.T
    mu1, mu2 = rng.standard_normal(4), rng.standard_normal(4)
    assert frechet_distance(mu1, cov1, mu2, cov2) == pytest.approx(
        frechet_distance(mu2, cov2, mu1, cov1), abs=1e-8
    )


def test_frechet_reports_clamped_mass():
    bad = np.diag([1.0, -0.125])  # not a covariance; eigenvalue gets clamped
    value, clamp = frechet_distance_with_clamp(np.zeros(2), bad, np.zeros(2), np.eye(2))
    assert clamp >= 0.125
    assert value >= 0.0
    _, clean = frechet_distance_with_clamp(np.zeros(2), np.eye(2), np.zeros(2), np.eye(2))
    assert clean == pytest.approx(0.0, abs=1e-9)


def test_frechet_validation():
    with pytest.raises(ValueError):
        frechet_distance(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3))


def test_gaussian_fit_two_points():
    feats = np.array([[0.0, 0.0], [2.0, 4.0]])
    mu, cov = gaussian_fit(feats)
    assert np.allclose(mu, [1.0, 2.0])
    # with N=2 and /(N-1): cov = outer(d, d) / 2 for d = x1 - mean
    assert np.allclose(cov, [[2.0, 4.0], [4.0, 8.0]])
    with pytest.raises(ValueError):
        gaussian_fit(feats[:1])


def test_frechet_from_features_identical_sets():
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((40, 3))
    assert frechet_from_features(feats, feats.copy()) == pytest.approx(0.0, abs=1e-9)


def joint_span_frechet(x, y):
    """Covariance-route FID after projecting both sets onto their joint span,
    where both covariances have full rank."""
    span = np.concatenate([x - x.mean(axis=0), y - y.mean(axis=0),
                           (x.mean(axis=0) - y.mean(axis=0))[None, :]])
    basis, _ = np.linalg.qr(span.T)
    return frechet_distance(*gaussian_fit(x @ basis), *gaussian_fit(y @ basis))


def test_frechet_from_features_matches_covariance_route_at_full_rank():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((320, 256))
    y = 0.8 * rng.standard_normal((320, 256)) + 0.1
    expected = frechet_distance(*gaussian_fit(x), *gaussian_fit(y))
    assert frechet_from_features(x, y) == pytest.approx(expected, rel=0.0, abs=1e-10)


def test_frechet_from_features_rank_deficient_matches_joint_span_oracle():
    # 16 images of 1024 pixels: both covariances have rank 15
    rng = np.random.default_rng(22)
    x = rng.random((16, 1024))
    y = 0.9 * rng.random((16, 1024)) + 0.05
    assert frechet_from_features(x, y) == pytest.approx(
        joint_span_frechet(x, y), rel=0.0, abs=1e-6
    )


def test_frechet_from_features_self_distance_and_symmetry():
    rng = np.random.default_rng(23)
    x = rng.random((16, 1024))
    y = rng.random((12, 1024))
    assert frechet_from_features(x, x) == pytest.approx(0.0, abs=1e-9)
    assert frechet_from_features(x, y) == pytest.approx(
        frechet_from_features(y, x), rel=1e-12
    )
    with pytest.raises(ValueError, match="need at least 2 feature vectors"):
        frechet_from_features(x[:1], y)
    with pytest.raises(ValueError, match="moment dimensions disagree"):
        frechet_from_features(x, y[:, :5])


def test_frechet_from_a_cached_fit_is_the_features_distance_bit_for_bit():
    # tune-gamma fits the references once and scores every candidate
    # against that fit
    rng = np.random.default_rng(31)
    refs = rng.random((320, 256))
    fit = frechet_fit(refs)
    for _ in range(3):
        recs = refs + 0.05 * rng.standard_normal(refs.shape)
        assert frechet_from_fits(frechet_fit(recs), fit) == frechet_from_features(recs, refs)


def test_polynomial_kernel_unit_vector():
    # ||a||^2 = 1 in d = 4: (1/4 + 1)^3 = 1.953125 exactly
    a = np.array([[0.5, 0.5, 0.5, 0.5]])
    assert polynomial_kernel(a, a)[0, 0] == 1.953125
    zero = np.zeros((1, 4))
    assert polynomial_kernel(zero, zero)[0, 0] == 1.0


def _mmd2_reference(fx, fy):
    """Quadratic-time unbiased estimator written out pair by pair."""
    m, d = fx.shape

    def k(u, v):
        return (float(np.dot(u, v)) / d + 1.0) ** 3

    sx = math.fsum(k(fx[i], fx[j]) for i in range(m) for j in range(m) if i != j)
    sy = math.fsum(k(fy[i], fy[j]) for i in range(m) for j in range(m) if i != j)
    sxy = math.fsum(k(u, v) for u in fx for v in fy)
    return sx / (m * (m - 1)) + sy / (m * (m - 1)) - 2.0 * sxy / (m * m)


def test_kid_matches_brute_force_on_full_sets():
    rng = np.random.default_rng(7)
    fx = rng.standard_normal((6, 3))
    fy = rng.standard_normal((6, 3)) + 0.5
    # one subset of the full set is a row permutation, and the estimator
    # sums over all pairs, so the subsampled value equals the direct one
    expected = 1000.0 * _mmd2_reference(fx, fy)
    assert kid(fx, fy, subset_size=6, n_subsets=1, seed=0) == pytest.approx(
        expected, abs=1e-8
    )


def test_kid_same_set_is_zero_within_noise():
    rng = np.random.default_rng(8)
    pool = rng.standard_normal((500, 4))
    value, se = kid_with_se(pool, pool, subset_size=50, n_subsets=10, seed=9)
    assert se > 0.0
    # unbiased up to the shared-pool overlap term, which is far below the
    # subset-to-subset spread at this pool size
    assert abs(value) <= 3.0 * se + 60.0


def test_kid_separates_distinct_distributions():
    rng = np.random.default_rng(10)
    fx = rng.standard_normal((500, 4))
    fy = rng.standard_normal((500, 4)) + 2.0
    far = kid(fx, fy, subset_size=50, n_subsets=10, seed=11)
    near, se = kid_with_se(fx, fx, subset_size=50, n_subsets=10, seed=11)
    assert far > 0.0
    assert far > 10.0 * abs(near)
    assert far > 10.0 * se


def test_kid_is_seed_deterministic():
    rng = np.random.default_rng(12)
    fx = rng.standard_normal((60, 4))
    fy = rng.standard_normal((60, 4))
    a = kid(fx, fy, subset_size=20, n_subsets=5, seed=3)
    b = kid(fx, fy, subset_size=20, n_subsets=5, seed=3)
    c = kid(fx, fy, subset_size=20, n_subsets=5, seed=4)
    assert a == b
    assert a != c


@pytest.mark.parametrize("fn", [kid, kid_with_se])
def test_kid_validation(fn):
    fx = np.zeros((10, 4))
    with pytest.raises(ValueError):
        fn(fx, np.zeros((10, 3)))  # dimension mismatch
    with pytest.raises(ValueError):
        fn(fx, fx, subset_size=11)  # not enough vectors
    with pytest.raises(ValueError):
        fn(fx, fx, subset_size=1)
    with pytest.raises(ValueError):
        fn(fx, fx, subset_size=5, n_subsets=0)


def test_feature_extract_raw_is_row_major():
    img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    out = feature_extract(img, mode="raw_pixels")
    assert np.array_equal(out, [1.0, 2.0, 3.0, 4.0])
    out[0] = -1.0  # returned vector must not alias the input
    assert img[0, 0, 0] == 1.0


def test_feature_extract_pooled_block_means():
    img = np.zeros((1, 4, 4))
    img[0, :2, :2] = 1.0
    img[0, 2:, 2:] = 3.0
    out = feature_extract(img, mode="pooled_patches", pool=2)
    assert np.array_equal(out, [1.0, 0.0, 0.0, 3.0])
    with pytest.raises(ValueError):
        feature_extract(np.zeros((1, 4, 4)), mode="pooled_patches", pool=3)


def test_feature_extract_external_file(tmp_path):
    table = np.arange(15, dtype=np.float64).reshape(3, 5)
    path = tmp_path / "features.cmt"
    write_tensor(path, table)
    row = feature_extract(None, mode="external_file", feature_file=str(path), index=1)
    assert np.array_equal(row, [5.0, 6.0, 7.0, 8.0, 9.0])
    with pytest.raises(ValueError):
        feature_extract(None, mode="external_file", feature_file=str(path), index=3)
    with pytest.raises(ValueError):
        feature_extract(None, mode="external_file", feature_file=str(path))
    with pytest.raises(ValueError):
        feature_extract(None, mode="bogus")


def _stack_pair(count, channels, side, seed):
    rng = np.random.default_rng(seed)
    refs = rng.uniform(0.0, 1.0, size=(count, channels, side, side))
    recs = np.clip(refs + 0.1 * rng.standard_normal(refs.shape), 0.0, 1.0)
    return recs, refs


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("side", [16, 32])  # default SSIM windows 7 and 11
def test_stack_scores_equal_per_image_scores(channels, side):
    recs, refs = _stack_pair(5, channels, side, seed=10 * channels + side)
    recs[2] = refs[2]  # one identical pair
    stack_psnr, stack_ssim = psnr(recs, refs), ssim(recs, refs)
    assert stack_psnr.shape == stack_ssim.shape == (5,)
    for i in range(5):
        one_psnr, one_ssim = psnr(recs[i], refs[i]), ssim(recs[i], refs[i])
        assert isinstance(one_psnr, float) and isinstance(one_ssim, float)
        if i != 2:
            assert abs(stack_psnr[i] - one_psnr) <= 1e-12
        assert abs(stack_ssim[i] - one_ssim) <= 1e-12
    assert stack_psnr[2] == math.inf and psnr(recs[2], refs[2]) == math.inf
    assert stack_ssim[2] == 1.0 and ssim(recs[2], refs[2]) == 1.0


def test_two_dimensional_image_is_one_channel():
    recs, refs = _stack_pair(1, 1, 16, seed=4)
    x, y = recs[0, 0], refs[0, 0]
    assert psnr(x, y) == psnr(x[None], y[None])
    assert ssim(x, y) == ssim(x[None], y[None])
    for mode in ("raw_pixels", "pooled_patches"):
        assert np.array_equal(feature_extract(x, mode), feature_extract(x[None], mode))
    with pytest.raises(ValueError):
        psnr(np.zeros(4), np.zeros(4))


@pytest.mark.parametrize("mode", ["raw_pixels", "pooled_patches"])
def test_feature_extract_stack_equals_rows(mode):
    recs, _ = _stack_pair(5, 3, 8, seed=5)
    table = feature_extract(recs, mode)
    assert table.shape[0] == 5
    for i in range(5):
        assert np.array_equal(table[i], feature_extract(recs[i], mode))
