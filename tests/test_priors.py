import contextlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cminverse import priors
from cminverse.operators import (
    DenseOperator,
    IdentityOperator,
    InpaintOperator,
    make_centered_square_inpaint,
    make_downsample,
    make_gaussian_blur,
)
from cminverse.priors import (
    EmpiricalPrior,
    GaussianPrior,
    rbf_covariance,
    rbf_prior,
)
from cminverse.schedules import DEFAULT_T_MAX, DEFAULT_T_MIN


def operator_matrix(op):
    """A as its dense (m, n) matrix, for the oracles: apply on the identity."""
    return op.apply(np.eye(op.n)).T


def small_prior(seed=0, n=5):
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((n, n))
    return GaussianPrior(mean=rng.standard_normal(n), covariance=root @ root.T / n)


def test_scalar_denoise_hand_value():
    # Sigma = 2, t = 1, mu = 0: gain is 2/3, so x_t = 1.5 denoises to 1.0.
    prior = GaussianPrior(mean=np.zeros(1), covariance=np.array([[2.0]]))
    assert prior.denoise(np.array([1.5]), 1.0)[0] == pytest.approx(1.0, rel=1e-12)
    assert prior.denoise_cov(1.0)[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_denoise_approaches_identity_at_small_t():
    prior = small_prior()
    x_t = np.arange(5.0)
    out = prior.denoise(x_t, 1e-6)
    assert np.allclose(out, x_t, atol=1e-9)


def test_denoise_approaches_prior_mean_at_large_t():
    prior = small_prior()
    out = prior.denoise(np.arange(5.0), 1e6)
    assert np.allclose(out, prior.mean, atol=1e-9)


def _conditional_oracle(mean, cov, obs_mat, obs_noise_cov, obs_value):
    """Condition a joint Gaussian by brute force: x plus o = M x + e."""
    cross = cov @ obs_mat.T
    obs_cov = obs_mat @ cov @ obs_mat.T + obs_noise_cov
    gain = cross @ np.linalg.pinv(obs_cov)
    cond_mean = mean + gain @ (obs_value - obs_mat @ mean)
    cond_cov = cov - gain @ cross.T
    return cond_mean, cond_cov


def closure_cov(fn, x_t, y, t):
    """Var[x | x_t, y] = t^2 G_t of a conditioned closure, which is affine in
    x_t with slope G_t: its response to a probe of t^2 along each axis."""
    return fn(x_t + t * t * np.eye(x_t.size), y, t) - fn(x_t, y, t)


def test_joint_denoise_matches_brute_force_conditioning():
    rng = np.random.default_rng(1)
    prior = small_prior(1)
    n = prior.n
    a = rng.standard_normal((3, n))
    op = DenseOperator(a)
    t, sigma_y = 0.8, 0.1
    x_t = rng.standard_normal(n)
    y = rng.standard_normal(3)

    # stack x_t and y into one observation of x
    obs_mat = np.concatenate([np.eye(n), a], axis=0)
    noise_cov = np.zeros((n + 3, n + 3))
    noise_cov[:n, :n] = t * t * np.eye(n)
    noise_cov[n:, n:] = sigma_y * sigma_y * np.eye(3)
    oracle_mean, oracle_cov = _conditional_oracle(
        prior.mean, prior.covariance, obs_mat, noise_cov, np.concatenate([x_t, y])
    )

    fn = prior.measurement_consistency(op, sigma_y)
    assert np.allclose(fn(x_t, y, t), oracle_mean, atol=1e-8)
    assert np.allclose(closure_cov(fn, x_t, y, t), oracle_cov, atol=1e-8)


def test_posterior_matches_brute_force_conditioning():
    rng = np.random.default_rng(2)
    prior = small_prior(2)
    a = rng.standard_normal((3, prior.n))
    y = rng.standard_normal(3)
    sigma_y = 0.05
    oracle_mean, oracle_cov = _conditional_oracle(
        prior.mean, prior.covariance, a, sigma_y**2 * np.eye(3), y
    )
    mean, cov = prior.posterior(DenseOperator(a), y, sigma_y)
    assert np.allclose(mean, oracle_mean, atol=1e-8)
    assert np.allclose(cov, oracle_cov, atol=1e-8)


def test_consistency_closures_match_methods():
    rng = np.random.default_rng(4)
    prior = small_prior(4)
    op = IdentityOperator(1, 1, prior.n)
    x_t = rng.standard_normal(prior.n)
    y = rng.standard_normal(prior.n)

    unc = prior.consistency()
    assert np.allclose(unc(x_t, None, 0.7), prior.denoise(x_t, 0.7), atol=1e-10)

    cond = prior.measurement_consistency(op, 0.05)
    oracle_mean, _ = _joint_oracle(prior, operator_matrix(op), 0.05, x_t, y, 0.7)
    assert np.allclose(cond(x_t, y, 0.7), oracle_mean, atol=1e-8)
    # repeated calls at one level give identical results
    assert np.array_equal(cond(x_t, y, 0.7), cond(x_t, y, 0.7))


def test_measurement_consistency_requires_y():
    prior = small_prior(5)
    fn = prior.measurement_consistency(IdentityOperator(1, 1, prior.n), 0.1)
    with pytest.raises(ValueError):
        fn(np.zeros(prior.n), None, 1.0)


def test_joint_denoise_interpolates_between_information_sources():
    # with a nearly exact measurement the joint denoiser must track the
    # posterior given y; with huge sigma_y it must track plain denoising
    rng = np.random.default_rng(6)
    prior = small_prior(6)
    op = IdentityOperator(1, 1, prior.n)
    x = prior.sample(rng)
    x_t = x + 1.0 * rng.standard_normal(prior.n)
    y = x + 1e-8 * rng.standard_normal(prior.n)
    assert np.allclose(prior.measurement_consistency(op, 1e-8)(x_t, y, 1.0), x, atol=1e-5)
    loose = prior.measurement_consistency(op, 1e8)(x_t, y, 1.0)
    assert np.allclose(loose, prior.denoise(x_t, 1.0), atol=1e-5)


def test_denoise_cov_is_psd_and_bounded_by_t_squared():
    prior = small_prior(7)
    for t in (0.1, 1.0, 10.0):
        cov = prior.denoise_cov(t)
        vals = np.linalg.eigvalsh(cov)
        assert vals.min() >= -1e-10
        assert vals.max() <= t * t + 1e-10


def _joint_oracle(prior, a, sigma_y, x_t, y, t):
    """E and Var of x given the stacked (n+m) observation (x_t, y)."""
    n, m = prior.n, a.shape[0]
    noise_cov = np.zeros((n + m, n + m))
    noise_cov[:n, :n] = t * t * np.eye(n)
    noise_cov[n:, n:] = sigma_y * sigma_y * np.eye(m)
    return _conditional_oracle(
        prior.mean, prior.covariance, np.concatenate([np.eye(n), a], axis=0),
        noise_cov, np.concatenate([x_t, y]),
    )


def _check_against_oracles(prior, op, sigma_y, atol, levels=(DEFAULT_T_MIN, 1.0, DEFAULT_T_MAX)):
    """Closure mean and covariance, and posterior, against brute-force
    conditioning."""
    rng = np.random.default_rng(20)
    a = operator_matrix(op)
    x = prior.sample(rng)
    y = a @ x + sigma_y * rng.standard_normal(op.m)
    fn = prior.measurement_consistency(op, sigma_y)
    for t in levels:
        x_t = x + t * rng.standard_normal(prior.n)
        oracle_mean, oracle_cov = _joint_oracle(prior, a, sigma_y, x_t, y, t)
        assert np.allclose(fn(x_t, y, t), oracle_mean, rtol=0.0, atol=atol)
        assert np.allclose(closure_cov(fn, x_t, y, t), oracle_cov, rtol=0.0, atol=atol)
    oracle_mean, oracle_cov = _conditional_oracle(
        prior.mean, prior.covariance, a, sigma_y**2 * np.eye(op.m), y)
    mean, cov = prior.posterior(op, y, sigma_y)
    assert np.allclose(mean, oracle_mean, rtol=0.0, atol=atol)
    assert np.allclose(cov, oracle_cov, rtol=0.0, atol=atol)


@pytest.mark.parametrize("t", [DEFAULT_T_MIN, DEFAULT_T_MAX])
@pytest.mark.parametrize(
    "make_op, sigma_y",
    [
        (lambda: make_downsample(1, 4, 4, 2), 0.05),
        (lambda: make_centered_square_inpaint(1, 4, 4), 0.05),
        (lambda: IdentityOperator(1, 4, 4), 0.0),
    ],
    ids=["downsample", "inpaint", "identity_exact"],
)
def test_measurement_conditioning_matches_joint_oracle(make_op, sigma_y, t):
    _check_against_oracles(small_prior(10, n=16), make_op(), sigma_y, atol=1e-8, levels=(t,))


def _factorisations(monkeypatch):
    """Record every factorisation that priors makes, from any thread, as
    (routine, shape): each eigh, each cholesky and each inv, the leaves of
    a triangular inverse."""
    lock, calls = threading.Lock(), []

    def counting(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            with lock:
                calls.append((name, a.shape))
            return real(a, *args, **kwargs)

        return call

    for name in ("eigh", "cholesky", "inv"):
        monkeypatch.setattr(priors.np.linalg, name, counting(name))
    return calls


def _leaf_sides(m):
    """The sides of the leaves that an m x m triangular inverse is cut into:
    halves, the first rounded down, until at most 48."""
    return [m] if m <= 48 else _leaf_sides(m // 2) + _leaf_sides(m - m // 2)


def _cholesky_route(sizes):
    """The factorisations of a build over blocks of (signal, measurement)
    sizes whose measurement noise clears the drop floor: a cholesky of each
    block's gram, then the inverse leaves of each factor, then one eigh of
    each block's Sigma_y."""
    leaves = [("inv", (s, s)) for _, m in sizes for s in _leaf_sides(m)]
    return [("cholesky", (m, m)) for _, m in sizes] + leaves + [("eigh", (n, n)) for n, _ in sizes]


def _eigh_route(sizes):
    """The factorisations of a build whose drop rule may act: an eigh of
    each block's gram, then one of each block's Sigma_y."""
    return [("eigh", (m, m)) for _, m in sizes] + [("eigh", (n, n)) for n, _ in sizes]


def _unequal_axes_blur(shape, sigma, sigma_w):
    """A square circular blur whose column factor is the circulant of another
    sigma: it commutes with both flips, but not with the transpose."""
    op = make_gaussian_blur(*shape, sigma)
    op._cw = make_gaussian_blur(*shape, sigma_w)._cw
    return op


# (operator, (signal, measurement) sizes of its non-empty blocks).  A square
# grid with equal axis factors splits six ways, ee+, ee-, eo, oe, oo+, oo-
# (priors._ParityBlocks with square), and oe takes eo's gain and factor, so
# it is not listed; any other problem keeps the four parity blocks ee, eo,
# oe, oo.
_PARITY_CASES = {
    # 8 x 8: ee and oo have 16 coordinates, 10 symmetric and 6 antisymmetric
    "blur_1x8x8": (lambda: make_gaussian_blur(1, 8, 8, 1.2),
                   [(10, 10), (6, 6), (16, 16), (10, 10), (6, 6)]),
    "blur_3x8x8": (lambda: make_gaussian_blur(3, 8, 8, 1.2),
                   [(30, 30), (18, 18), (48, 48), (30, 30), (18, 18)]),
    # an odd side: ee is 4 x 4, eo 4 x 3 and oo 3 x 3
    "blur_1x7x7": (lambda: make_gaussian_blur(1, 7, 7, 1.2),
                   [(10, 10), (6, 6), (12, 12), (6, 6), (3, 3)]),
    "identity_1x6x6": (lambda: IdentityOperator(1, 6, 6),
                       [(6, 6), (3, 3), (9, 9), (6, 6), (3, 3)]),
    "blur_3x6x10": (lambda: make_gaussian_blur(3, 6, 10, 1.2), [(45, 45)] * 4),
    "blur_1x7x9": (lambda: make_gaussian_blur(1, 7, 9, 1.2),
                   [(20, 20), (16, 16), (15, 15), (12, 12)]),
    # flip-invariant, but the two axes blur by different sigmas
    "blur_1x8x8_unequal_axes": (lambda: _unequal_axes_blur((1, 8, 8), 1.2, 2.0),
                                [(16, 16)] * 4),
    "downsample_1x8x8": (lambda: make_downsample(1, 8, 8, 2),
                         [(10, 3), (6, 1), (16, 4), (10, 3), (6, 1)]),
    # a 3 x 3 measurement: its oo block is one symmetric coordinate
    "downsample_3x6x6": (lambda: make_downsample(3, 6, 6, 2),
                         [(18, 9), (9, 3), (27, 6), (18, 3), (9, 0)]),
    # block 5 scales only the row factor, so a square grid's factors differ
    # and it keeps the four flip blocks
    "downsample_1x10x10_b5": (lambda: make_downsample(1, 10, 10, 5), [(25, 1)] * 4),
    # 2 x 2 pixels have no antisymmetric half, and a 1 x 1 measurement has
    # neither an odd part nor such a half: two blocks see no measurement
    "downsample_1x2x2": (lambda: make_downsample(1, 2, 2, 2), [(1, 1), (1, 0), (1, 0)]),
    "identity_1x1x8": (lambda: IdentityOperator(1, 1, 8), [(4, 4)] * 2),
    # the centred square is flip-invariant: its kept pixels split four ways,
    # and no further, as inpainting gives no axis factors
    "inpaint_1x8x8": (lambda: make_centered_square_inpaint(1, 8, 8), [(16, 12)] * 4),
    "inpaint_3x8x8": (lambda: make_centered_square_inpaint(3, 8, 8), [(48, 36)] * 4),
    # on an odd axis and on a side of 2 mod 4 too
    "inpaint_1x7x9": (lambda: make_centered_square_inpaint(1, 7, 9),
                      [(20, 16), (16, 14), (15, 13), (12, 11)]),
    "inpaint_1x6x10": (lambda: make_centered_square_inpaint(1, 6, 10), [(15, 13)] * 4),
}


def _off_centre_inpaint(shape, rows: slice, cols: slice) -> InpaintOperator:
    """Inpainting that hides mask[rows, cols] of every channel."""
    c, h, w = shape
    mask = np.ones((h, w), dtype=bool)
    mask[rows, cols] = False
    return InpaintOperator(c, h, w, mask)


# half-side squares one pixel off the centre line of one or both axes
_OFF_CENTRE_MASKS = {
    "inpaint_1x7x9": ((1, 7, 9), slice(2, 5), slice(2, 6)),
    "inpaint_1x6x10": ((1, 6, 10), slice(1, 4), slice(2, 7)),
}


@pytest.mark.parametrize("case", list(_PARITY_CASES))
def test_parity_conditioning_matches_oracles(case, monkeypatch):
    make_op, sizes = _PARITY_CASES[case]
    op = make_op()
    prior = rbf_prior(op.signal_shape, length_scale=1.5, variance=0.3, mean_level=0.2)
    calls = _factorisations(monkeypatch)
    prior.measurement_consistency(op, 0.05)
    # one factor of the gram and one of Sigma_y per non-empty block, grams first
    assert calls == _cholesky_route(sizes)
    _check_against_oracles(prior, op, 0.05, atol=1e-8)


def test_parity_conditioning_is_exact_without_measurement_noise():
    # sigma_y = 0 on a strong blur: A Sigma A^T is numerically singular, and
    # one drop rule across the blocks keeps what the measurement fixes
    op = make_gaussian_blur(1, 8, 8, 3.0)
    prior = rbf_prior(op.signal_shape, length_scale=2.0, variance=0.05, mean_level=0.5)
    a = operator_matrix(op)
    _, cov = prior.posterior(op, np.zeros(op.m), 0.0)
    # the same conditioning as one block in pixel coordinates (a dense
    # operator has no measurement grid); a pseudo-inverse oracle would keep
    # other directions, as its cut-off differs from the drop rule
    _, dense_cov = prior.posterior(DenseOperator(a), np.zeros(op.m), 0.0)
    assert np.trace(dense_cov) > 0.0
    assert abs(np.trace(cov) - np.trace(dense_cov)) <= 1e-3 * np.trace(dense_cov)

    rng = np.random.default_rng(21)
    x = prior.sample(rng)
    fn = prior.measurement_consistency(op, 0.0)
    for t in (1e-200, DEFAULT_T_MIN, 1.0, DEFAULT_T_MAX):
        assert np.all(np.isfinite(fn(x + min(t, 1.0) * rng.standard_normal(prior.n), a @ x, t)))


def _cholesky_threshold(prior, op):
    """The sigma_y^2 at which a build turns from the eigh route to the
    Cholesky one: sigma_y^2 > bound m eps, with bound the largest absolute
    row sum over the blocks' grams, which is b + sigma_y^2 for the largest,
    b, at sigma_y = 0; so the turn is at b m eps / (1 - m eps)."""
    _, _, covs, a_blocks = prior._parity_split(op)
    grams = [priors._measurement_gram(covs[k], a_blocks[k], 0.0)[1] for k in covs]
    b = max(np.abs(gram).sum(axis=1).max(initial=0.0) for gram in grams)
    precision = op.m * np.finfo(np.float64).eps
    return b * precision / (1.0 - precision)


@pytest.mark.parametrize("side, route", [(1.0 + 1e-6, "cholesky"), (1.0 - 1e-6, "eigh")],
                         ids=["above", "below"])
def test_measurement_noise_at_the_drop_floor_picks_the_route(side, route, monkeypatch):
    # the drop rule removes nothing while sigma_y^2 exceeds m eps times a
    # bound on the largest gram eigenvalue, and the gram is then factored
    # by Cholesky; at or below it the eigh route runs, and either way the
    # closure matches the dense oracles
    prior, op = small_prior(10, n=16), IdentityOperator(1, 4, 4)
    sigma_y = math.sqrt(side * _cholesky_threshold(prior, op))
    calls = _factorisations(monkeypatch)
    prior.measurement_consistency(op, sigma_y)
    routes = {"cholesky": _cholesky_route, "eigh": _eigh_route}
    assert calls == routes[route]([(16, 16)])
    _check_against_oracles(prior, op, sigma_y, atol=1e-8)


def test_measurement_noise_free_strong_blur_takes_the_eigh_route(monkeypatch):
    op = make_gaussian_blur(1, 8, 8, 3.0)
    prior = rbf_prior(op.signal_shape, length_scale=2.0, variance=0.05, mean_level=0.5)
    calls = _factorisations(monkeypatch)
    prior.measurement_consistency(op, 0.0)
    assert calls == _eigh_route(_PARITY_CASES["blur_1x8x8"][1])


def _eigh_route_closure(prior, op, sigma_y, monkeypatch):
    """The closure that the eigh route builds whatever sigma_y is: the one a
    build falls back to when a gram has no Cholesky factor."""
    with monkeypatch.context() as patch:
        patch.setattr(priors, "_cholesky_factors", lambda grams: None)
        return prior.measurement_consistency(op, sigma_y)


@pytest.mark.parametrize("side", [32, 48, 64])
def test_cholesky_route_matches_the_eigh_route(side, monkeypatch):
    op = make_gaussian_blur(1, side, side, 3.0)
    prior = rbf_prior(op.signal_shape, length_scale=3.0, variance=0.05, mean_level=0.5)
    fn = prior.measurement_consistency(op, 0.05)
    want = _eigh_route_closure(prior, op, 0.05, monkeypatch)
    rng = np.random.default_rng(29)
    x = prior.sample(rng)
    y = op.apply(x) + 0.05 * rng.standard_normal(op.m)
    for t in (1e-3, 1.0, 80.0):
        x_t = x + t * rng.standard_normal((2, op.n))
        assert np.allclose(fn(x_t, y, t), want(x_t, y, t), rtol=0.0, atol=1e-9)


def test_gram_without_a_cholesky_factor_falls_back_to_eigh(monkeypatch):
    op = make_gaussian_blur(1, 8, 8, 1.2)
    prior = rbf_prior(op.signal_shape, length_scale=1.5, variance=0.3, mean_level=0.2)
    want = _eigh_route_closure(prior, op, 0.05, monkeypatch)

    def no_factor(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    calls = _factorisations(monkeypatch)
    monkeypatch.setattr(priors.np.linalg, "cholesky", no_factor)
    fn = prior.measurement_consistency(op, 0.05)
    assert calls == _eigh_route(_PARITY_CASES["blur_1x8x8"][1])
    rng = np.random.default_rng(30)
    x_t, y = rng.standard_normal((2, op.n)), rng.standard_normal(op.m)
    assert np.array_equal(fn(x_t, y, 0.5), want(x_t, y, 0.5))
    _check_against_oracles(prior, op, 0.05, atol=1e-8)


@pytest.mark.parametrize(
    "make_prior, make_op",
    [
        # Sigma commutes with the flips only to 1e-6 of its largest entry
        (lambda: GaussianPrior(
            mean=np.full(64, 0.2),
            covariance=rbf_covariance((1, 8, 8), 1.5, 0.3)
            + 4e-8 * np.outer(*2 * [np.random.default_rng(22).standard_normal(64)])),
         lambda: make_gaussian_blur(1, 8, 8, 1.2)),
        # the operators give no measurement grid
        (lambda: rbf_prior((1, 8, 8), 1.5, 0.3, 0.2),
         lambda: DenseOperator(operator_matrix(make_gaussian_blur(1, 8, 8, 1.2)),
                               signal_shape=(1, 8, 8))),
        # masks that are not flip-invariant
        (lambda: rbf_prior((1, 7, 9), 1.5, 0.3, 0.2),
         lambda: _off_centre_inpaint(*_OFF_CENTRE_MASKS["inpaint_1x7x9"])),
        (lambda: rbf_prior((1, 6, 10), 1.5, 0.3, 0.2),
         lambda: _off_centre_inpaint(*_OFF_CENTRE_MASKS["inpaint_1x6x10"])),
    ],
    ids=["prior_not_flip_invariant", "dense_operator", "inpaint_1x7x9", "inpaint_1x6x10"],
)
def test_inexact_split_conditions_as_one_block(make_prior, make_op, monkeypatch):
    prior, op = make_prior(), make_op()
    calls = _factorisations(monkeypatch)
    prior.measurement_consistency(op, 0.05)
    assert calls == _cholesky_route([(prior.n, op.m)])
    _check_against_oracles(prior, op, 0.05, atol=1e-8)


def _flip_invariant_mask(op):
    """Whether the grid of pixels that ``op.selection()`` keeps equals both of its flips."""
    grid = np.zeros(op.n, dtype=bool)
    grid[op.selection()] = True
    grid = grid.reshape(op.signal_shape)
    return np.array_equal(grid, grid[:, ::-1]) and np.array_equal(grid, grid[:, :, ::-1])


def test_inexact_masks_are_not_flip_invariant():
    for case in _OFF_CENTRE_MASKS.values():
        assert not _flip_invariant_mask(_off_centre_inpaint(*case))


def test_flip_gap_of_the_rbf_prior_is_rounding():
    # the factor-built RBF covariance passes the 1e-12 gate with room: its
    # largest off-block entry is about 3e-15 of its largest entry here
    for shape in [(1, 8, 8), (3, 6, 10), (1, 32, 32)]:
        prior = rbf_prior(shape, length_scale=3.0, variance=0.05)
        _, gap = prior._covariance_blocks(priors._ParityBlocks(shape))
        assert gap <= 1e-13


@pytest.mark.parametrize("shape", [(1, 8, 8), (3, 7, 7), (1, 32, 32)])
def test_square_covariance_blocks_match_the_dense_six_block_basis(shape, monkeypatch):
    # each half of ee and oo comes straight from its quadrant's block, and
    # oe, which takes eo's gain and factor, gets neither a block of Sigma
    # nor a map of A
    op = make_gaussian_blur(*shape, 3.0)
    prior = rbf_prior(shape, length_scale=3.0, variance=0.05)
    parts = [priors._axis_parts(q) for q in prior.factor.axes]
    axis_blocks = priors._axis_blocks(op.axis_matrices()[0], priors._axis_parts)
    sigma_quadrants, a_quadrants = [], []

    def parity_of(arrays, candidates):
        return tuple(next(p for p, c in enumerate(cands) if np.array_equal(a, c))
                     for a, cands in zip(arrays, candidates))

    def kron_block(grid, rows, cols):
        sigma_quadrants.append(parity_of(rows, parts))
        return kron_block.real(grid, rows, cols)

    def separable_rows(channels, left, right, how):
        a_quadrants.append(parity_of((left, right), 2 * [axis_blocks]))
        return separable_rows.real(channels, left, right, how)

    kron_block.real, separable_rows.real = priors._kron_block, priors._separable_rows
    monkeypatch.setattr(priors, "_kron_block", kron_block)
    monkeypatch.setattr(priors, "_separable_rows", separable_rows)
    signal, _, covs, a_blocks = prior._parity_split(op)
    assert len(signal.sizes) == 6 and list(covs) == list(a_blocks) == [0, 1, 2, 4, 5]
    # (row parity, column parity): ee, eo and oo, never oe = (1, 0)
    assert sorted(sigma_quadrants) == [(0, 0), (0, 1), (1, 1)]
    assert a_quadrants == [(0, 0), (0, 0), (0, 1), (1, 1), (1, 1)]
    assert "covariance" not in prior.__dict__

    blocks, gap = prior._covariance_blocks(priors._ParityBlocks(shape, square=True))
    assert gap <= 1e-13 and list(blocks) == [0, 1, 2, 4, 5]
    cov = rbf_prior(shape, length_scale=3.0, variance=0.05).covariance
    bases = signal.split(np.eye(prior.n))  # B_k of ee+, ee-, eo, oe, oo+, oo-
    for k, basis in enumerate(bases):
        want = basis.T @ cov @ basis
        assert np.allclose(blocks[signal.shared.get(k, k)], want, rtol=0.0, atol=1e-13)
    # Sigma's entries between the two halves of ee and of oo are rounding,
    # as T Sigma T = Sigma holds exactly in the factor
    for kept, negated in ((0, 1), (4, 5)):
        cross = bases[kept].T @ cov @ bases[negated]
        assert np.abs(cross).max(initial=0.0) <= 1e-13 * cov.max()


@pytest.mark.parametrize("shape", [(1, 8, 8), (3, 7, 7), (1, 1, 1), (2, 2, 2)])
def test_square_blocks_are_an_orthonormal_basis_that_the_transpose_respects(shape):
    n = int(np.prod(shape))
    blocks = priors._ParityBlocks(shape, square=True)
    bases = blocks.split(np.eye(n))  # row i of block k: e_i^T B_k, so B_k itself
    assert [b.shape[1] for b in bases] == blocks.sizes and sum(blocks.sizes) == n
    full = np.concatenate(bases, axis=1)
    assert np.allclose(full.T @ full, np.eye(n), rtol=0.0, atol=1e-14)
    # eo is the dense parity basis's, and the halves of ee and oo span its ee and oo
    parity = _parity_oracle(shape)
    assert np.allclose(bases[2], parity[1], rtol=0.0, atol=1e-14)
    for k, pair in ((0, bases[0:2]), (3, bases[4:6])):
        halves = np.concatenate(pair, axis=1)
        assert halves.shape == parity[k].shape
        assert np.allclose(parity[k] @ (parity[k].T @ halves), halves, rtol=0.0, atol=1e-14)
    # T B_eo is B_oe column by column, and T keeps each half of ee and oo, with
    # a sign that is + on the symmetric and - on the antisymmetric half
    transpose = np.arange(n).reshape(shape).transpose(0, 2, 1).ravel()
    assert np.array_equal(bases[2][transpose], bases[3])
    for key, sign in ((0, 1.0), (1, -1.0), (4, 1.0), (5, -1.0)):
        assert np.array_equal(bases[key][transpose], sign * bases[key])
    rng = np.random.default_rng(27)
    x = rng.standard_normal((3, n))
    parts = blocks.split(x)
    for part, basis in zip(parts, bases):
        assert np.allclose(part, x @ basis, rtol=0.0, atol=1e-14)
    assert np.allclose(blocks.merge(dict(enumerate(parts))), x, rtol=0.0, atol=1e-14)
    square = {k: rng.standard_normal((size, size)) for k, size in enumerate(blocks.sizes)}
    assert np.allclose(blocks.expand(square),
                       sum(b @ square[k] @ b.T for k, b in enumerate(bases)), rtol=0.0, atol=1e-14)


def _parity_oracle(shape):
    """Dense bases I_c (x) B_h (x) B_w of the four parity blocks, from the
    per-axis columns (e_i + e_{N-1-i})/sqrt(2) (plus e_centre on an odd
    axis) and (e_i - e_{N-1-i})/sqrt(2), i < N/2."""
    def axis(size):
        half, eye = size // 2, np.eye(size)
        even = [(eye[i] + eye[size - 1 - i]) / np.sqrt(2.0) for i in range(half)]
        odd = [(eye[i] - eye[size - 1 - i]) / np.sqrt(2.0) for i in range(half)]
        even += [eye[half]] if size % 2 else []
        return [np.array(even).reshape(-1, size).T, np.array(odd).reshape(-1, size).T]

    c, h, w = shape
    return [np.kron(np.eye(c), np.kron(b_h, b_w)) for b_h in axis(h) for b_w in axis(w)]


@pytest.mark.parametrize("shape", [(1, 8, 8), (3, 6, 10), (1, 7, 9)])
def test_parity_blocks_match_the_dense_parity_basis(shape):
    n = int(np.prod(shape))
    bases = _parity_oracle(shape)
    blocks = priors._ParityBlocks(shape)
    assert blocks.sizes == [basis.shape[1] for basis in bases]
    rng = np.random.default_rng(24)
    x, matrix = rng.standard_normal((3, n)), rng.standard_normal((n, 5))
    parts = blocks.split(x)
    for k, basis in enumerate(bases):
        assert np.allclose(parts[k], x @ basis, rtol=0.0, atol=1e-14)
        assert np.allclose(blocks.split(matrix.T)[k].T, basis.T @ matrix, rtol=0.0, atol=1e-14)
    assert np.allclose(blocks.merge(dict(enumerate(parts))), x, rtol=0.0, atol=1e-14)
    square = [rng.standard_normal((b.shape[1],) * 2) for b in bases]
    assert np.allclose(blocks.expand(dict(enumerate(square))),
                       sum(b @ s @ b.T for b, s in zip(bases, square)), rtol=0.0, atol=1e-14)
    # on an even grid an identity row ends at exact coordinates: +-1/2 each
    if not (shape[1] % 2 or shape[2] % 2):
        assert all(np.array_equal(np.abs(part), (part != 0) * 0.5) for part in blocks.split(np.eye(n)))
    # the identity split states the unsplit problem: its block ee is the
    # grid itself, bit for bit but for the sign of a zero, and eo, oe and oo
    # are empty
    whole = priors._ParityBlocks(shape, identity=True)
    assert whole.sizes == [n, 0, 0, 0]
    assert np.array_equal(whole.split(x)[0], x)
    assert np.array_equal(whole.merge({0: x}), x)
    full = rng.standard_normal((n, n))
    assert np.array_equal(whole.expand({0: full}), full)


@pytest.mark.parametrize("shape", [(1, 8, 8), (3, 6, 10), (1, 7, 9)])
def test_covariance_blocks_match_the_dense_parity_basis(shape):
    cov = rbf_covariance(shape, 1.5, 0.3)
    bases = _parity_oracle(shape)
    factor_form = rbf_prior(shape, 1.5, 0.3)
    dense_form = GaussianPrior(mean=np.zeros(cov.shape[0]), covariance=cov)
    for prior in (factor_form, dense_form):
        blocks, gap = prior._covariance_blocks(priors._ParityBlocks(shape))
        assert gap <= 1e-13
        assert list(blocks) == list(range(len(bases)))
        for k, basis in enumerate(bases):
            assert np.allclose(blocks[k], basis.T @ cov @ basis, rtol=0.0, atol=1e-13)
    assert "covariance" not in factor_form.__dict__


def test_factor_form_conditioning_never_forms_the_covariance():
    for op in (make_gaussian_blur(1, 8, 8, 1.2), make_centered_square_inpaint(1, 8, 8),
               _off_centre_inpaint(*_OFF_CENTRE_MASKS["inpaint_1x7x9"])):
        prior = rbf_prior(op.signal_shape, 1.5, 0.3, 0.2)
        fn = prior.measurement_consistency(op, 0.05)
        fn(np.zeros(op.n), np.zeros(op.m), 0.5)
        assert "covariance" not in prior.__dict__


def test_one_eigendecomposition_per_covariance(monkeypatch):
    factored, eigvalsh, spectra = _factorisations(monkeypatch), np.linalg.eigvalsh, []

    def counting_eigvalsh(a, *args, **kwargs):
        spectra.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(priors.np.linalg, "eigvalsh", counting_eigvalsh)
    op = make_downsample(1, 4, 4, 2)  # m = 4, n = 16

    # a dense Sigma is checked and factored by one eigh at construction
    prior = small_prior(11, n=16)
    assert factored == [("eigh", (16, 16))] and spectra == []

    # a conditioned closure: the m x m y-stage plus one n x n factor of
    # Sigma_y, and never another factor of Sigma
    factored.clear()
    cond = prior.measurement_consistency(op, 0.05)
    assert factored == [("cholesky", (4, 4)), ("inv", (4, 4)), ("eigh", (16, 16))]

    # a square prior and operator that commute with the flips and the
    # transpose: a gram and a factor of Sigma_y for each half of ee and oo
    # (10 and 6 of the 16 coordinates) and for eo, which oe shares; never an
    # n x n eigh
    blur = make_gaussian_blur(1, 8, 8, 1.5)  # m = n = 64
    rbf = rbf_prior(blur.signal_shape, length_scale=1.5, variance=0.3, mean_level=0.2)
    factored.clear()
    cond_rbf = rbf.measurement_consistency(blur, 0.05)
    assert factored == _cholesky_route([(10, 10), (6, 6), (16, 16), (10, 10), (6, 6)])

    # the construction's factor of Sigma, shared by every unconditional use
    factored.clear()
    prior.sample(np.random.default_rng(0), size=2)
    unc = prior.consistency()
    prior.denoise(np.zeros(prior.n), 0.5)
    prior.denoise_cov(0.5)
    prior.consistency()
    assert factored == [] and spectra == []

    # threads sharing the closures factor nothing and agree bit for bit
    factored.clear()
    rng = np.random.default_rng(12)
    calls = [(fn, rng.standard_normal((3, n)), rng.standard_normal((3, m)))
             for fn, n, m in ((unc, prior.n, op.m), (cond, prior.n, op.m),
                              (cond_rbf, rbf.n, blur.m))]
    levels = (80.0, 5.0, 0.5, 0.002)
    expected = [[fn(x_t, y, t) for t in levels] for fn, x_t, y in calls]
    barrier = threading.Barrier(8)
    results = [None] * 8

    def work(k):
        barrier.wait(timeout=10)
        results[k] = [[fn(x_t, y, t) for t in levels] for fn, x_t, y in calls]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert factored == []
    for result in results:
        for got, want in zip(result, expected):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_conditioned_closure_holds_less_than_one_dense_matrix(monkeypatch):
    # K_y and Sigma_y's eigenfactor stay per block: 2 (136^2 + 120^2) + 256^2
    # floats of each, as oe holds eo's arrays, a quarter of an n x n array
    # for the two, and neither A nor Sigma is kept
    op = make_gaussian_blur(1, 32, 32, 3.0)
    prior = rbf_prior(op.signal_shape, length_scale=3.0, variance=0.05, mean_level=0.5)
    calls = _factorisations(monkeypatch)
    tracemalloc.start()
    try:
        fn = prior.measurement_consistency(op, 0.05)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 0.3 * op.n * op.n * 8, f"closure holds {held / (op.n * op.n * 8):.2f} n x n"
    # each gram's factor is inverted in leaves of its halves' halves
    sides = (136, 120, 256, 136, 120)
    leaves = [(34, 34)] * 4 + [(30, 30)] * 4 + [(32, 32)] * 8 + [(34, 34)] * 4 + [(30, 30)] * 4
    assert calls == ([("cholesky", (m, m)) for m in sides] + [("inv", leaf) for leaf in leaves]
                     + [("eigh", (n, n)) for n in sides])
    assert fn is not None


def test_conditioning_at_48_squared_factors_only_quarter_blocks(monkeypatch):
    op = make_gaussian_blur(1, 48, 48, 3.0)
    prior = rbf_prior(op.signal_shape, length_scale=3.0, variance=0.05, mean_level=0.5)
    calls = _factorisations(monkeypatch)
    fn = prior.measurement_consistency(op, 0.05)
    # a quarter block for eo, which oe shares, and the halves of ee and oo
    assert calls == _cholesky_route([(300, 300), (276, 276), (576, 576), (300, 300), (276, 276)])
    assert _leaf_sides(300) == [37, 38] * 4 and _leaf_sides(576) == [36] * 16
    rng = np.random.default_rng(23)
    x_t, y = rng.standard_normal((2, op.n)), rng.standard_normal((2, op.m))
    assert np.all(np.isfinite(fn(x_t, y, 0.5)))


def _shifted_blur(shape, sigma):
    """A circular blur that also moves the rows one pixel down: still
    I_c (x) M_h (x) M_w, but its row factor no longer commutes with the flip."""
    op = make_gaussian_blur(*shape, sigma)
    op._ch = np.roll(op._ch, 1, axis=0)
    return op


_SEPARABLE_CASES = {
    "identity_1x8x8": lambda: IdentityOperator(1, 8, 8),
    "identity_3x6x10": lambda: IdentityOperator(3, 6, 10),
    "identity_1x7x9": lambda: IdentityOperator(1, 7, 9),
    "blur_1x8x8": lambda: make_gaussian_blur(1, 8, 8, 1.2),
    "blur_3x6x10": lambda: make_gaussian_blur(3, 6, 10, 1.2),
    "blur_1x7x9": lambda: make_gaussian_blur(1, 7, 9, 1.2),
    # a kernel radius of 9 wraps round a side of 5 more than once
    "blur_1x5x5_wide": lambda: make_gaussian_blur(1, 5, 5, 3.0),
    "downsample_1x8x8_b2": lambda: make_downsample(1, 8, 8, 2),
    "downsample_3x6x10_b2": lambda: make_downsample(3, 6, 10, 2),
    "downsample_1x6x9_b3": lambda: make_downsample(1, 6, 9, 3),
    "downsample_3x6x12_b3": lambda: make_downsample(3, 6, 12, 3),
    "downsample_1x8x8_b4": lambda: make_downsample(1, 8, 8, 4),
    # (1/5)^2 does not round to 1/25: the row factor takes all of 1/b^2
    "downsample_1x10x10_b5": lambda: make_downsample(1, 10, 10, 5),
    "downsample_3x5x10_b5": lambda: make_downsample(3, 5, 10, 5),
    "shifted_blur_1x7x9": lambda: _shifted_blur((1, 7, 9), 1.2),
}


@pytest.mark.parametrize("case", list(_SEPARABLE_CASES))
def test_separable_operators_are_exact_kronecker_products(case):
    op = _SEPARABLE_CASES[case]()
    m_h, m_w = op.axis_matrices()
    a = operator_matrix(op)
    assert np.array_equal(np.kron(np.eye(op.signal_shape[0]), np.kron(m_h, m_w)), a)
    # so the per-axis flip check gives the verdict of the dense one, F' A = A F
    # for each image axis: A with that axis of the measurement grid reversed
    # against A with that axis of the signal grid reversed
    per_axis = all(priors._flip_invariant(m) for m in (m_h, m_w))
    grid = a.reshape(op.measurement_shape + op.signal_shape)
    dense = all(np.array_equal(np.flip(grid, axis), np.flip(grid, axis + 3)) for axis in (1, 2))
    assert per_axis == dense == (not case.startswith("shifted"))


@contextlib.contextmanager
def _refuse_dense_operator(op):
    """Make op.apply raise on more than one row, and give the list of what it
    mapped: a build maps the prior mean alone, so it never forms A."""
    apply, seen = op.apply, []

    def one_row(x):
        if np.ndim(x) > 1 and len(x) > 1:
            raise AssertionError(f"apply on {np.shape(x)}: the build formed A")
        seen.append(x)
        return apply(x)

    op.apply = one_row
    try:
        yield seen
    finally:
        del op.apply


@pytest.mark.parametrize("make_op", [lambda: make_gaussian_blur(1, 32, 32, 3.0),
                                     lambda: make_downsample(1, 32, 32, 2)],
                         ids=["blur_1x32x32", "downsample_1x32x32"])
def test_separable_conditioning_never_builds_the_operator_matrix(make_op):
    op = make_op()
    prior = rbf_prior(op.signal_shape, length_scale=3.0, variance=0.05, mean_level=0.5)
    rng = np.random.default_rng(25)
    a = operator_matrix(op)
    x = prior.sample(rng)
    y = a @ x + 0.05 * rng.standard_normal(op.m)
    tracemalloc.start()
    try:
        with _refuse_dense_operator(op):
            fn = prior.measurement_consistency(op, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unit = op.n * op.n * 8
    assert peak <= 1.25 * unit, f"build peaks at {peak / unit:.2f} n x n"

    # brute force at n = 1024 on y alone, then that posterior conditioned on
    # x_t by one solve: conditioning in two stages is exact
    mean_y, cov_y = _conditional_oracle(prior.mean, prior.covariance, a, 0.05**2 * np.eye(op.m), y)
    mean, cov = prior.posterior(op, y, 0.05)
    assert np.allclose(mean, mean_y, rtol=0.0, atol=1e-8)
    assert np.allclose(cov, cov_y, rtol=0.0, atol=1e-8)
    for t in (DEFAULT_T_MIN, 1.0, DEFAULT_T_MAX):
        x_t = x + t * rng.standard_normal(prior.n)
        want = mean_y + cov_y @ np.linalg.solve(cov_y + t * t * np.eye(prior.n), x_t - mean_y)
        assert np.allclose(fn(x_t, y, t), want, rtol=0.0, atol=1e-8)


def test_dense_covariance_prior_takes_the_separable_operator_route(monkeypatch):
    # the operator's route does not depend on the prior's form: a dense Sigma
    # is split on both sides by the parity basis, A by its axes
    op = make_gaussian_blur(3, 6, 10, 1.2)
    prior = GaussianPrior(mean=np.full(op.n, 0.2), covariance=rbf_covariance(op.signal_shape, 1.5, 0.3))
    calls = _factorisations(monkeypatch)
    with _refuse_dense_operator(op):
        prior.measurement_consistency(op, 0.05)
    assert calls == _cholesky_route([(45, 45)] * 4)
    _check_against_oracles(prior, op, 0.05, atol=1e-8)


def test_dense_covariance_prior_on_a_square_grid_keeps_the_four_flip_blocks(monkeypatch):
    # the transpose is checked on a per-axis factor only; a dense Sigma on a
    # square grid conditions in the four parity blocks
    op = make_gaussian_blur(1, 8, 8, 1.2)
    prior = GaussianPrior(mean=np.full(op.n, 0.2), covariance=rbf_covariance(op.signal_shape, 1.5, 0.3))
    calls = _factorisations(monkeypatch)
    with _refuse_dense_operator(op):
        prior.measurement_consistency(op, 0.05)
    assert calls == _cholesky_route([(16, 16)] * 4)
    _check_against_oracles(prior, op, 0.05, atol=1e-8)


def test_factor_off_the_transpose_keeps_the_four_flip_blocks(monkeypatch):
    # equal axis bases, but a lam grid that is not its own transpose: Sigma
    # still commutes with the flips, not with the transpose
    op = make_gaussian_blur(1, 8, 8, 1.2)
    rbf = rbf_prior(op.signal_shape, 1.5, 0.3, 0.2)
    lam = rbf.factor.lam * np.linspace(1.0, 1.5, op.n)
    prior = GaussianPrior(mean=rbf.mean, factor=priors.EigenFactor(lam, rbf.factor.axes))
    assert rbf._transpose_symmetric(8) and not prior._transpose_symmetric(8)
    calls = _factorisations(monkeypatch)
    prior.measurement_consistency(op, 0.05)
    assert calls == _cholesky_route([(16, 16)] * 4)
    _check_against_oracles(prior, op, 0.05, atol=1e-8)


def test_separable_operator_off_the_flips_conditions_as_one_block(monkeypatch):
    op = _shifted_blur((1, 7, 9), 1.2)
    prior = rbf_prior(op.signal_shape, length_scale=1.5, variance=0.3, mean_level=0.2)
    calls = _factorisations(monkeypatch)
    with _refuse_dense_operator(op):
        prior.measurement_consistency(op, 0.05)
    assert calls == _cholesky_route([(prior.n, op.m)])
    _check_against_oracles(prior, op, 0.05, atol=1e-8)


def test_inpaint_build_never_forms_the_operator():
    # every block of A is a selection of Sigma's block, so the build maps the
    # prior mean alone and holds no (m, n) array (0.69 n x n here)
    op = make_centered_square_inpaint(1, 48, 48)
    prior = rbf_prior(op.signal_shape, length_scale=3.0, variance=0.05, mean_level=0.5)
    tracemalloc.start()
    try:
        with _refuse_dense_operator(op) as seen:
            prior.measurement_consistency(op, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unit = op.n * op.n * 8
    assert peak <= 1.0 * unit, f"build peaks at {peak / unit:.2f} n x n"
    assert len(seen) == 1 and np.array_equal(seen[0], prior.mean)


def test_one_block_inpaint_build_peaks_below_six_dense_matrices():
    # an off-centre mask conditions as one block (n = 576, m = 512): Sigma's
    # block turns into Sigma_y's in place, and the gain reuses the root's
    # array (4.6 n x n here)
    op = _off_centre_inpaint((1, 24, 24), slice(7, 15), slice(8, 16))
    assert not _flip_invariant_mask(op)
    prior = rbf_prior(op.signal_shape, length_scale=3.0, variance=0.05, mean_level=0.5)
    tracemalloc.start()
    try:
        with _refuse_dense_operator(op):
            prior.measurement_consistency(op, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unit = op.n * op.n * 8
    assert peak <= 6.0 * unit, f"build peaks at {peak / unit:.2f} n x n"


@pytest.mark.parametrize("shape", [(1, 8, 8), (3, 6, 10), (1, 7, 9)])
def test_selection_blocks_equal_the_dense_split(shape):
    # B'_k^T A B_k from the dense A, split on both sides, against the
    # selection that conditioning takes as block k.  The measurement basis
    # B'_k is A B_k's non-zero columns: the columns of B_k on kept pixels
    # alone.  On an odd axis the products over the centre line round by up
    # to one ulp
    op = make_centered_square_inpaint(*shape)
    a, signal, bases = operator_matrix(op), priors._ParityBlocks(shape), _parity_oracle(shape)
    _, split_y, covs, a_blocks = rbf_prior(shape, 1.5, 0.3)._parity_split(op)
    assert list(a_blocks) == list(covs) == [0, 1, 2, 3]
    y = np.random.default_rng(28).standard_normal((3, op.m))
    sides = signal.split(a)  # A B_k
    for k, rows in a_blocks.items():
        assert np.allclose(sides[k], a @ bases[k], rtol=0.0, atol=1e-14)
        seen = sides[k][:, np.abs(sides[k]).sum(axis=0) > 0.0]  # B'_k
        want = seen.T @ sides[k]
        got = rows(np.eye(signal.sizes[k])).T
        if shape[1] % 2 or shape[2] % 2:
            assert np.allclose(got, want, rtol=0.0, atol=np.spacing(1.0))
        else:
            assert np.array_equal(got, want)
        # and the measurement's coordinates in block k are B'_k^T y
        assert np.allclose(split_y(y)[k], y @ seen, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "make_op, selects",
    [
        (lambda: make_centered_square_inpaint(1, 20, 20), True),
        (lambda: _off_centre_inpaint(*_OFF_CENTRE_MASKS["inpaint_1x7x9"]), True),
        (lambda: make_centered_square_inpaint(3, 6, 10), True),
        (lambda: DenseOperator(np.random.default_rng(26).standard_normal((30, 300))), False),
        (lambda: make_gaussian_blur(3, 6, 10, 1.2), False),
        (lambda: make_downsample(1, 20, 20, 2), False),
    ],
    ids=["inpaint_1x20x20", "inpaint_off_centre", "inpaint_3x6x10", "dense_30x300",
         "blur_3x6x10", "downsample_1x20x20"],
)
def test_selection_is_the_rows_that_apply_keeps(make_op, selects):
    # conditioning indexes Sigma by selection() in place of mapping it by A,
    # so a selection must be A bit for bit, with increasing indices
    op = make_op()
    kept = op.selection()
    if not selects:
        assert kept is None
        return
    assert kept.shape == (op.m,) and np.all(np.diff(kept) > 0)
    assert 0 <= kept[0] and kept[-1] < op.n
    x = np.random.default_rng(27).standard_normal((3, op.n))
    assert np.array_equal(op.apply(x), x[:, kept])
    assert np.array_equal(operator_matrix(op), np.eye(op.n)[kept])


@pytest.mark.parametrize("size, shape", [(None, (16,)), (3, (3, 16)), (0, (0, 16))])
def test_gaussian_sample_shapes(size, shape):
    draws = small_prior(13, n=16).sample(np.random.default_rng(0), size=size)
    assert draws.shape == shape and np.all(np.isfinite(draws))


def test_gaussian_sample_covariance_matches_within_monte_carlo_bound():
    prior, count = small_prior(14, n=16), 20000
    draws = prior.sample(np.random.default_rng(1), size=count)
    cov, var = prior.covariance, np.diag(prior.covariance)
    # Var of a sample covariance entry: (S_ij^2 + S_ii S_jj) / N; of a mean: S_ii / N.
    # Five standard errors per entry: each exceeds it with probability below 6e-7.
    assert np.all(np.abs(draws.mean(axis=0) - prior.mean) <= 5.0 * np.sqrt(var / count))
    emp = np.cov(draws, rowvar=False)
    assert np.all(np.abs(emp - cov) <= 5.0 * np.sqrt((cov * cov + np.outer(var, var)) / count))


def test_gaussian_sample_is_finite_on_round_off_negative_eigenvalues():
    root = np.random.default_rng(15).standard_normal((16, 3))
    prior = GaussianPrior(mean=np.zeros(16), covariance=root @ root.T)
    assert np.linalg.eigvalsh(prior.covariance).min() < 0.0  # rank 3, round-off below 0
    draws = prior.sample(np.random.default_rng(2), size=50)
    assert np.all(np.isfinite(draws))
    # draws stay in the column space of the root
    resid = draws - draws @ np.linalg.pinv(root).T @ root.T
    assert np.abs(resid).max() < 1e-6


@pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
def test_eigen_gains_match_explicit_solves(t):
    rng = np.random.default_rng(16)
    prior = small_prior(16, n=16)
    op = make_downsample(1, 4, 4, 2)
    a, sigma_y = operator_matrix(op), 0.05
    t2, eye = t * t, np.eye(prior.n)

    def gain(cov):
        return np.linalg.solve(cov + t2 * eye, cov)

    x_t = rng.standard_normal((3, prior.n))
    want = prior.mean + (x_t - prior.mean) @ gain(prior.covariance)
    assert np.allclose(prior.denoise(x_t, t), want, rtol=0.0, atol=1e-10)
    assert np.allclose(prior.denoise_cov(t), t2 * gain(prior.covariance), rtol=0.0, atol=1e-10)

    _, cov_y = _conditional_oracle(prior.mean, prior.covariance, a,
                                   sigma_y * sigma_y * np.eye(op.m), np.zeros(op.m))
    fn = prior.measurement_consistency(op, sigma_y)
    y = a @ x_t[0] + sigma_y * rng.standard_normal(op.m)
    assert np.allclose(closure_cov(fn, x_t[0], y, t), t2 * gain(cov_y), rtol=0.0, atol=1e-10)


def test_non_finite_conditioning_names_sigma_y():
    prior = small_prior(12)
    huge = np.full((2, prior.n), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="sigma_y"):
            prior.measurement_consistency(DenseOperator(huge), 0.0)
        with pytest.raises(ValueError, match="sigma_y"):
            prior.posterior(DenseOperator(huge), np.zeros(2), 0.0)


def test_gaussian_validation_errors():
    with pytest.raises(ValueError):
        GaussianPrior(mean=np.zeros(2), covariance=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        GaussianPrior(mean=np.zeros(2), covariance=np.array([[1.0, 0.5], [0.0, 1.0]]))
    prior = small_prior(8)
    with pytest.raises(ValueError):
        prior.denoise(np.zeros(prior.n), 0.0)
    with pytest.raises(ValueError):
        prior.denoise(np.zeros(prior.n), -1.0)


def test_dense_covariance_must_be_finite_and_positive_semidefinite():
    for bad in (np.nan, np.inf):
        cov = np.eye(3)
        cov[0, 2] = cov[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianPrior(mean=np.zeros(3), covariance=cov)
    # an eigenvalue below -COVARIANCE_RTOL times the largest is refused
    for low in (-1.0, -1e-6):
        with pytest.raises(ValueError, match="indefinite"):
            GaussianPrior(mean=np.zeros(3), covariance=np.diag([1.0, low, 0.5]))
    # PSD ones load, also when singular with round-off below 0
    root = np.random.default_rng(0).standard_normal((64, 4))
    for cov in (rbf_covariance((1, 8, 8), 1.5, 0.3), rbf_covariance((1, 16, 16), 3.0, 0.05),
                root @ root.T, np.zeros((3, 3)), np.diag([1.0, -1e-12, 0.5])):
        GaussianPrior(mean=np.zeros(len(cov)), covariance=cov)


# ---------------------------------------------------------------------------
# empirical prior
# ---------------------------------------------------------------------------

def test_empirical_denoise_matches_longdouble_oracle():
    rng = np.random.default_rng(9)
    atoms = rng.standard_normal((7, 4))
    weights = rng.dirichlet(np.ones(7))
    prior = EmpiricalPrior(atoms=atoms, weights=weights)
    x = rng.standard_normal(4)
    t = 0.6

    # independent route: direct softmax in extended precision
    d2 = np.array(
        [np.sum((x - a) ** 2) for a in atoms], dtype=np.longdouble
    )
    logits = np.log(weights.astype(np.longdouble)) - d2 / (2 * np.longdouble(t) ** 2)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    oracle = (w[:, None] * atoms.astype(np.longdouble)).sum(axis=0)

    assert np.allclose(prior.denoise(x, t), oracle.astype(np.float64), atol=1e-12)


def test_empirical_weighted_mean_at_large_t():
    prior = EmpiricalPrior(
        atoms=np.array([[0.0], [1.0]]), weights=np.array([0.25, 0.75])
    )
    assert prior.denoise(np.array([0.1]), 1e6)[0] == pytest.approx(0.75, abs=1e-6)


@given(st.integers(0, 2**31 - 1), st.floats(0.05, 20.0))
@settings(max_examples=40, deadline=None)
def test_empirical_denoise_stays_in_convex_hull(seed, t):
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(-1.0, 1.0, size=(5, 3))
    prior = EmpiricalPrior(atoms=atoms)
    out = prior.denoise(rng.uniform(-3.0, 3.0, size=3), t)
    assert np.all(out >= atoms.min(axis=0) - 1e-9)
    assert np.all(out <= atoms.max(axis=0) + 1e-9)


def test_empirical_validation():
    with pytest.raises(ValueError):
        EmpiricalPrior(atoms=np.zeros((2, 3)), weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        EmpiricalPrior(atoms=np.zeros(3))


def test_empirical_sample_draws_atoms():
    prior = EmpiricalPrior(atoms=np.array([[0.0, 0.0], [1.0, 1.0]]))
    draws = prior.sample(np.random.default_rng(0), size=20)
    assert draws.shape == (20, 2)
    assert set(draws[:, 0]).issubset({0.0, 1.0})


# ---------------------------------------------------------------------------
# rbf covariance
# ---------------------------------------------------------------------------

def test_rbf_covariance_structure():
    cov = rbf_covariance((1, 2, 2), length_scale=1.0, variance=2.0)
    assert cov.shape == (4, 4)
    assert np.allclose(np.diag(cov), 2.0 + 2e-10)
    # neighbours at distance 1: variance * exp(-1/2)
    assert cov[0, 1] == pytest.approx(2.0 * np.exp(-0.5), rel=1e-12)
    # diagonal neighbours at distance sqrt(2)
    assert cov[0, 3] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)
    vals = np.linalg.eigvalsh(cov)
    assert vals.min() > 0.0


def test_rbf_covariance_channels_are_independent_blocks():
    cov = rbf_covariance((2, 2, 2), length_scale=1.5, variance=1.0)
    assert np.all(cov[:4, 4:] == 0.0)
    assert np.allclose(cov[:4, :4], cov[4:, 4:])


# ---------------------------------------------------------------------------
# rbf prior: the per-axis factor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(1, 4, 4), (3, 5, 7), (1, 32, 32)])
def test_rbf_prior_factor_is_exact(shape):
    variance = 0.3
    prior = rbf_prior(shape, length_scale=1.7, variance=variance, mean_level=0.2)
    n = prior.n
    factor = prior.factor
    q = factor.expand(np.eye(n)).T  # z Q^T on the identity gives Q^T
    assert np.array_equal(factor.coords(np.eye(n)), q)
    assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-12
    dense = rbf_covariance(shape, length_scale=1.7, variance=variance)
    assert np.abs(prior.covariance - dense).max() <= 1e-12 * variance
    assert np.abs((q * factor.lam) @ q.T - dense).max() <= 1e-12 * variance
    assert np.all(factor.lam >= 1e-10 * variance)

    count = 20000 if n <= 128 else 2000
    draws = prior.sample(np.random.default_rng(3), size=count)
    var = np.diag(dense)
    # Var of a sample covariance entry: (S_ij^2 + S_ii S_jj) / N; of a mean:
    # S_ii / N.  Six standard errors: over the n^2 entries at n = 1024 the
    # chance that any exceeds it stays below 2e-3.
    assert np.all(np.abs(draws.mean(axis=0) - 0.2) <= 6.0 * np.sqrt(var / count))
    emp = np.cov(draws, rowvar=False)
    assert np.all(np.abs(emp - dense) <= 6.0 * np.sqrt((dense * dense + np.outer(var, var)) / count))


def test_rbf_prior_needs_no_dense_eigendecomposition(monkeypatch):
    eigh, shapes = np.linalg.eigh, []

    def counting_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(priors.np.linalg, "eigh", counting_eigh)
    shape, t = (2, 6, 5), 0.7
    prior = rbf_prior(shape, length_scale=1.5, variance=0.05, mean_level=0.5)
    assert shapes == [(6, 6), (5, 5)]

    rng = np.random.default_rng(4)
    x_t = rng.standard_normal((3, prior.n))
    got = (prior.sample(rng, size=2), prior.denoise(x_t, t), prior.denoise_cov(t),
           prior.consistency()(x_t, None, t))
    assert shapes == [(6, 6), (5, 5)]

    # the same prior without its factor takes one dense eigh, and agrees
    dense = GaussianPrior(mean=prior.mean, covariance=prior.covariance)
    assert np.allclose(got[1], dense.denoise(x_t, t), rtol=0.0, atol=1e-12)
    assert np.allclose(got[2], dense.denoise_cov(t), rtol=0.0, atol=1e-12)
    assert shapes == [(6, 6), (5, 5), (prior.n, prior.n)]
    assert got[0].shape == (2, prior.n) and np.array_equal(got[1], got[3])


def test_gaussian_prior_takes_one_covariance_form():
    prior = rbf_prior((1, 3, 4), length_scale=2.0, variance=0.3)
    with pytest.raises(ValueError, match="not both or neither"):
        GaussianPrior(mean=prior.mean, covariance=prior.covariance, factor=prior.factor)
    with pytest.raises(ValueError, match="not both or neither"):
        GaussianPrior(mean=prior.mean)


def test_gaussian_prior_rejects_a_factor_of_another_dimension():
    factor = rbf_prior((1, 2, 2), length_scale=1.0).factor
    with pytest.raises(ValueError, match="factor does not match"):
        GaussianPrior(mean=np.zeros(5), factor=factor)
    # right length, but 4 x 4 per-axis blocks cannot tile n = 12
    lam = np.ones(12)
    bad = type(factor)(lam, (np.eye(4), np.eye(4)))
    with pytest.raises(ValueError, match="factor does not match"):
        GaussianPrior(mean=np.zeros(12), factor=bad)


@pytest.mark.parametrize("value", [-1.0, -1e-300, np.nan, np.inf])
def test_gaussian_prior_rejects_a_negative_or_non_finite_eigenvalue(value):
    # a negative lam made sample return NaN, and a NaN lam denoised as 0
    rbf = rbf_prior((1, 4, 4), length_scale=1.5, variance=0.3)
    lam = rbf.factor.lam.copy()
    lam[5] = value
    with pytest.raises(ValueError, match="eigenvalues must be finite and >= 0"):
        GaussianPrior(mean=rbf.mean, factor=priors.EigenFactor(lam, rbf.factor.axes))
    lam[5] = 0.0  # a zero eigenvalue is a direction the prior does not vary in
    prior = GaussianPrior(mean=rbf.mean, factor=priors.EigenFactor(lam, rbf.factor.axes))
    assert np.all(np.isfinite(prior.sample(np.random.default_rng(0), size=3)))
