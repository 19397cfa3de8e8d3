import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cminverse import priors
from cminverse.operators import (
    DenseOperator,
    IdentityOperator,
    make_centered_square_inpaint,
    make_downsample,
)
from cminverse.priors import (
    EmpiricalPrior,
    GaussianPrior,
    operator_matrix,
    rbf_covariance,
)
from cminverse.schedules import DEFAULT_T_MAX, DEFAULT_T_MIN


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


def test_joint_denoise_matches_brute_force_conditioning():
    rng = np.random.default_rng(1)
    prior = small_prior(1)
    n = prior.n
    a = rng.standard_normal((3, n))
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

    assert np.allclose(prior.joint_denoise(x_t, y, t, a, sigma_y), oracle_mean, atol=1e-8)
    assert np.allclose(prior.joint_denoise_cov(t, a, sigma_y), oracle_cov, atol=1e-8)


def test_posterior_matches_brute_force_conditioning():
    rng = np.random.default_rng(2)
    prior = small_prior(2)
    a = rng.standard_normal((3, prior.n))
    y = rng.standard_normal(3)
    sigma_y = 0.05
    oracle_mean, oracle_cov = _conditional_oracle(
        prior.mean, prior.covariance, a, sigma_y**2 * np.eye(3), y
    )
    mean, cov = prior.posterior(a, y, sigma_y)
    assert np.allclose(mean, oracle_mean, atol=1e-8)
    assert np.allclose(cov, oracle_cov, atol=1e-8)


def test_posterior_accepts_operator_objects():
    prior = small_prior(3)
    op = DenseOperator(np.random.default_rng(3).standard_normal((2, prior.n)))
    y = np.array([0.3, -0.2])
    m1, c1 = prior.posterior(op, y, 0.1)
    m2, c2 = prior.posterior(op.matrix, y, 0.1)
    assert np.allclose(m1, m2) and np.allclose(c1, c2)


def test_consistency_closures_match_methods():
    rng = np.random.default_rng(4)
    prior = small_prior(4)
    op = IdentityOperator(1, 1, prior.n)
    x_t = rng.standard_normal(prior.n)
    y = rng.standard_normal(prior.n)

    unc = prior.consistency()
    assert np.allclose(unc(x_t, None, 0.7), prior.denoise(x_t, 0.7), atol=1e-10)

    cond = prior.measurement_consistency(op, 0.05)
    direct = prior.joint_denoise(x_t, y, 0.7, op, 0.05)
    assert np.allclose(cond(x_t, y, 0.7), direct, atol=1e-8)
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
    assert np.allclose(prior.joint_denoise(x_t, y, 1.0, op, 1e-8), x, atol=1e-5)
    loose = prior.joint_denoise(x_t, y, 1.0, op, 1e8)
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
    rng = np.random.default_rng(10)
    prior = small_prior(10, n=16)
    op = make_op()
    a = operator_matrix(op)
    x = prior.sample(rng)
    x_t = x + t * rng.standard_normal(prior.n)
    y = a @ x + sigma_y * rng.standard_normal(a.shape[0])
    oracle_mean, oracle_cov = _joint_oracle(prior, a, sigma_y, x_t, y, t)

    fn = prior.measurement_consistency(op, sigma_y)
    assert np.allclose(fn(x_t, y, t), oracle_mean, atol=1e-8)
    assert np.allclose(prior.joint_denoise(x_t, y, t, op, sigma_y), oracle_mean, atol=1e-8)
    assert np.allclose(prior.joint_denoise_cov(t, op, sigma_y), oracle_cov, atol=1e-8)


def test_one_eigendecomposition_per_covariance(monkeypatch):
    eigh, lock, shapes = np.linalg.eigh, threading.Lock(), []

    def counting_eigh(a, *args, **kwargs):
        with lock:
            shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(priors.np.linalg, "eigh", counting_eigh)
    op = make_downsample(1, 4, 4, 2)  # m = 4, n = 16

    # a conditioned closure: the m x m y-stage plus one n x n factor of
    # Sigma_y, and never a factor of Sigma itself
    prior = small_prior(11, n=16)
    cond = prior.measurement_consistency(op, 0.05)
    assert shapes == [(4, 4), (16, 16)]

    # one factor of Sigma per prior, shared by every unconditional use
    shapes.clear()
    prior.sample(np.random.default_rng(0), size=2)
    unc = prior.consistency()
    prior.denoise(np.zeros(prior.n), 0.5)
    prior.denoise_cov(0.5)
    prior.consistency()
    assert shapes == [(16, 16)]

    # threads sharing the closures factor nothing and agree bit for bit
    shapes.clear()
    rng = np.random.default_rng(12)
    x_t, y = rng.standard_normal((3, prior.n)), rng.standard_normal((3, op.m))
    levels = (80.0, 5.0, 0.5, 0.002)
    expected = [[fn(x_t, y, t) for t in levels] for fn in (unc, cond)]
    barrier = threading.Barrier(8)
    results = [None] * 8

    def work(k):
        barrier.wait(timeout=10)
        results[k] = [[fn(x_t, y, t) for t in levels] for fn in (unc, cond)]

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
    assert shapes == []
    for result in results:
        for got, want in zip(result, expected):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


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
    assert np.allclose(prior.joint_denoise_cov(t, op, sigma_y), t2 * gain(cov_y),
                       rtol=0.0, atol=1e-10)


def test_non_finite_conditioning_names_sigma_y():
    prior = small_prior(12)
    huge = np.full((2, prior.n), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="sigma_y"):
            prior.measurement_consistency(huge, 0.0)
        with pytest.raises(ValueError, match="sigma_y"):
            prior.posterior(huge, np.zeros(2), 0.0)


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
