import math
import warnings

import numpy as np
import pytest

from cminverse.operators import (
    DenseOperator,
    IdentityOperator,
    make_gaussian_blur,
    make_synthetic_nonlinear_blur,
)
from cminverse.priors import EmpiricalPrior, GaussianPrior
from cminverse.samplers import (
    VARIANTS,
    SamplerConfig,
    UnsupportedCombination,
    addim_step,
    ddim_step,
    ddrm_step,
    interval_ratio,
    inverse_addim_step,
    sample,
)
from cminverse.schedules import NoiseSchedule, make_karras_schedule


def test_ddim_scalar_hand_value():
    # t=2, s=1, t_min=0.5: ratio (1-0.25)/(4-0.25) = 0.2, so from
    # x_hat=0, x_t=1 the update lands at sqrt(0.2).
    out = ddim_step(np.array([1.0]), np.array([0.0]), 2.0, 1.0, 0.5)
    assert out[0] == pytest.approx(0.4472135954999579, abs=1e-15)


def test_addim_scalar_hand_value():
    # same geometry plus teacher error ||x* - x_hat||^2 = 0.25, eta = 1:
    # coefficient sqrt(0.2 + (1 - sqrt(0.2))^2 * 0.25)
    out = addim_step(
        np.array([1.0]), np.array([0.0]), np.array([0.5]), 2.0, 1.0, 0.5, eta=1.0
    )
    assert out[0] == pytest.approx(0.5257311121191336, abs=1e-15)


def test_inverse_step_equals_teacher_step_when_residuals_match():
    # identity operator with y - x_hat equal to x* - x_hat makes the two
    # variance surrogates identical, so gamma = eta gives the same update
    rng = np.random.default_rng(0)
    n = 6
    x_t = rng.standard_normal(n)
    x_hat = rng.standard_normal(n)
    teacher = rng.standard_normal(n)
    op = IdentityOperator(1, 1, n)
    y = teacher.copy()
    a = addim_step(x_t, x_hat, teacher, 2.0, 1.0, 0.5, eta=0.7)
    b = inverse_addim_step(x_t, x_hat, y, op, 2.0, 1.0, 0.5, gamma=0.7)
    assert np.allclose(a, b, atol=1e-14)


def test_reductions_are_bitwise():
    rng = np.random.default_rng(1)
    n = 8
    op = DenseOperator(rng.standard_normal((5, n)))
    for _ in range(50):
        x_t = rng.standard_normal(n)
        x_hat = rng.standard_normal(n)
        teacher = rng.standard_normal(n)
        y = rng.standard_normal(5)
        base = ddim_step(x_t, x_hat, 3.0, 1.2, 0.01)
        assert np.array_equal(
            addim_step(x_t, x_hat, teacher, 3.0, 1.2, 0.01, eta=0.0), base
        )
        assert np.array_equal(
            inverse_addim_step(x_t, x_hat, y, op, 3.0, 1.2, 0.01, gamma=0.0), base
        )
        # zero residual with positive gamma also collapses to the base step
        assert np.array_equal(
            inverse_addim_step(x_t, x_hat, op.apply(x_hat), op, 3.0, 1.2, 0.01, gamma=2.0),
            base,
        )


def test_degenerate_estimate_returns_x_hat_without_nan():
    x = np.ones(4)
    out = inverse_addim_step(x, x, np.zeros(2), DenseOperator(np.zeros((2, 4))),
                             2.0, 1.0, 0.5, gamma=1.0)
    assert np.array_equal(out, x)
    out = addim_step(x, x, np.zeros(4), 2.0, 1.0, 0.5, eta=1.0)
    assert np.array_equal(out, x)


def test_interval_ratio_validation():
    assert interval_ratio(2.0, 0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        interval_ratio(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        interval_ratio(1.0, 0.1, 0.5)


@pytest.mark.parametrize("t_min, t_max", [(0.002, 80.0), (0.01, 10.0)])
def test_interval_ratio_matches_direct_formula_at_ordinary_levels(t_min, t_max):
    for steps in range(2, 21):
        levels = [float(t) for t in make_karras_schedule(steps, t_min, t_max).levels]
        for t, s in zip(levels, levels[1:]):
            direct = (s * s - t_min * t_min) / (t * t - t_min * t_min)
            assert abs(interval_ratio(t, s, t_min) - direct) <= 1e-15 * direct


@pytest.mark.parametrize("steps", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", ["cm_baseline", "ddim", "addim", "inverse_addim"])
def test_huge_t_max_gives_finite_estimates_without_warnings(variant, steps):
    # at t_max = 1e300 the squares of the top levels overflow, so the
    # ratio and the noise scale must be formed without them
    prior, op = make_prior(), DenseOperator(np.random.default_rng(5).standard_normal((4, 6)))
    rng = np.random.default_rng(6)
    x_true = prior.sample(rng)
    y = op.apply(x_true) + 0.05 * rng.standard_normal(op.m)
    config = SamplerConfig(variant=variant, steps=steps, t_min=0.01, t_max=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajectory = sample(prior.measurement_consistency(op, 0.05), config, y=y,
                            operator=op, sigma_y=0.05, x_teacher=x_true, seed=[1, 2])
    assert trajectory.estimate.shape == (2, 6)
    assert np.all(np.isfinite(trajectory.estimate))


def test_step_down_to_t_min_is_exact_estimate():
    rng = np.random.default_rng(2)
    x_t, x_hat = rng.standard_normal(5), rng.standard_normal(5)
    assert np.array_equal(ddim_step(x_t, x_hat, 2.0, 0.5, 0.5), x_hat)


class RecordingConsistency:
    """Wraps a consistency fn and records every call: its level, latent and
    estimate, as the sampler passed and received them."""

    def __init__(self, fn):
        self.fn = fn
        self.levels, self.latents, self.estimates = [], [], []

    def __call__(self, x_t, y, t):
        x_hat = self.fn(x_t, y, t)
        self.levels.append(float(t))
        self.latents.append(np.array(x_t))
        self.estimates.append(np.array(x_hat, dtype=np.float64))
        return x_hat


def make_prior(n=6, seed=3):
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((n, n))
    return GaussianPrior(mean=np.zeros(n), covariance=root @ root.T / n)


def test_evaluation_count_equals_steps():
    prior = make_prior()
    for steps in (1, 2, 5):
        recording = RecordingConsistency(prior.consistency())
        config = SamplerConfig(variant="ddim", steps=steps, t_min=0.01, t_max=10.0)
        trajectory = sample(recording, config, n=prior.n, seed=0)
        assert len(recording.levels) == steps
        assert np.array_equal(trajectory.estimate, recording.estimates[-1][0])


def test_single_step_all_variants_coincide():
    # steps=1 is one evaluation of the initial latent; no variant-specific
    # update ever runs, so every variant returns the same estimate.
    prior = make_prior()
    op = IdentityOperator(1, 1, prior.n)
    y = np.zeros(prior.n)
    outs = []
    for variant in ("cm_baseline", "ddim", "addim", "inverse_addim", "ddrm"):
        config = SamplerConfig(variant=variant, steps=1, t_min=0.01, t_max=10.0)
        recording = RecordingConsistency(prior.consistency())
        trajectory = sample(
            recording,
            config,
            y=y,
            operator=op,
            sigma_y=0.05,
            x_teacher=np.zeros(prior.n),
            seed=11,
        )
        assert recording.levels == [10.0]
        outs.append(trajectory.estimate)
    for est in outs[1:]:
        assert np.array_equal(est, outs[0])


def test_calls_are_ordered_by_decreasing_level():
    prior = make_prior()
    config = SamplerConfig(variant="cm_baseline", steps=6, t_min=0.01, t_max=10.0)
    recording = RecordingConsistency(prior.consistency())
    sample(recording, config, n=prior.n, seed=4)
    levels = recording.levels
    assert levels == sorted(levels, reverse=True)
    sched = make_karras_schedule(6, 0.01, 10.0)
    assert levels == [float(t) for t in sched.levels]
    assert levels[-1] == 0.01


def test_cm_baseline_matches_reference_loop():
    # independent reimplementation of the stochastic multistep loop
    prior = make_prior()
    fn = prior.consistency()
    n, seed, steps = prior.n, 7, 4
    config = SamplerConfig(variant="cm_baseline", steps=steps, t_min=0.01, t_max=10.0)
    trajectory = sample(fn, config, n=n, seed=seed)

    sched = make_karras_schedule(steps, 0.01, 10.0)
    rng = np.random.default_rng(seed)
    x = sched.levels[0] * rng.standard_normal(n)
    for i in range(steps - 1):
        x0 = fn(x, None, sched.levels[i])
        s = sched.levels[i + 1]
        x = x0 + s * math.sqrt(1.0 - (0.01 / s) ** 2) * rng.standard_normal(n)
    expected = fn(x, None, sched.levels[steps - 1])
    assert np.array_equal(trajectory.estimate, expected)


def test_same_seed_is_bit_reproducible():
    prior = make_prior()
    config = SamplerConfig(variant="cm_baseline", steps=3, t_min=0.01, t_max=10.0)
    a = sample(prior.consistency(), config, n=prior.n, seed=5).estimate
    b = sample(prior.consistency(), config, n=prior.n, seed=5).estimate
    assert np.array_equal(a, b)
    c = sample(prior.consistency(), config, n=prior.n, seed=6).estimate
    assert not np.array_equal(a, c)


def test_gamma_zero_trajectory_is_bitwise_ddim():
    prior = make_prior()
    op = IdentityOperator(1, 1, prior.n)
    rng = np.random.default_rng(8)
    y = rng.standard_normal(prior.n)
    fn = prior.measurement_consistency(op, 0.05)
    kw = dict(y=y, operator=op, sigma_y=0.05, seed=9)
    ddim = sample(fn, SamplerConfig(variant="ddim", steps=4, t_min=0.01, t_max=10.0), **kw)
    zero = sample(
        fn,
        SamplerConfig(variant="inverse_addim", steps=4, gamma=0.0, t_min=0.01, t_max=10.0),
        **kw,
    )
    assert np.array_equal(ddim.estimate, zero.estimate)


def test_ddrm_on_nonlinear_operator_is_rejected():
    prior = make_prior(n=16)
    op = make_synthetic_nonlinear_blur(1, 4, 4, sigma=1.0, saturation=2.0)
    config = SamplerConfig(variant="ddrm", steps=2, t_min=0.01, t_max=10.0)
    with pytest.raises(UnsupportedCombination):
        sample(prior.consistency(), config, y=np.zeros(16), operator=op, seed=0)
    with pytest.raises(UnsupportedCombination):
        ddrm_step(np.zeros(16), np.zeros(16), np.zeros(16), op, 1.0, 0.5, 0.05,
                  np.zeros(16))


def test_missing_requirements_raise():
    prior = make_prior()
    with pytest.raises(ValueError):
        sample(prior.consistency(), SamplerConfig(variant="addim", steps=2), n=6, seed=0)
    with pytest.raises(ValueError):
        sample(prior.consistency(), SamplerConfig(variant="inverse_addim", steps=2),
               n=6, seed=0)
    with pytest.raises(ValueError):
        sample(prior.consistency(), SamplerConfig(variant="ddim", steps=2), seed=0)


def test_short_custom_schedule_is_rejected():
    prior = make_prior()
    sched = NoiseSchedule(levels=np.array([5.0, 0.1]), t_min=0.1, t_max=5.0)
    config = SamplerConfig(variant="ddim", steps=3, t_min=0.1, t_max=5.0)
    with pytest.raises(ValueError, match="levels"):
        sample(prior.consistency(), config, n=prior.n, seed=0, schedule=sched)


@pytest.mark.parametrize("variant", VARIANTS)
def test_explicit_schedule_sets_the_floor(variant):
    # the config's t_min and t_max only build the default schedule: with an
    # explicit one, a default config gives the estimate of a matching config
    prior, op, fn = _parity_setup("gaussian", False)
    rng = np.random.default_rng(3)
    y = op.apply(rng.standard_normal(16)) + 0.05 * rng.standard_normal(op.m)
    kw = dict(y=y, operator=op, sigma_y=0.05, x_teacher=rng.standard_normal(16), seed=1)
    sched = make_karras_schedule(3, t_min=0.01, t_max=10.0)
    default = sample(fn, SamplerConfig(variant=variant, steps=3), schedule=sched, **kw)
    matched = sample(fn, SamplerConfig(variant=variant, steps=3, t_min=0.01, t_max=10.0),
                     schedule=sched, **kw)
    assert np.array_equal(default.estimate, matched.estimate)
    # a floor below the config's default t_min = 0.002 runs too
    low = make_karras_schedule(3, t_min=1e-4, t_max=10.0)
    estimate = sample(fn, SamplerConfig(variant=variant, steps=3), schedule=low, **kw).estimate
    assert np.isfinite(estimate).all()


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(variant="nope", steps=2)
    with pytest.raises(ValueError):
        SamplerConfig(variant="ddim", steps=0)
    with pytest.raises(ValueError):
        SamplerConfig(variant="ddim", steps=2, gamma=-1.0)
    with pytest.raises(ValueError):
        SamplerConfig(variant="ddrm", steps=2, ddrm_eta=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(variant="ddim", steps=2, t_min=2.0, t_max=1.0)


def test_ddim_trajectory_with_exact_denoiser_converges():
    # the final estimate must be the denoiser applied at the floor level
    # to the latent of the last consistency call
    prior = make_prior(n=4, seed=10)
    recording = RecordingConsistency(prior.consistency())
    config = SamplerConfig(variant="ddim", steps=12, t_min=0.005, t_max=30.0)
    trajectory = sample(recording, config, n=4, seed=12)
    final_latent = recording.latents[-1][0]
    assert np.allclose(
        trajectory.estimate, prior.denoise(final_latent, 0.005), atol=1e-10
    )


def test_addim_uses_teacher():
    prior = make_prior()
    teacher = np.full(prior.n, 0.3)
    config = SamplerConfig(variant="addim", steps=3, eta=1.0, t_min=0.01, t_max=10.0)
    a = sample(prior.consistency(), config, n=prior.n, x_teacher=teacher, seed=1)
    b = sample(prior.consistency(), config, n=prior.n, x_teacher=teacher * 5, seed=1)
    assert not np.array_equal(a.estimate, b.estimate)


# -- batched trajectories ---------------------------------------------------

def _parity_setup(prior_kind, nonlinear):
    prior = make_prior(n=16, seed=21)
    if nonlinear:
        op = make_synthetic_nonlinear_blur(1, 4, 4, sigma=1.0, saturation=2.0)
    else:
        op = make_gaussian_blur(1, 4, 4, sigma=1.0)
    if prior_kind == "gaussian_conditioned":
        fn = prior.measurement_consistency(op, 0.05)
    elif prior_kind == "gaussian":
        fn = prior.consistency()
    else:
        atoms = np.random.default_rng(22).standard_normal((5, 16))
        fn = EmpiricalPrior(atoms).consistency()
    return prior, op, fn


BATCH_CASES = [
    (variant, prior_kind, False)
    for variant in ("cm_baseline", "ddim", "addim", "inverse_addim", "ddrm")
    for prior_kind in ("gaussian_conditioned", "gaussian", "empirical")
] + [("inverse_addim", "gaussian", True), ("inverse_addim", "empirical", True)]


@pytest.mark.parametrize("variant,prior_kind,nonlinear", BATCH_CASES)
def test_batched_rows_match_single_seed_runs(variant, prior_kind, nonlinear):
    prior, op, fn = _parity_setup(prior_kind, nonlinear)
    rng = np.random.default_rng(23)
    seeds = [0, 1, 2, 7, 40]
    xs = rng.standard_normal((len(seeds), 16))
    ys = op.apply(xs) + 0.05 * rng.standard_normal((len(seeds), op.m))
    teachers = rng.standard_normal((len(seeds), 16))
    config = SamplerConfig(variant=variant, steps=4, gamma=0.8, eta=0.6,
                           t_min=0.01, t_max=10.0)
    kw = dict(operator=op, sigma_y=0.05)
    batch_calls = RecordingConsistency(fn)
    batch = sample(batch_calls, config, y=ys, x_teacher=teachers, seed=seeds, **kw)
    assert batch.estimate.shape == (len(seeds), 16)
    assert batch.degenerate_steps.shape == (len(seeds),)
    assert len(batch_calls.levels) == config.steps
    for k, seed in enumerate(seeds):
        alone_calls = RecordingConsistency(fn)
        alone = sample(alone_calls, config, y=ys[k], x_teacher=teachers[k], seed=seed, **kw)
        assert alone.estimate.shape == (16,)
        assert np.max(np.abs(batch.estimate[k] - alone.estimate)) <= 1e-12
        assert batch_calls.levels == alone_calls.levels
        for latent_b, latent_a in zip(batch_calls.latents, alone_calls.latents):
            assert np.max(np.abs(latent_b[k] - latent_a[0])) <= 1e-12
        for estimate_b, estimate_a in zip(batch_calls.estimates, alone_calls.estimates):
            assert np.max(np.abs(estimate_b[k] - estimate_a[0])) <= 1e-12
        assert batch.degenerate_steps[k] == alone.degenerate_steps


def test_single_measurement_broadcasts_over_seeds():
    prior = make_prior(n=16, seed=21)
    op = make_gaussian_blur(1, 4, 4, sigma=1.0)
    y = op.apply(np.full(16, 0.2))
    fn = prior.measurement_consistency(op, 0.05)
    config = SamplerConfig(variant="inverse_addim", steps=3, t_min=0.01, t_max=10.0)
    shared = sample(fn, config, y=y, operator=op, sigma_y=0.05, seed=[4, 5, 6])
    stacked = sample(fn, config, y=np.stack([y] * 3), operator=op, sigma_y=0.05,
                     seed=[4, 5, 6])
    assert np.max(np.abs(shared.estimate - stacked.estimate)) <= 1e-12
    with pytest.raises(ValueError, match="one row per seed"):
        sample(fn, config, y=np.stack([y] * 2), operator=op, seed=[4, 5, 6])
    with pytest.raises(ValueError, match="at least one seed"):
        sample(fn, config, y=y, operator=op, seed=[])


def test_degenerate_steps_are_counted_per_row():
    # an exact identity "denoiser" leaves x_t - x_hat = 0 on every row
    config = SamplerConfig(variant="addim", steps=3, t_min=0.01, t_max=10.0)
    trajectory = sample(lambda x, y, t: x, config, x_teacher=np.zeros(4), seed=[1, 2])
    assert trajectory.degenerate_steps.tolist() == [2, 2]


# -- residual norms ---------------------------------------------------------

def _residual_norms(y, op, estimates):
    """||y - A(x_hat)|| of each row of each recorded (B, n) estimate, as
    (B, steps), each row summed by np.dot."""
    resids = [np.broadcast_to(y, (len(x_hat), op.m)) - op.apply(x_hat) for x_hat in estimates]
    return np.array([[math.sqrt(np.dot(r[b], r[b])) for r in resids]
                     for b in range(len(estimates[0]))])


@pytest.mark.parametrize("variant,nonlinear", [
    (variant, nonlinear) for nonlinear in (False, True) for variant in VARIANTS
    if not (nonlinear and variant == "ddrm")  # the spectral sampler needs a linear operator
])
def test_residual_norms_are_those_of_the_returned_estimates(variant, nonlinear):
    _, op, fn = _parity_setup("gaussian", nonlinear)
    rng = np.random.default_rng(24)
    seeds = [3, 5, 8]
    ys = op.apply(rng.standard_normal((len(seeds), 16))) + 0.05 * rng.standard_normal(
        (len(seeds), op.m))
    teachers = rng.standard_normal((len(seeds), 16))
    config = SamplerConfig(variant=variant, steps=4, gamma=0.8, eta=0.6,
                           t_min=0.01, t_max=10.0)
    kw = dict(operator=op, sigma_y=0.05)
    for y, teacher, seed in ((ys, teachers, seeds), (ys[1], teachers[1], seeds[1])):
        recording = RecordingConsistency(fn)
        trajectory = sample(recording, config, y=y, x_teacher=teacher, seed=seed, **kw)
        expected = _residual_norms(y, op, recording.estimates)
        if np.ndim(seed) == 0:
            expected = expected[0]
        assert trajectory.residual_norms.shape == expected.shape
        assert np.array_equal(trajectory.residual_norms, expected)


def test_residual_norms_need_a_measurement_and_an_operator():
    prior = make_prior()
    op = IdentityOperator(1, 1, prior.n)
    config = SamplerConfig(variant="ddim", steps=3, t_min=0.01, t_max=10.0)
    fn = prior.consistency()
    assert sample(fn, config, n=prior.n, seed=[1, 2]).residual_norms is None
    assert sample(fn, config, operator=op, seed=1).residual_norms is None
    assert sample(fn, config, y=np.zeros(prior.n), n=prior.n, seed=1).residual_norms is None
    assert sample(fn, config, y=np.zeros(prior.n), operator=op,
                  seed=[1, 2]).residual_norms.shape == (2, 3)
