"""Monte Carlo and analytic self-checks for the sampler math.

Each check pits an implementation path against an independent route to
the same quantity -- closed-form Gaussian algebra against simulated
trajectories, or raw estimators against their exact decompositions --
and reports a pass/fail verdict with the measured statistic.  Checks are
deterministic for a fixed seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import LinearOperator
from .priors import GaussianPrior
from .samplers import SamplerConfig, interval_ratio, sample
from .schedules import NoiseSchedule

DEFAULT_GAMMA_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    statistic: float
    bound_or_target: float
    tolerance: float
    n_samples: int
    passed: bool
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        # a numpy comparison gives np.bool_, which JSON cannot write
        object.__setattr__(self, "passed", bool(self.passed))


def mc_dropped_variance_check(
    prior: GaussianPrior,
    t: float,
    s: float,
    t_min: float,
    n_samples: int,
    seed: int = 0,
    rel_tol: float = 0.02,
) -> VerificationReport:
    """Compare the simulated norm surplus of exact posterior stepping
    against the closed form (1-r)^2 trace(Var[x | x_t]).

    A deterministic step to level s replaces the posterior draw x by its
    mean x_hat; the second moment it gives up is exactly the posterior
    variance shrunk by (1-r)^2.  The Monte Carlo side draws x from
    p(x | x_t) for one fixed x_t, maps each draw through
    x + r (x_t - x), and differences the squared norms.  Draws come in
    antithetic +/- pairs, which cancels the linear cross term exactly and
    leaves only the quadratic surplus to average -- without this the
    estimator's noise is dominated by ||x_t|| and 1e5 samples cannot
    resolve small targets.
    """
    rng = np.random.default_rng(seed)
    x_t = prior.sample(rng) + t * rng.standard_normal(prior.n)
    r = math.sqrt(interval_ratio(t, s, t_min))

    x_hat = prior.denoise(x_t, t)
    cond_cov = prior.denoise_cov(t)
    target = (1.0 - r) ** 2 * float(np.trace(cond_cov))

    vals, vecs = np.linalg.eigh(cond_cov)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    n_pairs = max(n_samples // 2, 1)
    n_samples = 2 * n_pairs
    spread = rng.standard_normal((n_pairs, prior.n)) @ root.T
    det_step = x_hat + r * (x_t - x_hat)
    plus = det_step + (1.0 - r) * spread
    minus = det_step - (1.0 - r) * spread
    mc = 0.5 * float(
        np.mean(np.einsum("ij,ij->i", plus, plus))
        + np.mean(np.einsum("ij,ij->i", minus, minus))
    )
    statistic = mc - float(det_step @ det_step)

    gap = abs(statistic - target)
    passed = gap <= rel_tol * abs(target) + 1e-12
    return VerificationReport(
        check_name="dropped_variance",
        statistic=statistic,
        bound_or_target=target,
        tolerance=rel_tol,
        n_samples=n_samples,
        passed=passed,
        details={"r": r, "absolute_gap": gap},
    )


def residual_bound_check(
    op: LinearOperator,
    prior: GaussianPrior,
    sigma_y: float,
    n_samples: int,
    seed: int = 0,
    t: float = 1.0,
) -> VerificationReport:
    """Check the measurement-residual decomposition and its operator-norm bound.

    With x_hat denoised from x_t alone (so independent of the measurement
    noise), E ||y - A x_hat||^2 splits exactly into
    E ||A (x - x_hat)||^2 + m sigma_y^2.  Part (a) verifies that split on
    raw simulated streams within 3 Monte Carlo standard errors.  Part (b)
    evaluates the bound E ||y - A x_hat||^2 <= ||A||_2^2 E ||x - x_hat||^2
    + m sigma_y^2 on the decomposed estimator, where the slack
    ||A||_2^2 ||d||^2 - ||A d||^2 is pointwise non-negative, so the
    reported slack can never go negative through sampling luck.
    """
    rng = np.random.default_rng(seed)
    m = op.m
    xs = prior.sample(rng, size=n_samples)
    noise_t = rng.standard_normal((n_samples, prior.n))
    noise_y = rng.standard_normal((n_samples, m))

    x_hat = prior.denoise(xs + t * noise_t, t)
    delta = xs - x_hat
    a_delta = op.apply(delta)
    y = op.apply(xs) + sigma_y * noise_y
    resid = y - op.apply(x_hat)

    resid_sq = np.einsum("ij,ij->i", resid, resid)
    a_delta_sq = np.einsum("ij,ij->i", a_delta, a_delta)
    delta_sq = np.einsum("ij,ij->i", delta, delta)
    offset = m * sigma_y * sigma_y

    decomp_gap = resid_sq - a_delta_sq - offset
    gap_mean = float(decomp_gap.mean())
    gap_se = float(decomp_gap.std(ddof=1) / math.sqrt(n_samples))
    decomposition_ok = abs(gap_mean) <= 3.0 * gap_se + 1e-12

    op_norm_sq = op.spectral_norm() ** 2
    slack = float(np.mean(op_norm_sq * delta_sq - a_delta_sq))
    slack_ok = slack >= -1e-12

    return VerificationReport(
        check_name="residual_decomposition_bound",
        statistic=slack,
        bound_or_target=0.0,
        tolerance=3.0,
        n_samples=n_samples,
        passed=bool(decomposition_ok and slack_ok),
        details={
            "decomposition_gap_mean": gap_mean,
            "decomposition_gap_se": gap_se,
            "noise_offset": offset,
            "lhs_mean": float(resid_sq.mean()),
            "bound_value": op_norm_sq * float(delta_sq.mean()) + offset,
        },
    )


def variance_compensation_check(
    prior: GaussianPrior,
    op: LinearOperator,
    sigma_y: float,
    schedule: NoiseSchedule,
    gamma_grid=DEFAULT_GAMMA_GRID,
    n_runs: int = 200,
    seed: int = 0,
) -> VerificationReport:
    """Measure how far each sampler's output spread is from the true posterior.

    For one fixed measurement, the trace of the final-sample covariance is
    compared with the trace of the analytic posterior covariance, read off
    the eigenvalues of the one conditioning that also gives the samplers'
    consistency function.  The deterministic sampler (gamma = 0)
    under-covers; the check passes when its ratio is below 1 and some grid
    gamma lands strictly closer to 1.
    """
    rng = np.random.default_rng(seed)
    x_star = prior.sample(rng)
    y = op.apply(x_star)
    if sigma_y > 0.0:
        y = y + sigma_y * rng.standard_normal(op.m)

    conditioned = prior._condition_on_measurement(op, sigma_y)
    post_trace = conditioned.posterior_trace()
    consistency = conditioned.denoise
    steps = len(schedule)

    grid = [float(g) for g in gamma_grid]
    if 0.0 not in grid:
        grid = [0.0] + grid

    ratios: dict[float, float] = {}
    for gamma in grid:
        config = SamplerConfig(
            variant="inverse_addim",
            steps=steps,
            gamma=gamma,
            t_min=schedule.t_min,
            t_max=schedule.t_max,
        )
        seeds = range(seed + 1, seed + 1 + n_runs)
        finals = sample(consistency, config, y=y, operator=op, seed=seeds,
                        schedule=schedule).estimate
        spread = float(finals.var(axis=0, ddof=1).sum())
        if post_trace <= 1e-12:
            ratios[gamma] = 1.0 if spread <= 1e-12 else math.inf
        else:
            ratios[gamma] = spread / post_trace

    ratio_det = ratios[0.0]
    others = [g for g in grid if g != 0.0]
    if post_trace <= 1e-12:
        improved = all(math.isfinite(ratios[g]) for g in others) if others else True
        passed = math.isfinite(ratio_det) and improved
    else:
        improved = any(abs(ratios[g] - 1.0) < abs(ratio_det - 1.0) for g in others)
        passed = ratio_det < 1.0 and improved

    best_gamma = min(ratios, key=lambda g: abs(ratios[g] - 1.0))
    return VerificationReport(
        check_name="variance_compensation",
        statistic=ratio_det,
        bound_or_target=1.0,
        tolerance=0.0,
        n_samples=n_runs,
        passed=bool(passed),
        details={
            "posterior_trace": post_trace,
            "ratios": {str(g): ratios[g] for g in grid},
            "best_gamma": best_gamma,
        },
    )
