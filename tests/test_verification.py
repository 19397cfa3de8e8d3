import math
import threading
from dataclasses import asdict

import numpy as np
import pytest

from cminverse import priors
from cminverse.operators import DenseOperator, IdentityOperator, make_centered_square_inpaint
from cminverse.priors import GaussianPrior, rbf_prior
from cminverse.schedules import make_karras_schedule
from cminverse.verification import (
    DEFAULT_GAMMA_GRID,
    VerificationReport,
    mc_dropped_variance_check,
    residual_bound_check,
    variance_compensation_check,
)


def white_prior(n):
    return GaussianPrior(mean=np.zeros(n), covariance=np.eye(n))


def correlated_prior(n, seed):
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((n, n))
    return GaussianPrior(mean=rng.standard_normal(n), covariance=root @ root.T / n)


def test_dropped_variance_white_prior_frozen_target():
    # Sigma = I, n = 4, t = 1: trace of the conditional covariance is
    # 4 * 1/(1+1) = 2, and with s = 0.5, t_min = 0.01 the closed form is
    # (1 - sqrt(0.2499/0.9999))^2 * 2
    report = mc_dropped_variance_check(
        white_prior(4), t=1.0, s=0.5, t_min=0.01, n_samples=20000, seed=0
    )
    assert report.check_name == "dropped_variance"
    assert report.bound_or_target == pytest.approx(0.5001500375093775, abs=1e-14)
    assert report.passed
    assert abs(report.statistic - report.bound_or_target) <= 0.02 * report.bound_or_target
    assert report.n_samples == 20000
    assert 0.0 < report.details["r"] < 1.0


def test_dropped_variance_target_matches_eigenvalue_route():
    # independent target: trace(t^2 Sigma (Sigma + t^2 I)^-1) through the
    # eigenvalues of Sigma instead of the solver
    prior = correlated_prior(5, seed=21)
    t, s, t_min = 2.0, 0.7, 0.01
    report = mc_dropped_variance_check(
        prior, t, s, t_min, n_samples=20000, seed=1, rel_tol=0.1
    )
    vals = np.linalg.eigvalsh(prior.covariance)
    trace = float(np.sum(t * t * vals / (vals + t * t)))
    r = math.sqrt((s * s - t_min * t_min) / (t * t - t_min * t_min))
    assert report.bound_or_target == pytest.approx((1 - r) ** 2 * trace, abs=1e-10)
    assert report.passed


def test_dropped_variance_point_mass_prior():
    # a zero-covariance prior gives up nothing: statistic and target both 0
    prior = GaussianPrior(mean=np.full(3, 0.5), covariance=np.zeros((3, 3)))
    report = mc_dropped_variance_check(prior, 1.0, 0.5, 0.01, n_samples=50, seed=2)
    assert report.bound_or_target == 0.0
    assert report.statistic == pytest.approx(0.0, abs=1e-12)
    assert report.passed


def test_dropped_variance_gate_fires_when_budget_is_too_small():
    # 100 samples cannot support a 2% band: the verdict must come back
    # failed, and widening the band over the same draws must flip it
    tight = mc_dropped_variance_check(
        white_prior(4), 1.0, 0.5, 0.01, n_samples=100, seed=3, rel_tol=0.02
    )
    assert not tight.passed
    wide = mc_dropped_variance_check(
        white_prior(4), 1.0, 0.5, 0.01, n_samples=100, seed=3, rel_tol=0.80
    )
    assert wide.passed
    assert wide.statistic == tight.statistic
    assert wide.tolerance == 0.80


def test_dropped_variance_seed_determinism():
    a = mc_dropped_variance_check(white_prior(4), 1.0, 0.5, 0.01, 500, seed=4)
    b = mc_dropped_variance_check(white_prior(4), 1.0, 0.5, 0.01, 500, seed=4)
    c = mc_dropped_variance_check(white_prior(4), 1.0, 0.5, 0.01, 500, seed=5)
    assert a.statistic == b.statistic
    assert a.statistic != c.statistic


def test_residual_bound_identity_operator_has_zero_slack():
    # ||A d|| == ||d|| when A = I, so the bound is tight sample by sample
    report = residual_bound_check(
        IdentityOperator(1, 1, 4), white_prior(4), sigma_y=0.05, n_samples=2000, seed=0
    )
    assert report.check_name == "residual_decomposition_bound"
    assert report.statistic == 0.0
    assert report.passed
    gap = report.details["decomposition_gap_mean"]
    assert abs(gap) <= 3.0 * report.details["decomposition_gap_se"] + 1e-12


def test_residual_bound_zero_operator():
    # A = 0 leaves only measurement noise: the residual mean must sit at
    # m sigma_y^2 and the slack is identically zero
    op = DenseOperator(np.zeros((3, 5)))
    report = residual_bound_check(op, white_prior(5), sigma_y=0.1, n_samples=4000, seed=1)
    assert report.details["noise_offset"] == pytest.approx(0.03, abs=1e-15)
    assert report.details["lhs_mean"] == pytest.approx(0.03, rel=0.1)
    assert report.statistic == 0.0
    assert report.details["bound_value"] == report.details["noise_offset"]
    assert report.passed


def test_residual_bound_random_wide_operator():
    rng = np.random.default_rng(6)
    op = DenseOperator(rng.standard_normal((6, 8)))
    report = residual_bound_check(op, correlated_prior(8, 7), 0.05, 10000, seed=2)
    assert report.passed
    assert report.statistic > 0.0  # generic A is not tight
    slop = 3.0 * report.details["decomposition_gap_se"]
    assert report.details["lhs_mean"] <= report.details["bound_value"] + slop


def test_variance_compensation_identity_task():
    # deterministic sampling under-covers; some positive gamma must close
    # part of the gap
    prior = correlated_prior(4, seed=8)
    op = IdentityOperator(1, 1, 4)
    schedule = make_karras_schedule(2, 0.01, 5.0)
    report = variance_compensation_check(
        prior, op, 0.05, schedule, n_runs=100, seed=0
    )
    assert report.check_name == "variance_compensation"
    assert report.passed
    assert report.statistic < 1.0
    ratios = report.details["ratios"]
    assert set(ratios) == {str(float(g)) for g in DEFAULT_GAMMA_GRID}
    assert report.details["best_gamma"] > 0.0
    assert abs(ratios[str(report.details["best_gamma"])] - 1.0) <= min(
        abs(v - 1.0) for v in ratios.values()
    )


def test_variance_compensation_grid_always_contains_zero():
    prior = correlated_prior(3, seed=9)
    schedule = make_karras_schedule(2, 0.01, 5.0)
    report = variance_compensation_check(
        prior, IdentityOperator(1, 1, 3), 0.05, schedule,
        gamma_grid=(0.5,), n_runs=50, seed=1,
    )
    assert set(report.details["ratios"]) == {"0.0", "0.5"}


def test_variance_compensation_exact_measurement_edge():
    # sigma_y = 0 with an identity operator pins the posterior to a point;
    # every run returns y, so all ratios collapse to 1
    prior = white_prior(2)
    schedule = make_karras_schedule(2, 0.01, 5.0)
    report = variance_compensation_check(
        prior, IdentityOperator(1, 1, 2), 0.0, schedule, n_runs=20, seed=2
    )
    assert report.details["posterior_trace"] <= 1e-12
    assert report.statistic == 1.0
    assert all(v == 1.0 for v in report.details["ratios"].values())
    assert report.passed


def test_variance_compensation_conditions_once(monkeypatch):
    # the posterior trace comes from the eigenvalues of the conditioning that
    # also gives the samplers their closure: per flip block of the 16 x 16
    # centred square, one Cholesky factor of the gram, its inverse in one
    # leaf, and one Sigma_y factor, each kind in block order, and nothing more
    op = make_centered_square_inpaint(1, 16, 16)
    prior = rbf_prior(op.signal_shape, length_scale=3.0, variance=0.05, mean_level=0.5)
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
    schedule = make_karras_schedule(2, 0.01, 5.0)
    report = variance_compensation_check(prior, op, 0.05, schedule, gamma_grid=(0.5,),
                                         n_runs=20, seed=3)
    assert calls == [("cholesky", (48, 48))] * 4 + [("inv", (48, 48))] * 4 + [("eigh", (64, 64))] * 4
    # Sigma_y does not depend on y
    want = np.trace(prior.posterior(op, np.zeros(op.m), 0.05)[1])
    assert report.details["posterior_trace"] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_report_as_dict_round_trip():
    report = VerificationReport(
        check_name="x", statistic=1.0, bound_or_target=2.0,
        tolerance=0.1, n_samples=7, passed=np.bool_(True), details={"k": 3},
    )
    d = asdict(report)
    assert d["passed"] is True
    assert isinstance(d["passed"], bool)
    assert d["details"] == {"k": 3}
