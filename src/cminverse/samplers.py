"""Few-step samplers built around a consistency function.

All variants share one loop shape: draw the initial latent at the top
noise level, then for each adjacent pair of levels evaluate the
consistency function once and re-noise with a variant-specific rule,
and finish with one consistency evaluation at the last visited level.
The number of consistency evaluations therefore equals ``steps``
exactly, and ``steps=1`` collapses every variant to a single evaluation
of the initial latent.

The loop carries a (B, n) latent, one row per seed, and every step acts
on each row alone: noise norms, residual norms and the variance surplus
are per row.  An int seed runs one (n,) trajectory; B seeds run B rows
at once.  The step functions accept a vector or a (B, n) stack alike.
Given a measurement and its operator, the loop forms the residual
y - A(x_hat) once per consistency evaluation: ``inverse_addim`` is guided
by it, and every variant reports its norms as the run's health numbers.

Variants
--------
cm_baseline   re-noise the estimate with fresh Gaussian noise.
ddim          deterministic interpolation toward the estimate.
addim         ddim plus variance borrowed from the teacher error
              ||x_teacher - x_hat||^2 (needs ground truth).
inverse_addim ddim plus variance borrowed from the measurement residual
              ||y - A(x_hat)||^2; works for nonlinear forward maps too.
ddrm          spectral-domain three-case update (linear operators only).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .operators import LinearOperator
from .schedules import (
    DEFAULT_RHO,
    DEFAULT_T_MAX,
    DEFAULT_T_MIN,
    NoiseSchedule,
    make_karras_schedule,
)

VARIANTS = ("cm_baseline", "ddim", "addim", "inverse_addim", "ddrm")


class UnsupportedCombination(ValueError):
    """Sampler variant applied to an operator it cannot handle."""


@dataclass(frozen=True)
class SamplerConfig:
    variant: str
    steps: int
    eta: float = 1.0
    gamma: float = 1.0
    ddrm_eta: float = 0.85
    ddrm_eta_b: float = 1.0
    t_min: float = DEFAULT_T_MIN
    t_max: float = DEFAULT_T_MAX
    rho: float = DEFAULT_RHO

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        for key in ("eta", "gamma", "rho", "t_max"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.eta < 0.0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 <= self.ddrm_eta <= 1.0:
            raise ValueError(f"ddrm_eta must lie in [0, 1], got {self.ddrm_eta}")
        if not 0.0 <= self.ddrm_eta_b <= 1.0:
            raise ValueError(f"ddrm_eta_b must lie in [0, 1], got {self.ddrm_eta_b}")
        if not 0.0 < self.t_min < self.t_max:
            raise ValueError(
                f"need 0 < t_min < t_max, got t_min={self.t_min}, t_max={self.t_max}"
            )
        if self.rho <= 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")

    def schedule(self) -> NoiseSchedule:
        """Noise levels visited by the loop; steps=1 still needs two to exist."""
        return make_karras_schedule(max(self.steps, 2), self.t_min, self.t_max, self.rho)


def interval_ratio(t: float, s: float, t_min: float) -> float:
    """(s^2 - t_min^2) / (t^2 - t_min^2) for a step from level t down to s.

    Computed in units of t, so no square overflows even at t near the
    largest float.
    """
    if not t_min <= s < t:
        raise ValueError(f"need t_min <= s < t, got t={t}, s={s}, t_min={t_min}")
    s_t, m_t = s / t, t_min / t
    return (s_t * s_t - m_t * m_t) / (1.0 - m_t * m_t)


def _noise_scale(s: float, t_min: float) -> float:
    """sqrt(s^2 - t_min^2), the fresh noise that takes an estimate to level s,
    computed in units of s so that s^2 never overflows."""
    m_s = t_min / s
    return s * math.sqrt(1.0 - m_s * m_s)


def row_sq_norms(a):
    """Squared norm of each row of a (B, k) stack, or of one vector; every
    row is summed as ``np.dot(v, v)`` sums the vector alone, bit for bit.

    A norm past the float range is inf, without a warning: latents at
    t near the largest float reach it, and the guided surplus
    ||error||^2 / inf = 0 is then the right limit.
    """
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):
        return (a[..., None, :] @ a[..., :, None])[..., 0, 0]


def _scaled_noise_step(x_t, x_hat, ratio: float, extra):
    """x_hat + sqrt(ratio + extra) * (x_t - x_hat), with one extra per row.

    Every deterministic variant funnels through this one expression so
    that extra == 0.0 reproduces the plain interpolation bit for bit.
    """
    eps = x_t - x_hat
    return x_hat + np.sqrt(ratio + extra)[..., None] * eps


def ddim_step(x_t, x_hat, t: float, s: float, t_min: float = DEFAULT_T_MIN):
    """Deterministic step: shrink the implied noise by sqrt(interval ratio)."""
    return _scaled_noise_step(x_t, x_hat, interval_ratio(t, s, t_min), 0.0)


def _guided_step(x_t, x_hat, error, t, s, t_min, scale):
    """ddim plus the variance surplus (1-r)^2 scale ||error||^2 / ||eps||^2
    under the square root, per row; a row whose scale, error or noise
    eps = x_t - x_hat is zero gets no surplus."""
    x_t, x_hat = np.asarray(x_t), np.asarray(x_hat)
    ratio = interval_ratio(t, s, t_min)
    error_sq, eps_sq = row_sq_norms(error), row_sq_norms(x_t - x_hat)
    live = (scale != 0.0) & (error_sq != 0.0) & (eps_sq != 0.0)
    r = math.sqrt(ratio)
    surplus = (1.0 - r) * (1.0 - r) * scale * error_sq / np.where(live, eps_sq, 1.0)
    return _scaled_noise_step(x_t, x_hat, ratio, np.where(live, surplus, 0.0))


def addim_step(
    x_t, x_hat, x_teacher, t: float, s: float, t_min: float = DEFAULT_T_MIN, eta: float = 1.0
):
    """Teacher-guided step: inflate the noise scale by the estimation error."""
    return _guided_step(x_t, x_hat, np.asarray(x_teacher) - x_hat, t, s, t_min, eta)


def inverse_addim_step(
    x_t,
    x_hat,
    y,
    operator,
    t: float,
    s: float,
    t_min: float = DEFAULT_T_MIN,
    gamma: float = 1.0,
):
    """Measurement-guided step: the data residual stands in for the teacher.

    The residual y - A(x_hat) needs only a forward application, so any
    deterministic operator qualifies, nonlinear ones included.
    """
    resid = np.asarray(y) - operator.apply(x_hat)
    return _guided_step(x_t, x_hat, resid, t, s, t_min, gamma)


def _require_linear(operator):
    if not isinstance(operator, LinearOperator):
        raise UnsupportedCombination(
            "the spectral sampler needs a linear operator with an SVD"
        )


def _ddrm_move(x_t, x_hat, spectral_y, operator, t, s, sigma_y, noise, eta, eta_b):
    """The spectral update given ``measurement_to_spectral(y)``."""
    y_bar, valid = spectral_y
    xs = kernels.ddrm_update(
        operator.to_spectral(x_t), operator.to_spectral(x_hat), y_bar, valid,
        operator.padded_singular_values(), s, t, sigma_y, eta, eta_b, noise,
    )
    return operator.from_spectral(xs)


def ddrm_step(
    x_t,
    x_hat,
    y,
    operator: LinearOperator,
    t: float,
    s: float,
    sigma_y: float,
    noise,
    eta: float = 0.85,
    eta_b: float = 1.0,
):
    """One spectral-domain update from level t down to level s."""
    _require_linear(operator)
    return _ddrm_move(x_t, x_hat, operator.measurement_to_spectral(y), operator,
                      t, s, sigma_y, noise, eta, eta_b)


@dataclass(frozen=True)
class Trajectory:
    """Everything a sampling run produced.

    Arrays are (n,) for a single seed and (B, n) for one seed per row;
    ``degenerate_steps`` is then an int or a length-B integer array.
    ``residual_norms`` holds ||y - A(x_hat)|| after each consistency
    evaluation, in decreasing t: (steps,) or (B, steps), and None when
    the run had no measurement or no operator.
    """

    estimate: np.ndarray
    residual_norms: np.ndarray | None
    degenerate_steps: int | np.ndarray


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


def sample(
    consistency,
    config: SamplerConfig,
    *,
    n: int | None = None,
    y=None,
    operator=None,
    sigma_y: float = 0.0,
    x_teacher=None,
    seed=0,
    schedule: NoiseSchedule | None = None,
) -> Trajectory:
    """Run one trajectory per seed and return the final estimates.

    ``seed`` is an int, giving (n,) arrays, or a sequence of B ints,
    giving (B, n) arrays; ``y`` and ``x_teacher`` are one vector for all
    rows or one row per seed.  The consistency function is called exactly
    ``config.steps`` times, on the whole latent, and with ``y`` and an
    operator each estimate takes one ``operator.apply`` for its residual.
    Row i starts at t_max * z with z from its own ``default_rng(seed_i)``,
    which the stochastic variants keep drawing from in loop order, so a row
    equals its single-seed run and equal seeds give bit-identical runs.  An
    explicit schedule must have at least ``config.steps`` levels.
    """
    if schedule is None:
        schedule = config.schedule()
    _require(
        len(schedule) >= config.steps,
        f"schedule has {len(schedule)} levels but {config.steps} steps were requested",
    )
    levels = schedule.levels

    if operator is not None and n is None:
        n = operator.n
    if n is None and x_teacher is not None:
        n = np.shape(x_teacher)[-1]
    _require(n is not None, "cannot infer the signal dimension; pass n or an operator")

    single = np.ndim(seed) == 0
    rngs = [np.random.default_rng(s) for s in np.atleast_1d(seed)]
    _require(len(rngs) > 0, "need at least one seed")
    for name, rows in (("y", y), ("x_teacher", x_teacher)):
        _require(
            rows is None or np.ndim(rows) == 1 or np.shape(rows)[0] == len(rngs),
            f"{name} must be one vector or one row per seed",
        )

    variant = config.variant
    if variant == "addim":
        _require(x_teacher is not None, "addim needs x_teacher (the ground truth)")
    if variant == "inverse_addim":
        _require(y is not None and operator is not None, "inverse_addim needs y and an operator")
    if variant == "ddrm":
        _require(y is not None and operator is not None, "ddrm needs y and an operator")
        _require_linear(operator)
        spectral_y = operator.measurement_to_spectral(y)

    def draw():
        return np.stack([rng.standard_normal(n) for rng in rngs])

    def unbatch(a):
        return a[0] if single else a

    x = levels[0] * draw()
    degenerate = np.zeros(len(rngs), dtype=int)
    norms = [] if y is not None and operator is not None else None

    for i in range(config.steps):
        t = levels[i]
        x_hat = np.asarray(consistency(x, y, t), dtype=np.float64)
        if norms is not None:
            resid = np.asarray(y) - operator.apply(x_hat)
            norms.append(np.sqrt(row_sq_norms(resid)))
        if i == config.steps - 1:
            break
        s = levels[i + 1]
        if variant in ("addim", "inverse_addim"):
            degenerate += row_sq_norms(x - x_hat) == 0.0
        if variant == "cm_baseline":
            x = x_hat + _noise_scale(s, config.t_min) * draw()
        elif variant == "ddim":
            x = ddim_step(x, x_hat, t, s, config.t_min)
        elif variant == "addim":
            x = addim_step(x, x_hat, x_teacher, t, s, config.t_min, config.eta)
        elif variant == "inverse_addim":
            x = _guided_step(x, x_hat, resid, t, s, config.t_min, config.gamma)
        else:  # ddrm
            x = _ddrm_move(x, x_hat, spectral_y, operator, t, s, sigma_y, draw(),
                           config.ddrm_eta, config.ddrm_eta_b)

    return Trajectory(
        estimate=unbatch(x_hat),
        residual_norms=None if norms is None else unbatch(np.stack(norms, axis=-1)),
        degenerate_steps=int(degenerate[0]) if single else degenerate,
    )
