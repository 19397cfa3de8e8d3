"""Variance-exploding noise-level schedules shared by every sampler.

The convention throughout the package is x_t = x + t * z, i.e. the level t
is the standard deviation of the noise riding on the clean signal.
"""

from dataclasses import dataclass, field

import numpy as np

DEFAULT_T_MIN = 0.002
DEFAULT_T_MAX = 80.0
DEFAULT_RHO = 7.0


@dataclass(frozen=True)
class NoiseSchedule:
    """Strictly decreasing noise levels with their admissible range.

    ``levels[0]`` is the coarsest level (at most ``t_max``) and
    ``levels[-1]`` the finest (at least ``t_min``).
    """

    levels: np.ndarray = field(repr=False)
    t_min: float
    t_max: float

    def __post_init__(self):
        levels = np.ascontiguousarray(self.levels, dtype=np.float64).ravel()
        if levels.size < 2:
            raise ValueError("a schedule needs at least 2 levels")
        if not (0.0 < self.t_min < self.t_max):
            raise ValueError(f"need 0 < t_min < t_max, got {self.t_min}, {self.t_max}")
        if np.any(np.diff(levels) >= 0.0):
            raise ValueError("levels must be strictly decreasing")
        if levels[0] > self.t_max or levels[-1] < self.t_min:
            raise ValueError(
                f"levels must lie in [{self.t_min}, {self.t_max}], "
                f"got range [{levels[-1]}, {levels[0]}]"
            )
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return self.levels.size


def make_karras_schedule(
    n: int,
    t_min: float = DEFAULT_T_MIN,
    t_max: float = DEFAULT_T_MAX,
    rho: float = DEFAULT_RHO,
) -> NoiseSchedule:
    """Power-law interpolation between t_max and t_min over ``n`` levels.

    level_i = (t_max^(1/rho) + i/(n-1) * (t_min^(1/rho) - t_max^(1/rho)))^rho,
    with the endpoints pinned exactly to t_max and t_min.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 levels, got {n}")
    if not (0.0 < t_min < t_max):
        raise ValueError(f"need 0 < t_min < t_max, got {t_min}, {t_max}")
    if rho <= 0.0:
        raise ValueError(f"need rho > 0, got {rho}")
    ramp = np.linspace(0.0, 1.0, n)
    lo, hi = t_min ** (1.0 / rho), t_max ** (1.0 / rho)
    levels = (hi + ramp * (lo - hi)) ** rho
    levels[0] = t_max
    levels[-1] = t_min
    return NoiseSchedule(levels=levels, t_min=t_min, t_max=t_max)
