"""Measurement-guided few-step sampling for linear inverse imaging problems.

The package combines consistency-style denoisers with guided sampling
updates: a deterministic interpolation rule, teacher- and
residual-guided variance compensation, a spectral-domain posterior
sampler with SVD-structured operators, an analytic Gaussian-prior
reference, fidelity/distribution metrics, and a config-driven pipeline
CLI.  The hot kernels are plain numpy (cminverse.kernels).
"""

from .metrics import frechet_distance, kid, psnr, ssim
from .operators import (
    BlockDownsampleOperator,
    CircularBlurOperator,
    DenseOperator,
    IdentityOperator,
    InpaintOperator,
    LinearOperator,
    MeasurementModel,
    NonlinearOperator,
    centered_square_mask,
    make_centered_square_inpaint,
    make_downsample,
    make_gaussian_blur,
    make_synthetic_nonlinear_blur,
)
from .priors import ConsistencyFn, EmpiricalPrior, GaussianPrior, rbf_covariance, rbf_prior
from .samplers import (
    SamplerConfig,
    Trajectory,
    UnsupportedCombination,
    addim_step,
    ddim_step,
    ddrm_step,
    inverse_addim_step,
    sample,
)
from .schedules import NoiseSchedule, make_karras_schedule
from .verification import (
    VerificationReport,
    mc_dropped_variance_check,
    residual_bound_check,
    variance_compensation_check,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDownsampleOperator",
    "CircularBlurOperator",
    "ConsistencyFn",
    "DenseOperator",
    "EmpiricalPrior",
    "GaussianPrior",
    "IdentityOperator",
    "InpaintOperator",
    "LinearOperator",
    "MeasurementModel",
    "NoiseSchedule",
    "NonlinearOperator",
    "SamplerConfig",
    "Trajectory",
    "UnsupportedCombination",
    "VerificationReport",
    "addim_step",
    "centered_square_mask",
    "ddim_step",
    "ddrm_step",
    "frechet_distance",
    "inverse_addim_step",
    "kid",
    "make_centered_square_inpaint",
    "make_downsample",
    "make_gaussian_blur",
    "make_karras_schedule",
    "make_synthetic_nonlinear_blur",
    "mc_dropped_variance_check",
    "psnr",
    "rbf_covariance",
    "rbf_prior",
    "residual_bound_check",
    "sample",
    "ssim",
    "variance_compensation_check",
]
