"""Experiment configuration: flat INI files with typed, validated fields.

A config file fully determines an experiment; together with the seed it
pins every byte of the outputs.  Sections:

    [experiment]  task, output_dir, seed, workers, dump_images
    [dataset]     source (synthetic | path), generator, count, shape, ...
    [operator]    task-specific degradation parameters and sigma_y
    [sampler]     variant, steps, eta, gamma, ddrm_*, schedule shape
    [metrics]     per-metric toggles and feature/subset parameters
    [tune]        gamma grid for the tuning subcommand
"""

import configparser
import math
import os
from dataclasses import dataclass, replace

from .metrics import FEATURE_MODES, MIN_SSIM_WINDOW
from .operators import (
    IdentityOperator,
    make_centered_square_inpaint,
    make_downsample,
    make_gaussian_blur,
    make_synthetic_nonlinear_blur,
)
from .samplers import SamplerConfig
from .verification import DEFAULT_GAMMA_GRID

TASKS = ("super_resolution", "deblur", "inpaint", "denoise", "nonlinear_deblur")
GENERATORS = ("gaussian_prior", "piecewise_constant", "atoms")
# [sampler] keys read as floats; a key the file leaves out keeps SamplerConfig's default
_SAMPLER_FLOATS = ("eta", "gamma", "ddrm_eta", "ddrm_eta_b", "t_min", "t_max", "rho")


class ConfigError(ValueError):
    """A config file failed validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    output_dir: str
    seed: int
    workers: int  # validated (>= 1) but unused: every stage runs one chunk at a time
    dump_images: bool

    dataset_source: str  # "synthetic" or a directory with an existing dataset
    generator: str
    count: int
    channels: int
    height: int
    width: int
    length_scale: float
    prior_variance: float
    prior_mean_level: float
    atom_count: int

    block: int
    blur_sigma: float
    kernel_radius: int | None
    saturation: float
    sigma_y: float

    sampler: SamplerConfig

    metric_psnr: bool
    metric_ssim: bool
    metric_kid: bool
    metric_fid: bool
    feature_mode: str
    pool: int
    subset_size: int
    n_subsets: int
    feature_file_reconstructions: str | None
    feature_file_references: str | None

    gamma_grid: tuple[float, ...]

    def validate(self) -> "ExperimentConfig":
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.generator not in GENERATORS:
            raise ConfigError(
                f"generator must be one of {GENERATORS}, got {self.generator!r}"
            )
        if self.dataset_source != "synthetic" and not os.path.isdir(
            self.dataset_source
        ):
            raise ConfigError(
                f"dataset source directory does not exist: {self.dataset_source}"
            )
        for key, value in (("[dataset] length_scale", self.length_scale),
                           ("[dataset] variance", self.prior_variance),
                           ("[dataset] mean_level", self.prior_mean_level),
                           ("[operator] sigma", self.blur_sigma),
                           ("[operator] sigma_y", self.sigma_y),
                           ("[operator] saturation", self.saturation)):
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.generator == "gaussian_prior":
            for key, value in (("length_scale", self.length_scale),
                               ("variance", self.prior_variance)):
                if value <= 0.0:
                    raise ConfigError(f"[dataset] {key} must be positive for the "
                                      f"gaussian_prior generator, got {value}")
        if self.generator == "atoms" and self.atom_count < 1:
            raise ConfigError(f"[dataset] atom_count must be >= 1 for the atoms generator, "
                              f"got {self.atom_count}")
        if self.count < 0:
            raise ConfigError(f"count must be >= 0, got {self.count}")
        if min(self.channels, self.height, self.width) < 1:
            raise ConfigError("channels/height/width must be positive")
        if self.sigma_y < 0.0:
            raise ConfigError(f"sigma_y must be >= 0, got {self.sigma_y}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.dump_images and self.channels not in (1, 3):
            raise ConfigError(
                f"dump_images writes PGM or PPM previews, which need channels = 1 "
                f"or 3, got channels = {self.channels}"
            )
        if self.task == "super_resolution":
            if self.block < 1 or self.height % self.block or self.width % self.block:
                raise ConfigError(
                    f"block {self.block} must divide {self.height}x{self.width}"
                )
        if self.task in ("deblur", "nonlinear_deblur") and self.blur_sigma <= 0.0:
            raise ConfigError(f"blur sigma must be positive, got {self.blur_sigma}")
        if (self.task in ("deblur", "nonlinear_deblur") and self.kernel_radius is not None
                and self.kernel_radius < 1):
            raise ConfigError(f"[operator] kernel_radius must be >= 1, got {self.kernel_radius}")
        if self.task == "nonlinear_deblur" and self.saturation <= 0.0:
            raise ConfigError(f"saturation must be positive, got {self.saturation}")
        if self.feature_mode not in FEATURE_MODES:
            raise ConfigError(f"unknown feature mode {self.feature_mode!r}")
        if self.feature_mode == "external_file":
            for path in (
                self.feature_file_reconstructions,
                self.feature_file_references,
            ):
                if not path or not os.path.isfile(path):
                    raise ConfigError(f"feature file does not exist: {path}")
        if self.feature_mode == "pooled_patches" and (
            self.pool < 1 or self.height % self.pool or self.width % self.pool
        ):
            raise ConfigError(f"pool {self.pool} must divide {self.height}x{self.width}")
        if self.subset_size < 2 or self.n_subsets < 1:
            raise ConfigError("subset_size must be >= 2 and n_subsets >= 1")
        # what evaluate could not score; a dataset read from a directory
        # brings its own count, which tune-gamma and evaluate check
        if self.metric_ssim and min(self.height, self.width) < MIN_SSIM_WINDOW:
            raise ConfigError(
                f"[metrics] ssim = true needs [dataset] height and width >= {MIN_SSIM_WINDOW}, "
                f"the smallest SSIM window, got {self.height}x{self.width}")
        if self.dataset_source == "synthetic" and self.count >= 1:
            if self.metric_kid and self.subset_size > self.count:
                raise ConfigError(
                    f"[metrics] kid = true takes subsets of subset_size = {self.subset_size} "
                    f"images, more than [dataset] count = {self.count}")
            if self.metric_fid and self.count < 2:
                raise ConfigError(f"[metrics] fid = true needs [dataset] count >= 2, "
                                  f"got {self.count}")
        if not self.gamma_grid:
            raise ConfigError("gamma grid must not be empty")
        labels = {}  # each candidate writes under tune/gamma_{g:g}
        for g in self.gamma_grid:
            if not math.isfinite(g):
                raise ConfigError(f"[tune] gamma_grid: entries must be finite, got {g}")
            label = f"gamma_{g:g}"
            if label in labels:
                raise ConfigError(
                    f"[tune] gamma_grid: entries {labels[label]!r} and {g!r} share the "
                    f"output name {label}; give values that differ in 6 significant digits"
                )
            labels[label] = g
        if any(g < 0.0 for g in self.gamma_grid):
            raise ConfigError("gamma grid entries must be >= 0")
        return self

    def with_overrides(self, seed=None, workers=None, output_dir=None):
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=int(seed))
        if workers is not None:
            cfg = replace(cfg, workers=int(workers))
        if output_dir is not None:
            cfg = replace(cfg, output_dir=str(output_dir))
        return cfg


class _Parser(configparser.ConfigParser):
    """An INI parser that records each (section, key) asked for: every
    read goes through ``has_option``, so the keys ``load_config`` knows are
    the ones it reads, and no second list of them is kept."""

    def __init__(self):
        super().__init__(inline_comment_prefixes=(";", "#"))
        self.asked = set()

    def has_option(self, section, option):
        self.asked.add((section, option))
        return super().has_option(section, option)

    def check_known(self):
        """Raise ConfigError naming the first section or key never asked for."""
        sections = sorted({section for section, _ in self.asked})
        for key in self.defaults():
            if key not in {known for _, known in self.asked}:
                raise ConfigError(f"[{self.default_section}] {key}: unknown key")
        for section in self.sections():
            if section not in sections:
                raise ConfigError(f"[{section}]: unknown section; the sections are "
                                  + ", ".join(f"[{name}]" for name in sections))
            known = sorted(key for name, key in self.asked if name == section)
            for key in self.options(section):
                if key not in known and key not in self.defaults():
                    raise ConfigError(f"[{section}] {key}: unknown key; [{section}] "
                                      f"takes {', '.join(known)}")


def _get(parser, section, key, fallback):
    if parser.has_option(section, key):
        return parser.get(section, key)
    return fallback


def _get_float(parser, section, key, fallback):
    try:
        return float(_get(parser, section, key, fallback))
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _get_int(parser, section, key, fallback):
    try:
        return int(_get(parser, section, key, fallback))
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _get_bool(parser, section, key, fallback):
    raw = str(_get(parser, section, key, fallback)).strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an INI experiment file."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = _Parser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    gamma_grid = DEFAULT_GAMMA_GRID
    if parser.has_option("tune", "gamma_grid"):
        grid_raw = parser.get("tune", "gamma_grid")
        try:
            gamma_grid = tuple(float(tok) for tok in grid_raw.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"[tune] gamma_grid: {exc}") from exc

    sampler_fields = dict(
        variant=_get(parser, "sampler", "variant", "inverse_addim"),
        steps=_get_int(parser, "sampler", "steps", 2),
        **{key: _get_float(parser, "sampler", key, None)
           for key in _SAMPLER_FLOATS if parser.has_option("sampler", key)},
    )
    try:
        sampler = SamplerConfig(**sampler_fields)
    except ValueError as exc:
        raise ConfigError(f"[sampler] {exc}") from exc

    feature_recon = _get(parser, "metrics", "feature_file_reconstructions", "")
    feature_ref = _get(parser, "metrics", "feature_file_references", "")
    config = ExperimentConfig(
        task=_get(parser, "experiment", "task", "denoise"),
        output_dir=_get(parser, "experiment", "output_dir", "out"),
        seed=_get_int(parser, "experiment", "seed", 0),
        workers=_get_int(parser, "experiment", "workers", 1),
        dump_images=_get_bool(parser, "experiment", "dump_images", "false"),
        dataset_source=_get(parser, "dataset", "source", "synthetic"),
        generator=_get(parser, "dataset", "generator", "gaussian_prior"),
        count=_get_int(parser, "dataset", "count", 16),
        channels=_get_int(parser, "dataset", "channels", 1),
        height=_get_int(parser, "dataset", "height", 16),
        width=_get_int(parser, "dataset", "width", 16),
        length_scale=_get_float(parser, "dataset", "length_scale", 3.0),
        prior_variance=_get_float(parser, "dataset", "variance", 0.05),
        prior_mean_level=_get_float(parser, "dataset", "mean_level", 0.5),
        atom_count=_get_int(parser, "dataset", "atom_count", 8),
        block=_get_int(parser, "operator", "block", 2),
        blur_sigma=_get_float(parser, "operator", "sigma", 3.0),
        kernel_radius=(_get_int(parser, "operator", "kernel_radius", None)
                       if _get(parser, "operator", "kernel_radius", "").strip() else None),
        saturation=_get_float(parser, "operator", "saturation", 4.0),
        sigma_y=_get_float(parser, "operator", "sigma_y", 0.05),
        sampler=sampler,
        metric_psnr=_get_bool(parser, "metrics", "psnr", "true"),
        metric_ssim=_get_bool(parser, "metrics", "ssim", "true"),
        metric_kid=_get_bool(parser, "metrics", "kid", "true"),
        metric_fid=_get_bool(parser, "metrics", "fid", "true"),
        feature_mode=_get(parser, "metrics", "feature_mode", "raw_pixels"),
        pool=_get_int(parser, "metrics", "pool", 2),
        subset_size=_get_int(parser, "metrics", "subset_size", 8),
        n_subsets=_get_int(parser, "metrics", "n_subsets", 8),
        feature_file_reconstructions=feature_recon or None,
        feature_file_references=feature_ref or None,
        gamma_grid=gamma_grid,
    )
    parser.check_known()
    return config.validate()


def build_operator(config: ExperimentConfig):
    """Construct the degradation operator an ExperimentConfig describes."""
    c, h, w = config.channels, config.height, config.width
    if config.task == "super_resolution":
        return make_downsample(c, h, w, config.block)
    if config.task == "deblur":
        return make_gaussian_blur(c, h, w, config.blur_sigma, config.kernel_radius)
    if config.task == "inpaint":
        return make_centered_square_inpaint(c, h, w)
    if config.task == "denoise":
        return IdentityOperator(c, h, w)
    return make_synthetic_nonlinear_blur(
        c, h, w, config.blur_sigma, config.saturation, config.kernel_radius
    )
