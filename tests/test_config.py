import importlib.util
import pathlib
import textwrap

import pytest

from cminverse import cli
from cminverse.config import (
    ConfigError,
    ExperimentConfig,
    build_operator,
    load_config,
)
from cminverse.operators import (
    BlockDownsampleOperator,
    CircularBlurOperator,
    IdentityOperator,
    InpaintOperator,
    NonlinearOperator,
)
from cminverse.samplers import SamplerConfig


def write_config(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


FULL = """
    [experiment]
    task = super_resolution
    output_dir = run
    seed = 7
    workers = 4
    dump_images = true

    [dataset]
    source = synthetic
    generator = piecewise_constant
    count = 12
    channels = 3
    height = 8
    width = 8
    length_scale = 2.5
    variance = 0.1
    mean_level = 0.4
    atom_count = 5

    [operator]
    block = 4
    sigma = 1.5
    kernel_radius = 2
    saturation = 3.0
    sigma_y = 0.02

    [sampler]
    variant = addim
    steps = 6
    eta = 0.5
    gamma = 1.5
    ddrm_eta = 0.9
    ddrm_eta_b = 0.8
    t_min = 0.01
    t_max = 20
    rho = 5

    [metrics]
    psnr = true
    ssim = false
    kid = true
    fid = false
    feature_mode = pooled_patches
    pool = 4
    subset_size = 6
    n_subsets = 3

    [tune]
    gamma_grid = 0, 0.5, 1.5
"""


def test_full_file_round_trip(tmp_path):
    config = load_config(write_config(tmp_path, FULL))
    assert config.task == "super_resolution"
    assert config.output_dir == "run"
    assert (config.seed, config.workers, config.dump_images) == (7, 4, True)
    assert (config.generator, config.count) == ("piecewise_constant", 12)
    assert (config.channels, config.height, config.width) == (3, 8, 8)
    assert config.length_scale == 2.5
    assert (config.prior_variance, config.prior_mean_level) == (0.1, 0.4)
    assert config.atom_count == 5
    assert (config.block, config.blur_sigma, config.kernel_radius) == (4, 1.5, 2)
    assert (config.saturation, config.sigma_y) == (3.0, 0.02)
    s = config.sampler
    assert (s.variant, s.steps, s.eta, s.gamma) == ("addim", 6, 0.5, 1.5)
    assert (s.ddrm_eta, s.ddrm_eta_b) == (0.9, 0.8)
    assert (s.t_min, s.t_max, s.rho) == (0.01, 20.0, 5.0)
    assert (config.metric_psnr, config.metric_ssim) == (True, False)
    assert (config.metric_kid, config.metric_fid) == (True, False)
    assert (config.feature_mode, config.pool) == ("pooled_patches", 4)
    assert (config.subset_size, config.n_subsets) == (6, 3)
    assert config.gamma_grid == (0.0, 0.5, 1.5)


def test_minimal_file_uses_defaults(tmp_path):
    config = load_config(write_config(tmp_path, "[experiment]\ntask = denoise\n"))
    assert config.task == "denoise"
    assert config.seed == 0
    assert config.workers == 1
    assert config.dump_images is False
    assert config.dataset_source == "synthetic"
    assert config.generator == "gaussian_prior"
    assert (config.count, config.channels, config.height, config.width) == (16, 1, 16, 16)
    assert config.sigma_y == 0.05
    assert config.sampler.variant == "inverse_addim"
    assert config.sampler.steps == 2
    assert config.sampler.t_min == 0.002
    assert config.sampler.t_max == 80.0
    assert config.sampler.rho == 7.0
    assert config.kernel_radius is None
    assert config.feature_mode == "raw_pixels"
    assert config.gamma_grid == (0.0, 0.25, 0.5, 1.0, 2.0)
    assert config.feature_file_reconstructions is None


def test_inline_comments_are_stripped(tmp_path):
    body = (
        "[experiment]\n"
        "task = deblur              ; one of the five tasks\n"
        "seed = 3                   # numeric too\n"
        "[operator]\n"
        "sigma = 1.5 ; kernel width\n"
    )
    config = load_config(write_config(tmp_path, body))
    assert config.task == "deblur"
    assert config.seed == 3
    assert config.blur_sigma == 1.5


def test_overrides_replace_without_mutation(tmp_path):
    config = load_config(write_config(tmp_path, "[experiment]\ntask = denoise\n"))
    other = config.with_overrides(seed=99, workers=2, output_dir="elsewhere")
    assert (other.seed, other.workers, other.output_dir) == (99, 2, "elsewhere")
    assert (config.seed, config.workers, config.output_dir) == (0, 1, "out")
    assert config.with_overrides() is config


def test_missing_file_raises(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.ini"))


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("[experiment]\ntask = warp\n", "task"),
        ("[experiment]\ntask = denoise\n[dataset]\ngenerator = fractal\n", "generator"),
        ("[experiment]\ntask = denoise\n[dataset]\nsource = /no/such/dir\n", "dataset source"),
        ("[experiment]\ntask = denoise\n[dataset]\ncount = -1\n", "count"),
        ("[experiment]\ntask = denoise\n[dataset]\ngenerator = atoms\natom_count = 0\n",
         r"\[dataset\] atom_count must be >= 1"),
        ("[experiment]\ntask = denoise\n[dataset]\ngenerator = atoms\natom_count = -2\n",
         r"\[dataset\] atom_count must be >= 1"),
        ("[experiment]\ntask = denoise\n[dataset]\nheight = 0\n", "positive"),
        ("[experiment]\ntask = denoise\n[operator]\nsigma_y = -0.1\n", "sigma_y"),
        ("[experiment]\ntask = denoise\nworkers = 0\n", "workers"),
        ("[experiment]\ntask = super_resolution\n[operator]\nblock = 3\n", "block"),
        ("[experiment]\ntask = deblur\n[operator]\nsigma = 0\n", "sigma"),
        ("[experiment]\ntask = nonlinear_deblur\n[operator]\nsaturation = 0\n", "saturation"),
        ("[experiment]\ntask = denoise\n[metrics]\nfeature_mode = resnet\n", "feature mode"),
        ("[experiment]\ntask = denoise\n[metrics]\nfeature_mode = pooled_patches\npool = 5\n", "pool"),
        ("[experiment]\ntask = denoise\n[metrics]\nsubset_size = 1\n", "subset_size"),
        ("[experiment]\ntask = denoise\n[tune]\ngamma_grid = -1, 0\n", "gamma grid"),
        ("[experiment]\ntask = denoise\n[tune]\ngamma_grid = ,\n", "gamma grid"),
        ("[experiment]\ntask = denoise\n[dataset]\ncount = many\n", "count"),
        ("[experiment]\ntask = denoise\ndump_images = maybe\n", "boolean"),
        ("[experiment]\ntask = denoise\ndump_images = true\n[dataset]\nchannels = 2\n",
         "dump_images.*channels = 2"),
        ("[experiment]\ntask = denoise\n[sampler]\nvariant = pixie\n", "variant"),
        ("[experiment]\ntask = denoise\n[metrics]\nfeature_mode = external_file\n", "feature file"),
    ],
)
def test_invalid_fields_raise_config_errors(tmp_path, body, fragment):
    with pytest.raises((ConfigError, ValueError), match=fragment):
        load_config(write_config(tmp_path, body))


@pytest.mark.parametrize(
    "dataset, metrics, message",
    [
        ("height = 6", "", r"ssim = true needs \[dataset\] height and width >= 7, the "
         r"smallest SSIM window, got 6x16$"),
        ("width = 1", "kid = false\nfid = false", r"ssim = true .* got 16x1$"),
        ("count = 4", "subset_size = 5", r"kid = true takes subsets of subset_size = 5 "
         r"images, more than \[dataset\] count = 4$"),
        ("count = 1", "kid = false", r"fid = true needs \[dataset\] count >= 2, got 1$"),
    ],
    ids=["ssim_height_6", "ssim_width_1", "kid_subset_above_count", "fid_one_image"],
)
def test_metrics_that_evaluate_cannot_score_are_refused_at_load(tmp_path, dataset, metrics,
                                                                 message):
    body = f"[experiment]\ntask = denoise\n[dataset]\n{dataset}\n[metrics]\n{metrics}\n"
    with pytest.raises(ConfigError, match=r"^\[metrics\] " + message):
        load_config(write_config(tmp_path, body))
    # the same grid and count load with that metric off
    metric = message.split(" ", 1)[0]
    load_config(write_config(tmp_path, body + f"{metric} = false\n"))


@pytest.mark.parametrize("dataset, metrics", [
    ("height = 7\nwidth = 7", ""),  # the smallest SSIM window fits
    ("count = 5", "subset_size = 5"),
    ("count = 2", "subset_size = 2"),  # FID's two images
    ("count = 0", "subset_size = 8"),  # an empty dataset fails at evaluate instead
    ("source = {dir}\ncount = 1", "subset_size = 8"),  # its images are counted later
])
def test_metrics_at_their_limits_load(tmp_path, dataset, metrics):
    body = (f"[experiment]\ntask = denoise\n[dataset]\n{dataset.format(dir=tmp_path)}\n"
            f"[metrics]\n{metrics}\n")
    load_config(write_config(tmp_path, body))


def test_external_features_must_exist(tmp_path):
    feats = tmp_path / "feats.cmt"
    feats.write_bytes(b"placeholder")
    body = f"""
        [experiment]
        task = denoise
        [metrics]
        feature_mode = external_file
        feature_file_reconstructions = {feats}
        feature_file_references = {feats}
    """
    config = load_config(write_config(tmp_path, body))
    assert config.feature_file_reconstructions == str(feats)


def test_existing_dataset_directory_is_accepted(tmp_path):
    body = f"[experiment]\ntask = denoise\n[dataset]\nsource = {tmp_path}\n"
    config = load_config(write_config(tmp_path, body))
    assert config.dataset_source == str(tmp_path)


def test_build_operator_dispatch(tmp_path):
    base = "[dataset]\nchannels = 1\nheight = 8\nwidth = 8\n"
    cases = {
        "super_resolution": BlockDownsampleOperator,
        "deblur": CircularBlurOperator,
        "inpaint": InpaintOperator,
        "denoise": IdentityOperator,
        "nonlinear_deblur": NonlinearOperator,
    }
    for task, expected in cases.items():
        config = load_config(
            write_config(tmp_path, f"[experiment]\ntask = {task}\n{base}", f"{task}.ini")
        )
        op = build_operator(config)
        assert isinstance(op, expected), task
        assert op.n == 64


def test_build_operator_parameters_flow_through(tmp_path):
    body = """
        [experiment]
        task = super_resolution
        [dataset]
        height = 8
        width = 8
        [operator]
        block = 4
    """
    op = build_operator(load_config(write_config(tmp_path, body)))
    assert op.m == 4  # (8/4)^2 block means

    body2 = """
        [experiment]
        task = deblur
        [operator]
        sigma = 1.0
        kernel_radius = 1
    """
    op2 = build_operator(load_config(write_config(tmp_path, body2, "b.ini")))
    assert op2.kernel.shape == (3,)  # radius 1 -> separable 3-tap kernel


def test_direct_construction_validates_too():
    config = ExperimentConfig(
        task="denoise", output_dir="out", seed=0, workers=1, dump_images=False,
        dataset_source="synthetic", generator="gaussian_prior", count=4,
        channels=1, height=8, width=8, length_scale=2.0, prior_variance=0.05,
        prior_mean_level=0.5, atom_count=4, block=2, blur_sigma=1.0,
        kernel_radius=None, saturation=4.0, sigma_y=0.05,
        sampler=SamplerConfig(variant="ddim", steps=2),
        metric_psnr=True, metric_ssim=True, metric_kid=True, metric_fid=True,
        feature_mode="raw_pixels", pool=2, subset_size=4, n_subsets=2,
        feature_file_reconstructions=None, feature_file_references=None,
        gamma_grid=(0.0, 1.0),
    )
    assert config.validate() is config


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("[tune]\ngamma_grid = nan, 1\n", r"\[tune\] gamma_grid: .*finite, got nan"),
        ("[tune]\ngamma_grid = 0, inf\n", r"\[tune\] gamma_grid: .*finite, got inf"),
        # both would write tune/gamma_0.123457 and reports/tune_gamma_0.123457.jsonl
        ("[tune]\ngamma_grid = 0.1234567, 0.1234568, 1\n",
         r"\[tune\] gamma_grid: entries 0.1234567 and 0.1234568 share .*gamma_0.123457"),
        ("[tune]\ngamma_grid = 1, 0.5, 1.0\n", r"entries 1.0 and 1.0 share .*gamma_1\b"),
        ("[sampler]\ngamma = nan\n", r"\[sampler\] gamma must be finite, got nan"),
        ("[sampler]\ngamma = inf\n", r"\[sampler\] gamma must be finite, got inf"),
        ("[sampler]\neta = nan\n", r"\[sampler\] eta must be finite, got nan"),
        ("[sampler]\nrho = inf\n", r"\[sampler\] rho must be finite, got inf"),
        # sample used to stop only at its first level, with exit 2
        ("[sampler]\nt_max = inf\n", r"\[sampler\] t_max must be finite, got inf"),
    ],
    ids=["grid_nan", "grid_inf", "grid_same_label", "grid_duplicate", "gamma_nan",
         "gamma_inf", "eta_nan", "rho_inf", "t_max_inf"],
)
def test_non_finite_or_colliding_floats_are_config_errors(tmp_path, body, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write_config(tmp_path, "[experiment]\ntask = denoise\n" + body))


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("[operator]\nsigam_y = 0.5\n", r"\[operator\] sigam_y: unknown key; \[operator\] takes "
                                        r"block, kernel_radius, saturation, sigma, sigma_y$"),
        ("[sampler]\nvarient = ddim\n", r"\[sampler\] varient: unknown key; .*\bvariant\b"),
        ("seeed = 3\n", r"\[experiment\] seeed: unknown key"),
        ("[metrics]\nkid_x1000 = false\n", r"\[metrics\] kid_x1000: unknown key"),
        ("[tune]\ngamma = 1\n", r"\[tune\] gamma: unknown key; \[tune\] takes gamma_grid$"),
        ("[sampeler]\nvariant = ddim\n", r"\[sampeler\]: unknown section; .*\[sampler\]"),
        ("[tunes]\n", r"\[tunes\]: unknown section"),
        ("[DEFAULT]\nsede = 1\n", r"\[DEFAULT\] sede: unknown key"),
    ],
    ids=["operator_key", "sampler_key", "experiment_key", "metrics_key", "tune_key",
         "section", "empty_section", "default_key"],
)
def test_misspelt_keys_and_sections_are_config_errors(tmp_path, body, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write_config(tmp_path, "[experiment]\ntask = denoise\n" + body))


def test_default_section_keys_are_read_where_they_are_known(tmp_path):
    body = "[DEFAULT]\nsigma_y = 0.2\n[experiment]\ntask = denoise\n[operator]\n"
    assert load_config(write_config(tmp_path, body)).sigma_y == 0.2


def test_sampler_rejects_non_finite_floats():
    for key in ("eta", "gamma", "rho", "t_max"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                SamplerConfig(variant="ddim", steps=2, **{key: value})


def test_distinct_grid_labels_are_accepted(tmp_path):
    body = "[experiment]\ntask = denoise\n[tune]\ngamma_grid = 0.123456, 0.123457, 0\n"
    assert load_config(write_config(tmp_path, body)).gamma_grid == (0.123456, 0.123457, 0.0)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("section, key", [
    ("dataset", "length_scale"), ("dataset", "variance"), ("dataset", "mean_level"),
    ("operator", "sigma"), ("operator", "sigma_y"), ("operator", "saturation"),
])
def test_non_finite_prior_and_operator_floats_are_config_errors(tmp_path, section, key, value):
    # they used to crash degrade (sigma = inf), or to synthesize, measure and
    # sample non-finite values with exit 0
    body = f"[experiment]\ntask = nonlinear_deblur\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} must be finite, got {value}$"):
        load_config(write_config(tmp_path, body))


def test_non_finite_blur_sigma_stops_the_cli_before_it_writes(tmp_path):
    out = tmp_path / "run"
    ini = write_config(tmp_path, f"[experiment]\ntask = deblur\noutput_dir = {out}\n"
                                 "[operator]\nsigma = inf\n")
    assert cli.main(["--config", ini, "synthesize"]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("[dataset]\nlength_scale = 0\n", r"\[dataset\] length_scale must be positive .*got 0.0"),
        ("[dataset]\nvariance = -0.1\n", r"\[dataset\] variance must be positive .*got -0.1"),
        ("[operator]\nkernel_radius = 2.5\n", r"^\[operator\] kernel_radius: invalid literal"),
        ("[operator]\nkernel_radius = 0\n", r"^\[operator\] kernel_radius must be >= 1, got 0$"),
    ],
    ids=["length_scale_zero", "variance_negative", "kernel_radius_float", "kernel_radius_zero"],
)
def test_prior_scales_and_kernel_radius_are_checked_at_load(tmp_path, body, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write_config(tmp_path, "[experiment]\ntask = deblur\n" + body))


def test_blank_kernel_radius_takes_the_default(tmp_path):
    body = "[experiment]\ntask = deblur\n[operator]\nkernel_radius =\n"
    assert load_config(write_config(tmp_path, body)).kernel_radius is None
    # other generators take no RBF scales, so these are not theirs to check
    body = "[experiment]\ntask = denoise\n[dataset]\ngenerator = atoms\nvariance = 0\n"
    assert load_config(write_config(tmp_path, body)).prior_variance == 0.0


def test_every_benchmark_config_loads(tmp_path, monkeypatch):
    # run.py pins the BLAS thread variables when it is imported; restore them after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "run.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(run)
    assert run.WORKLOADS
    for name, spec in run.WORKLOADS.items():
        ini = tmp_path / f"{name}.ini"
        run.write_config(ini, spec, seed=7, output_dir=tmp_path / name)
        config = load_config(str(ini))
        assert (config.seed, config.output_dir) == (7, str(tmp_path / name))
