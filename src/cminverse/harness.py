"""Pipeline stages behind the CLI: synthesize, degrade, sample, evaluate,
verify, tune-gamma.

Every stage reads the manifests of the stage before it, does its work,
and writes tensors plus a line-delimited manifest of its own.  Sampling
runs the batched sampler on chunks of ``SAMPLE_CHUNK`` images, a size
fixed apart from the worker count; the chunks, not single images, may
fan out over a thread pool, but results are written in index order by
the calling thread, so the bytes on disk do not depend on the worker
count.  Per-sample randomness comes from seeds derived as
``seed + offset + 2 * index`` with disjoint offsets per stage, never
from a shared generator.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import metrics as metrics_mod
from .config import ExperimentConfig, build_operator
from .operators import LinearOperator, MeasurementModel
from .priors import EmpiricalPrior, GaussianPrior, rbf_covariance
from .samplers import SamplerConfig, row_sq_norms, sample as run_sampler
from .tensorio import (
    dump_image,
    read_jsonl,
    read_tensor,
    write_jsonl,
    write_tensor,
    write_text,
)
from .verification import (
    DEFAULT_GAMMA_GRID,
    mc_dropped_variance_check,
    residual_bound_check,
    variance_compensation_check,
)
from .schedules import make_karras_schedule

# Seed namespacing: stage offsets keep every generator in the pipeline on
# its own stream even when indices collide across stages.
_DEGRADE_SEED_OFFSET = 1
_SAMPLE_SEED_OFFSET = 2
# Images per batched sampler call.  It is a constant so that every image
# sees the same batch, and the same BLAS blocking, for any worker count.
SAMPLE_CHUNK = 64


class NonFiniteEstimate(FloatingPointError):
    """The sampler produced a non-finite estimate or residual norm."""


def _dataset_dir(config):
    if config.dataset_source != "synthetic":
        return config.dataset_source
    return os.path.join(config.output_dir, "dataset")


def _stage_paths(config):
    out = config.output_dir
    return {
        "dataset": _dataset_dir(config),
        "degraded": os.path.join(out, "degraded"),
        "recon": os.path.join(out, "recon"),
        "reports": os.path.join(out, "reports"),
        "images": os.path.join(out, "images"),
    }


def _read_stack(directory, names) -> np.ndarray:
    """(N, dim) stack of the named tensor files, flattened; N must be > 0."""
    return np.stack([read_tensor(os.path.join(directory, name)).ravel() for name in names])


def _map_chunks(work, count: int, workers: int):
    """Run work(lo, hi) on each chunk [lo, hi) of SAMPLE_CHUNK indices, in
    chunk order.  The pool only computes; writing stays with the caller."""
    chunks = [(lo, min(lo + SAMPLE_CHUNK, count)) for lo in range(0, count, SAMPLE_CHUNK)]
    if workers <= 1:
        return [work(lo, hi) for lo, hi in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda chunk: work(*chunk), chunks))


# --------------------------------------------------------------------------
# synthesize
# --------------------------------------------------------------------------

def _piecewise_constant_images(rng, count, shape):
    c, h, w = shape
    images = np.empty((count, c, h, w))
    for i in range(count):
        img = np.full((c, h, w), rng.uniform(0.2, 0.8))
        for _ in range(rng.integers(2, 6)):
            r0, r1 = np.sort(rng.integers(0, h + 1, size=2))
            c0, c1 = np.sort(rng.integers(0, w + 1, size=2))
            if r0 == r1 or c0 == c1:
                continue
            img[:, r0:r1, c0:c1] = rng.uniform(0.0, 1.0)
        images[i] = np.clip(img, 0.0, 1.0)
    return images.reshape(count, -1)


def _blob_atoms(rng, atom_count, shape):
    c, h, w = shape
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    atoms = np.empty((atom_count, c, h, w))
    for j in range(atom_count):
        img = np.zeros((h, w))
        for _ in range(rng.integers(1, 4)):
            cy, cx = rng.uniform(0, h), rng.uniform(0, w)
            rad = rng.uniform(1.0, max(h, w) / 3.0)
            amp = rng.uniform(0.3, 1.0)
            img += amp * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2 * rad**2))
        atoms[j] = np.clip(img, 0.0, 1.0)[None].repeat(c, axis=0)
    return atoms.reshape(atom_count, -1)


def synthesize(config: ExperimentConfig) -> str:
    """Generate a seeded synthetic dataset; returns the dataset directory."""
    paths = _stage_paths(config)
    ds_dir = os.path.join(config.output_dir, "dataset")
    os.makedirs(ds_dir, exist_ok=True)
    shape = (config.channels, config.height, config.width)
    rng = np.random.default_rng(config.seed)

    meta = {
        "channels": config.channels,
        "count": config.count,
        "generator": config.generator,
        "height": config.height,
        "seed": config.seed,
        "width": config.width,
    }
    if config.generator == "gaussian_prior":
        mean = np.full(config.channels * config.height * config.width,
                       config.prior_mean_level)
        cov = rbf_covariance(shape, config.length_scale, config.prior_variance)
        prior = GaussianPrior(mean=mean, covariance=cov)
        images = (
            prior.sample(rng, size=config.count)
            if config.count
            else np.empty((0, mean.size))
        )
        write_tensor(os.path.join(ds_dir, "prior_mean.cmt"), mean)
        write_tensor(os.path.join(ds_dir, "prior_cov.cmt"), cov)
        meta["prior_mean"] = "prior_mean.cmt"
        meta["prior_cov"] = "prior_cov.cmt"
    elif config.generator == "piecewise_constant":
        images = _piecewise_constant_images(rng, config.count, shape)
    else:
        atoms = _blob_atoms(rng, config.atom_count, shape)
        write_tensor(os.path.join(ds_dir, "atoms.cmt"), atoms)
        meta["atoms"] = "atoms.cmt"
        idx = (
            rng.integers(0, config.atom_count, size=config.count)
            if config.count
            else np.empty(0, dtype=int)
        )
        images = atoms[idx]

    records = []
    for i in range(config.count):
        name = f"img_{i:05d}.cmt"
        write_tensor(os.path.join(ds_dir, name), images[i].reshape(shape))
        records.append({"file": name, "index": i})
        if config.dump_images:
            os.makedirs(paths["images"], exist_ok=True)
            dump_image(
                os.path.join(paths["images"], f"img_{i:05d}.pgm"
                             if config.channels != 3 else f"img_{i:05d}.ppm"),
                images[i].reshape(shape),
            )
    write_jsonl(os.path.join(ds_dir, "dataset.jsonl"), records)
    write_jsonl(os.path.join(ds_dir, "dataset_meta.jsonl"), [meta])
    return ds_dir


def load_dataset(config: ExperimentConfig):
    """Return (meta, records, dataset_dir) for the configured dataset."""
    ds_dir = _dataset_dir(config)
    manifest = os.path.join(ds_dir, "dataset.jsonl")
    if not os.path.isfile(manifest):
        raise FileNotFoundError(f"dataset manifest not found: {manifest}")
    meta_rows = read_jsonl(os.path.join(ds_dir, "dataset_meta.jsonl"))
    return meta_rows[0], read_jsonl(manifest), ds_dir


def load_prior(config: ExperimentConfig):
    """Reconstruct the sampling prior recorded with the dataset."""
    meta, records, ds_dir = load_dataset(config)
    if meta["generator"] == "gaussian_prior":
        mean = read_tensor(os.path.join(ds_dir, meta["prior_mean"]))
        cov = read_tensor(os.path.join(ds_dir, meta["prior_cov"]))
        return GaussianPrior(mean=mean.ravel(), covariance=cov)
    if meta["generator"] == "atoms":
        atoms = read_tensor(os.path.join(ds_dir, meta["atoms"]))
        return EmpiricalPrior(atoms.reshape(atoms.shape[0], -1))
    return EmpiricalPrior(_read_stack(ds_dir, [rec["file"] for rec in records]))


# --------------------------------------------------------------------------
# degrade
# --------------------------------------------------------------------------

def _operator_summary(config: ExperimentConfig, operator) -> dict:
    summary = {"m": operator.m, "n": operator.n, "sigma_y": config.sigma_y,
               "task": config.task}
    if config.task == "super_resolution":
        summary["block"] = config.block
    elif config.task in ("deblur", "nonlinear_deblur"):
        summary["sigma"] = config.blur_sigma
        if config.task == "nonlinear_deblur":
            summary["saturation"] = config.saturation
    return summary


def degrade(config: ExperimentConfig) -> str:
    """Measure every dataset image; returns the manifest path."""
    _, records, ds_dir = load_dataset(config)
    paths = _stage_paths(config)
    os.makedirs(paths["degraded"], exist_ok=True)
    operator = build_operator(config)
    model = MeasurementModel(operator=operator, sigma_y=config.sigma_y)
    op_summary = _operator_summary(config, operator)

    seeds = [config.seed + _DEGRADE_SEED_OFFSET + 2 * i for i in range(len(records))]
    ys = []
    if records:
        ys = model.degrade(_read_stack(ds_dir, [rec["file"] for rec in records]), seed=seeds)
    manifest = []
    meas_shape = getattr(operator, "measurement_shape", None)
    for i, (rec, y, seed) in enumerate(zip(records, ys, seeds)):
        name = f"meas_{i:05d}.cmt"
        write_tensor(
            os.path.join(paths["degraded"], name),
            y.reshape(meas_shape) if meas_shape else y,
        )
        manifest.append(
            {
                "index": i,
                "input": rec["file"],
                "measurement": name,
                "operator": op_summary,
                "seed": seed,
            }
        )
        if config.dump_images and meas_shape:
            os.makedirs(paths["images"], exist_ok=True)
            dump_image(
                os.path.join(paths["images"], f"meas_{i:05d}.pgm"
                             if meas_shape[0] != 3 else f"meas_{i:05d}.ppm"),
                y.reshape(meas_shape),
            )
    path = os.path.join(paths["degraded"], "degrade.jsonl")
    write_jsonl(path, manifest)
    return path


# --------------------------------------------------------------------------
# sample
# --------------------------------------------------------------------------

def build_consistency(config: ExperimentConfig, prior, operator):
    """Pick the consistency function a variant uses in this pipeline.

    The spectral variant conditions through its own update rule, so it
    gets the unconditional denoiser; the others get the
    measurement-conditioned denoiser when the prior supports it (Gaussian
    prior with a linear operator).  Empirical priors and nonlinear tasks
    fall back to unconditional denoising, where only the residual-guided
    variant sees the measurement at all.
    """
    conditioned = (
        isinstance(prior, GaussianPrior)
        and isinstance(operator, LinearOperator)
        and config.sampler.variant != "ddrm"
    )
    if conditioned:
        return prior.measurement_consistency(operator, config.sigma_y), True
    return prior.consistency(), False


def _sampling_setup(config: ExperimentConfig):
    """(operator, consistency, conditioned) for sampling under this config."""
    operator = build_operator(config)
    prior = load_prior(config)
    return (operator,) + build_consistency(config, prior, operator)


def sample(config: ExperimentConfig, sampler: SamplerConfig | None = None,
           recon_dir: str | None = None, setup=None) -> str:
    """Reconstruct every measurement; returns the manifest path.

    ``setup`` is a ``_sampling_setup(config)`` result to reuse, so that
    repeated passes share one consistency closure and its eigenfactors.
    Raises NonFiniteEstimate, before writing anything, when an estimate
    or residual norm is not finite.
    """
    _, records, ds_dir = load_dataset(config)
    paths = _stage_paths(config)
    degrade_manifest = os.path.join(paths["degraded"], "degrade.jsonl")
    if not os.path.isfile(degrade_manifest):
        raise FileNotFoundError(f"measurement manifest not found: {degrade_manifest}")
    measurements = read_jsonl(degrade_manifest)
    if len(measurements) != len(records):
        raise ValueError(
            f"{len(measurements)} measurements for {len(records)} dataset images"
        )

    sampler = sampler if sampler is not None else config.sampler
    recon_dir = recon_dir if recon_dir is not None else paths["recon"]
    operator, consistency, conditioned = (
        setup if setup is not None else _sampling_setup(config)
    )
    shape = (config.channels, config.height, config.width)
    seeds = [config.seed + _SAMPLE_SEED_OFFSET + 2 * i for i in range(len(records))]

    def work(lo, hi):
        ys = _read_stack(paths["degraded"], [row["measurement"] for row in measurements[lo:hi]])
        teachers = None
        if sampler.variant == "addim":
            teachers = _read_stack(ds_dir, [rec["file"] for rec in records[lo:hi]])
        trajectory = run_sampler(consistency, sampler, y=ys, operator=operator,
                                 sigma_y=config.sigma_y, x_teacher=teachers, seed=seeds[lo:hi])
        resid_norms = np.sqrt(np.stack(
            [row_sq_norms(ys - operator.apply(rec.estimate)) for rec in trajectory.records],
            axis=1,
        ))
        return list(zip(trajectory.estimate, trajectory.degenerate_steps, resid_norms))

    results = [
        row for chunk in _map_chunks(work, len(records), config.workers) for row in chunk
    ]
    for i, (estimate, _, resid_norms) in enumerate(results):
        if not (np.isfinite(estimate).all() and np.isfinite(resid_norms).all()):
            raise NonFiniteEstimate(f"image {i} ({measurements[i]['measurement']}): non-finite "
                                    "estimate or residual norm; check t_min, t_max and the prior")

    os.makedirs(recon_dir, exist_ok=True)
    manifest = []
    for i, (estimate, degenerate, resid_norms) in enumerate(results):
        name = f"recon_{i:05d}.cmt"
        write_tensor(os.path.join(recon_dir, name), estimate.reshape(shape))
        manifest.append(
            {
                "conditioned": conditioned,
                "degenerate_steps": int(degenerate),
                "gamma": sampler.gamma,
                "index": i,
                "measurement": measurements[i]["measurement"],
                "nfe": sampler.steps,
                "reconstruction": name,
                "residual_norms": resid_norms.tolist(),
                "seed": seeds[i],
                "steps": sampler.steps,
                "variant": sampler.variant,
            }
        )
        if config.dump_images:
            os.makedirs(paths["images"], exist_ok=True)
            dump_image(
                os.path.join(paths["images"], f"recon_{i:05d}.pgm"
                             if config.channels != 3 else f"recon_{i:05d}.ppm"),
                estimate.reshape(shape),
            )
    path = os.path.join(recon_dir, "sample.jsonl")
    write_jsonl(path, manifest)
    return path


# --------------------------------------------------------------------------
# evaluate
# --------------------------------------------------------------------------

def _features(config: ExperimentConfig, stack: np.ndarray, which: str) -> np.ndarray:
    shape = (config.channels, config.height, config.width)
    if config.feature_mode == "external_file":
        path = (
            config.feature_file_reconstructions
            if which == "reconstructions"
            else config.feature_file_references
        )
        return np.stack(
            [
                metrics_mod.feature_extract(
                    None, "external_file", feature_file=path, index=i
                )
                for i in range(stack.shape[0])
            ]
        )
    return np.stack(
        [
            metrics_mod.feature_extract(
                row.reshape(shape), config.feature_mode, pool=config.pool
            )
            for row in stack
        ]
    )


def _format_table(rows: list[dict]) -> str:
    header = f"{'sample':>8} {'PSNR':>10} {'SSIM':>10} {'KID':>10} {'FID':>10}"
    lines = [header, "-" * len(header)]

    def cell(value):
        if value is None:
            return f"{'-':>10}"
        if math.isinf(value):
            return f"{'inf':>10}"
        return f"{value:>10.4f}"

    for row in rows:
        lines.append(
            f"{str(row['label']):>8} {cell(row['psnr'])} {cell(row['ssim'])} "
            f"{cell(row.get('kid_x1000'))} {cell(row.get('fid'))}"
        )
    return "\n".join(lines) + "\n"


def evaluate(config: ExperimentConfig, recon_dir: str | None = None,
             report_name: str = "evaluate") -> dict:
    """Score reconstructions against the dataset; returns the aggregate row."""
    if config.count == 0:
        raise ValueError("evaluate: the dataset has no images (count = 0)")
    _, records, ds_dir = load_dataset(config)
    paths = _stage_paths(config)
    recon_dir = recon_dir if recon_dir is not None else paths["recon"]
    manifest_path = os.path.join(recon_dir, "sample.jsonl")
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(f"reconstruction manifest not found: {manifest_path}")
    recon_rows = read_jsonl(manifest_path)
    if len(recon_rows) != len(records):
        raise ValueError(
            f"{len(recon_rows)} reconstructions for {len(records)} references"
        )

    shape = (config.channels, config.height, config.width)
    refs = _read_stack(ds_dir, [rec["file"] for rec in records])
    recs = _read_stack(recon_dir, [row["reconstruction"] for row in recon_rows])

    per_sample = []
    for i in range(len(records)):
        row = {"index": i, "psnr": None, "ssim": None}
        if config.metric_psnr:
            row["psnr"] = metrics_mod.psnr(recs[i].reshape(shape), refs[i].reshape(shape))
        if config.metric_ssim:
            row["ssim"] = metrics_mod.ssim(recs[i].reshape(shape), refs[i].reshape(shape))
        per_sample.append(row)

    aggregate = {
        "fid": None,
        "kid_x1000": None,
        "n_samples": len(records),
        "psnr": None,
        "record": "aggregate",
        "ssim": None,
    }
    if config.metric_psnr:
        aggregate["psnr"] = float(np.mean([row["psnr"] for row in per_sample]))
    if config.metric_ssim:
        aggregate["ssim"] = float(np.mean([row["ssim"] for row in per_sample]))
    if config.metric_kid or config.metric_fid:
        feats_rec = _features(config, recs, "reconstructions")
        feats_ref = _features(config, refs, "references")
        if config.metric_kid:
            aggregate["kid_x1000"] = metrics_mod.kid(
                feats_rec,
                feats_ref,
                subset_size=config.subset_size,
                n_subsets=config.n_subsets,
                seed=config.seed,
            )
        if config.metric_fid:
            aggregate["fid"] = metrics_mod.frechet_from_features(feats_rec, feats_ref)

    os.makedirs(paths["reports"], exist_ok=True)
    write_jsonl(
        os.path.join(paths["reports"], f"{report_name}.jsonl"),
        per_sample + [aggregate],
    )
    table_rows = [
        {"label": row["index"], "psnr": row["psnr"], "ssim": row["ssim"]}
        for row in per_sample
    ]
    table_rows.append(
        {
            "label": "mean",
            "psnr": aggregate["psnr"],
            "ssim": aggregate["ssim"],
            "kid_x1000": aggregate["kid_x1000"],
            "fid": aggregate["fid"],
        }
    )
    write_text(
        os.path.join(paths["reports"], f"{report_name}.txt"), _format_table(table_rows)
    )
    return aggregate


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def verify(config: ExperimentConfig, check_filter: str = "") -> list:
    """Run the built-in numerical check suite; returns the reports.

    check_filter restricts the suite to checks whose name contains the
    given substring; excluded checks are never executed.
    """
    seed = config.seed
    rng = np.random.default_rng(seed)
    n = 8
    cov = rbf_covariance((1, 1, n), length_scale=2.0, variance=0.3)
    prior = GaussianPrior(mean=np.full(n, 0.5), covariance=cov)

    from .operators import DenseOperator, IdentityOperator

    dense = DenseOperator(rng.standard_normal((6, n)))
    schedule = make_karras_schedule(2, t_min=0.01, t_max=10.0)
    suite = [
        (
            "dropped_variance",
            lambda: mc_dropped_variance_check(
                prior, t=1.0, s=0.5, t_min=0.01, n_samples=80000, seed=seed
            ),
        ),
        (
            "residual_decomposition_bound",
            lambda: residual_bound_check(
                dense, prior, sigma_y=0.05, n_samples=10000, seed=seed
            ),
        ),
        (
            "variance_compensation",
            lambda: variance_compensation_check(
                prior,
                IdentityOperator(1, 1, n),
                sigma_y=0.05,
                schedule=schedule,
                gamma_grid=DEFAULT_GAMMA_GRID,
                n_runs=200,
                seed=seed,
            ),
        ),
    ]

    reports = [
        make_report()
        for name, make_report in suite
        if not check_filter or check_filter in name
    ]

    paths = _stage_paths(config)
    os.makedirs(paths["reports"], exist_ok=True)
    write_jsonl(
        os.path.join(paths["reports"], "verify.jsonl"),
        [report.as_dict() for report in reports],
    )
    return reports


# --------------------------------------------------------------------------
# tune-gamma
# --------------------------------------------------------------------------

def tune_gamma(config: ExperimentConfig) -> dict:
    """Grid-search gamma for the residual-guided sampler.

    Each candidate re-runs sampling and evaluation into its own
    subdirectory; candidates are ranked by KID when enabled, otherwise by
    PSNR.  All candidates share one operator and consistency closure, so
    the prior is conditioned and factored once per run.  Returns the winning row.
    """
    paths = _stage_paths(config)
    setup = _sampling_setup(config)
    rows = []
    for gamma in config.gamma_grid:
        sampler = SamplerConfig(
            variant="inverse_addim",
            steps=config.sampler.steps,
            eta=config.sampler.eta,
            gamma=float(gamma),
            t_min=config.sampler.t_min,
            t_max=config.sampler.t_max,
            rho=config.sampler.rho,
        )
        sub = os.path.join(config.output_dir, "tune", f"gamma_{gamma:g}")
        sample(config, sampler=sampler, recon_dir=sub, setup=setup)
        aggregate = evaluate(config, recon_dir=sub, report_name=f"tune_gamma_{gamma:g}")
        rows.append(
            {
                "fid": aggregate["fid"],
                "gamma": float(gamma),
                "kid_x1000": aggregate["kid_x1000"],
                "psnr": aggregate["psnr"],
                "ssim": aggregate["ssim"],
            }
        )

    if config.metric_kid:
        best = min(rows, key=lambda row: row["kid_x1000"])
    elif config.metric_psnr:
        best = max(rows, key=lambda row: row["psnr"])
    else:
        raise ValueError("tuning needs at least one of KID or PSNR enabled")
    best_row = dict(best)
    best_row["record"] = "best"
    os.makedirs(paths["reports"], exist_ok=True)
    write_jsonl(os.path.join(paths["reports"], "tune.jsonl"), rows + [best_row])
    return best_row
