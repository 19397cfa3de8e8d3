"""Pipeline stages behind the CLI: synthesize, degrade, sample, evaluate,
verify, tune-gamma.

Every stage reads the manifests of the stage before it, does its work,
and writes tensors plus a line-delimited manifest of its own.  Sampling
runs the batched sampler, and evaluation scores PSNR and SSIM, on chunks
of ``SAMPLE_CHUNK`` images, one chunk after another in index order.
Per-sample randomness comes from seeds derived as
``seed + offset + 2 * index`` with disjoint offsets per stage, never
from a shared generator.
"""

import math
import os
from dataclasses import asdict, replace

import numpy as np

from . import metrics as metrics_mod
from .config import GENERATORS, ExperimentConfig, build_operator
from .operators import LinearOperator, MeasurementModel
from .priors import MAX_CONDITIONED_N, EmpiricalPrior, GaussianPrior, rbf_prior
# Not called here: perfbench/spans.py traces harness.rbf_covariance by name.
from .priors import rbf_covariance  # noqa: F401
from .samplers import SamplerConfig, sample as run_sampler
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
# Images per batched sampler call, and per PSNR or SSIM call.  It bounds
# the memory of the latents and of SSIM's window maps, and as a constant
# it fixes the batch, and so the BLAS blocking, that each image sees.
SAMPLE_CHUNK = 64
# dataset_meta.jsonl fields of a gaussian_prior dataset, the rbf_prior arguments
_PRIOR_FIELDS = ("length_scale", "variance", "mean_level")
# the meta fields that load_prior reads, by generator
_META_FIELDS = {"gaussian_prior": ("channels", "height", "width") + _PRIOR_FIELDS,
                "atoms": ("atoms",),
                "piecewise_constant": ("channels", "height", "width", "seed", "count")}
# The held-out stream of a piecewise_constant prior: default_rng([seed, it])
# draws the prior's images apart from the dataset's default_rng(seed).
_HELD_OUT_STREAM = 1


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


def _write_stack(directory, prefix, stack, preview_dir=None) -> list[str]:
    """Write stack[i] to ``<directory>/<prefix>_{i:05d}.cmt`` and return the
    names.  With ``preview_dir`` set, each image also gets an 8-bit preview
    there: ``.ppm`` for 3 channels, else ``.pgm``."""
    os.makedirs(directory, exist_ok=True)
    if preview_dir is not None:
        os.makedirs(preview_dir, exist_ok=True)
    names = []
    for i, image in enumerate(stack):
        name = f"{prefix}_{i:05d}.cmt"
        write_tensor(os.path.join(directory, name), image)
        names.append(name)
        if preview_dir is not None:
            ext = "ppm" if image.shape[0] == 3 else "pgm"
            dump_image(os.path.join(preview_dir, f"{prefix}_{i:05d}.{ext}"), image)
    return names


def _chunks(count: int) -> list[slice]:
    """The slices of SAMPLE_CHUNK indices that cover range(count), in order."""
    return [slice(lo, lo + SAMPLE_CHUNK) for lo in range(0, count, SAMPLE_CHUNK)]


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
    return images.reshape(count, c * h * w)


def _blob_atoms(rng, atom_count, shape):
    c, h, w = shape
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    atoms = np.empty((atom_count, c, h, w))
    for j in range(atom_count):
        img = np.zeros((h, w))
        for _ in range(rng.integers(1, 4)):
            cy, cx = rng.uniform(0, h), rng.uniform(0, w)
            rad = rng.uniform(1.0, max(1.0, max(h, w) / 3.0))
            amp = rng.uniform(0.3, 1.0)
            img += amp * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2 * rad**2))
        atoms[j] = np.clip(img, 0.0, 1.0)[None].repeat(c, axis=0)
    return atoms.reshape(atom_count, -1)


def synthesize(config: ExperimentConfig) -> str:
    """Generate a seeded synthetic dataset; returns the dataset directory.

    A ``gaussian_prior`` dataset draws its images through ``rbf_prior``,
    whose exact factor comes from one eigh per image axis, so the images
    do not depend on the BLAS thread count.  Its meta records the prior's
    parameters (``_PRIOR_FIELDS``), from which ``load_prior`` rebuilds the
    same prior; no covariance is written.
    """
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
        prior = rbf_prior(shape, config.length_scale, config.prior_variance,
                          config.prior_mean_level)
        images = prior.sample(rng, size=config.count)
        meta.update(length_scale=config.length_scale, mean_level=config.prior_mean_level,
                    variance=config.prior_variance)
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

    names = _write_stack(ds_dir, "img", images.reshape((-1,) + shape),
                         paths["images"] if config.dump_images else None)
    records = [{"file": name, "index": i} for i, name in enumerate(names)]
    write_jsonl(os.path.join(ds_dir, "dataset.jsonl"), records)
    write_jsonl(os.path.join(ds_dir, "dataset_meta.jsonl"), [meta])
    return ds_dir


def load_dataset(config: ExperimentConfig):
    """Return (records, dataset_dir) for the configured dataset; every
    record names its tensor file under ``file``."""
    ds_dir = _dataset_dir(config)
    manifest = os.path.join(ds_dir, "dataset.jsonl")
    if not os.path.isfile(manifest):
        raise FileNotFoundError(f"dataset manifest not found: {manifest}")
    records = read_jsonl(manifest)
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not isinstance(rec.get("file"), str):
            raise ValueError(f"{manifest}: row {i} names no tensor file under 'file': {rec!r}")
    return records, ds_dir


def load_prior(config: ExperimentConfig):
    """Reconstruct the sampling prior recorded with the dataset.

    A ``gaussian_prior`` dataset is rebuilt with ``rbf_prior`` from the
    parameters in its meta: the same float64 prior that drew its images.
    An ``atoms`` prior is the atoms file that drew the images.  A
    ``piecewise_constant`` prior is ``count`` images of the same generator,
    drawn from a held-out stream of the meta's ``seed`` (``_HELD_OUT_STREAM``),
    so no image of the dataset is one of its atoms.  A meta naming an
    unknown generator, lacking a field its generator reads, or recording
    one that disagrees with the config (a grid side or channel count that
    is not the config's int) or is not of its kind (a prior parameter that
    is not a finite number, an atoms file name that is not a string, a
    seed that is not an int >= 0 or a count that is not an int >= 1)
    raises ValueError naming the field.
    """
    ds_dir = _dataset_dir(config)
    meta_path = os.path.join(ds_dir, "dataset_meta.jsonl")
    meta_rows = read_jsonl(meta_path)
    if not meta_rows or not isinstance(meta_rows[0], dict) or "generator" not in meta_rows[0]:
        raise ValueError(f"{meta_path} records no generator; its first row must name one")
    meta = meta_rows[0]
    generator = meta["generator"]
    if generator not in GENERATORS:
        raise ValueError(f"{meta_path} names the unknown generator {generator!r}; "
                         f"expected one of {', '.join(GENERATORS)}")
    missing = [name for name in _META_FIELDS.get(generator, ()) if name not in meta]
    if missing:
        raise ValueError(f"{meta_path} lacks the {generator} fields "
                         f"{', '.join(missing)}; re-run synthesize to record them")
    # type(), not isinstance: a bool is an int to isinstance, and True == 1
    for name in _META_FIELDS.get(generator, ()):
        value = meta[name]
        if name == "atoms":
            ok, want = isinstance(value, str), "the atoms tensor's file name"
        elif name in _PRIOR_FIELDS:
            ok, want = type(value) in (int, float) and math.isfinite(value), "a finite number"
        elif name in ("seed", "count"):
            least = 1 if name == "count" else 0
            ok, want = type(value) is int and value >= least, f"an int >= {least}"
        else:
            expected = getattr(config, name)
            ok, want = type(value) is int and value == expected, f"the config's {expected}"
        if not ok:
            raise ValueError(f"{meta_path} records {name} = {value!r}; expected {want}")
    if generator == "gaussian_prior":
        shape = (meta["channels"], meta["height"], meta["width"])
        return rbf_prior(shape, meta["length_scale"], meta["variance"], meta["mean_level"])
    if generator == "atoms":
        atoms = read_tensor(os.path.join(ds_dir, meta["atoms"]))
        return EmpiricalPrior(atoms.reshape(atoms.shape[0], -1))
    rng = np.random.default_rng([meta["seed"], _HELD_OUT_STREAM])
    shape = (meta["channels"], meta["height"], meta["width"])
    return EmpiricalPrior(_piecewise_constant_images(rng, meta["count"], shape))


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
    records, ds_dir = load_dataset(config)
    paths = _stage_paths(config)
    operator = build_operator(config)
    model = MeasurementModel(operator=operator, sigma_y=config.sigma_y)
    op_summary = _operator_summary(config, operator)

    seeds = [config.seed + _DEGRADE_SEED_OFFSET + 2 * i for i in range(len(records))]
    ys = np.empty((0, operator.m))
    if records:
        ys = model.degrade(_read_stack(ds_dir, [rec["file"] for rec in records]), seed=seeds)
    meas_shape = getattr(operator, "measurement_shape", None)
    if meas_shape:
        ys = ys.reshape((-1,) + meas_shape)
    names = _write_stack(paths["degraded"], "meas", ys,
                         paths["images"] if config.dump_images and meas_shape else None)
    manifest = [
        {
            "index": i,
            "input": rec["file"],
            "measurement": name,
            "operator": op_summary,
            "seed": seed,
        }
        for i, (rec, name, seed) in enumerate(zip(records, names, seeds))
    ]
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
    variant sees the measurement at all.  A conditioned closure holds dense
    per-block gains and factors, about n^2 / 4 floats where a square grid
    splits by its transpose too and n^2 / 2 otherwise, and building it
    takes per-block eigendecompositions whose cost grows as n^3, so above
    ``MAX_CONDITIONED_N`` pixels it is refused (a ValueError) before any
    block is allocated.
    """
    conditioned = (
        isinstance(prior, GaussianPrior)
        and isinstance(operator, LinearOperator)
        and config.sampler.variant != "ddrm"
    )
    if conditioned:
        if prior.n > MAX_CONDITIONED_N:
            raise ValueError(
                f"conditioning the Gaussian prior on the measurement needs dense blocks "
                f"of n^2 / 4 to n^2 / 2 floats, and n = {prior.n} exceeds the limit of "
                f"{MAX_CONDITIONED_N}; "
                "use variant = ddrm, which needs none, or smaller images"
            )
        return prior.measurement_consistency(operator, config.sigma_y), True
    return prior.consistency(), False


def _sampling_setup(config: ExperimentConfig):
    """(operator, consistency, conditioned) for sampling under this config."""
    operator = build_operator(config)
    prior = load_prior(config)
    return (operator,) + build_consistency(config, prior, operator)


def _measurements(config: ExperimentConfig, records):
    """The degrade manifest, checked to hold one row per dataset image, and
    the (N, m) stack of the measurements it names (None for N = 0)."""
    degraded = _stage_paths(config)["degraded"]
    path = os.path.join(degraded, "degrade.jsonl")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"measurement manifest not found: {path}")
    rows = read_jsonl(path)
    if len(rows) != len(records):
        raise ValueError(f"{len(rows)} measurements for {len(records)} dataset images")
    return rows, _read_stack(degraded, [row["measurement"] for row in rows]) if rows else None


def _reconstruct(config: ExperimentConfig, sampler: SamplerConfig, setup, ys, measurements,
                 teachers=None):
    """Sample a ``_measurements`` result under a ``_sampling_setup`` one;
    ``teachers`` is the (N, n) dataset stack the ``addim`` variant needs.
    Returns the N estimates, each of n values, and their ``sample.jsonl``
    rows less the file names.  Raises NonFiniteEstimate when an estimate
    or residual norm is not finite."""
    operator, consistency, conditioned = setup
    seeds = [config.seed + _SAMPLE_SEED_OFFSET + 2 * i for i in range(len(measurements))]
    estimates, rows = [], []
    for chunk in _chunks(len(measurements)):
        trajectory = run_sampler(consistency, sampler, y=ys[chunk], operator=operator,
                                 sigma_y=config.sigma_y, seed=seeds[chunk],
                                 x_teacher=None if teachers is None else teachers[chunk])
        for i, (estimate, degenerate, norms) in enumerate(
                zip(trajectory.estimate, trajectory.degenerate_steps,
                    trajectory.residual_norms),
                start=chunk.start):
            if not (np.isfinite(estimate).all() and np.isfinite(norms).all()):
                raise NonFiniteEstimate(f"image {i} ({measurements[i]['measurement']}): "
                                        "non-finite estimate or residual norm; check t_min, "
                                        "t_max and the prior")
            estimates.append(estimate)
            rows.append({
                "conditioned": conditioned,
                "degenerate_steps": int(degenerate),
                "gamma": sampler.gamma,
                "index": i,
                "measurement": measurements[i]["measurement"],
                "nfe": sampler.steps,
                "residual_norms": norms.tolist(),
                "seed": seeds[i],
                "steps": sampler.steps,
                "variant": sampler.variant,
            })
    return estimates, rows


def _write_samples(config: ExperimentConfig, recon_dir, preview_dir, estimates, rows) -> str:
    """Write the reconstructions and ``sample.jsonl``; returns the manifest path."""
    shape = (config.channels, config.height, config.width)
    names = _write_stack(recon_dir, "recon", [estimate.reshape(shape) for estimate in estimates],
                         preview_dir if config.dump_images else None)
    path = os.path.join(recon_dir, "sample.jsonl")
    write_jsonl(path, [dict(row, reconstruction=name) for row, name in zip(rows, names)])
    return path


def sample(config: ExperimentConfig, sampler: SamplerConfig | None = None,
           recon_dir: str | None = None) -> str:
    """Reconstruct every measurement; returns the manifest path.

    With ``dump_images`` on, the previews go to ``images/`` for the default
    ``recon/`` and beside the reconstructions otherwise.  Raises
    NonFiniteEstimate, before writing anything, when an estimate or
    residual norm is not finite.
    """
    records, ds_dir = load_dataset(config)
    paths = _stage_paths(config)
    measurements, ys = _measurements(config, records)
    sampler = sampler if sampler is not None else config.sampler
    estimates, rows = [], []
    if records:  # an empty piecewise_constant dataset has no prior to load
        teachers = None
        if sampler.variant == "addim":
            teachers = _read_stack(ds_dir, [rec["file"] for rec in records])
        estimates, rows = _reconstruct(config, sampler, _sampling_setup(config), ys,
                                       measurements, teachers)
    preview_dir = paths["images"] if recon_dir is None else recon_dir
    recon_dir = recon_dir if recon_dir is not None else paths["recon"]
    return _write_samples(config, recon_dir, preview_dir, estimates, rows)


# --------------------------------------------------------------------------
# evaluate
# --------------------------------------------------------------------------

def _features(config: ExperimentConfig, stack: np.ndarray, which: str) -> np.ndarray:
    """(N, d) features of an (N, c, h, w) stack, from one feature_extract
    call; an external feature table is read once."""
    path = (
        config.feature_file_reconstructions
        if which == "reconstructions"
        else config.feature_file_references
    )
    return metrics_mod.feature_extract(stack, config.feature_mode, pool=config.pool,
                                       feature_file=path, index=np.arange(stack.shape[0]))


def _format_table(rows: list[dict]) -> str:
    """The report rows as a text table; the aggregate row is labelled mean."""
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
            f"{str(row.get('index', 'mean')):>8} {cell(row['psnr'])} {cell(row['ssim'])} "
            f"{cell(row.get('kid_x1000'))} {cell(row.get('fid'))}"
        )
    return "\n".join(lines) + "\n"


def _references(config: ExperimentConfig, records, ds_dir):
    """The (N, c, h, w) reference stack, its features with KID or FID on,
    and their ``frechet_fit`` with FID on; each is None when not needed."""
    shape = (-1, config.channels, config.height, config.width)
    refs = _read_stack(ds_dir, [rec["file"] for rec in records]).reshape(shape)
    if not (config.metric_kid or config.metric_fid):
        return refs, None, None
    feats = _features(config, refs, "references")
    return refs, feats, metrics_mod.frechet_fit(feats) if config.metric_fid else None


def _score(config: ExperimentConfig, recs: np.ndarray, references) -> list[dict]:
    """Score N reconstructions, in rows of n values or as an (N, c, h, w)
    stack, against a ``_references`` result; returns the report rows, one
    per image and then the aggregate."""
    refs, feats_ref, fit_ref = references
    recs = recs.reshape(refs.shape)

    psnrs, ssims = [], []
    for chunk in _chunks(len(refs)):
        if config.metric_psnr:
            psnrs.extend(metrics_mod.psnr(recs[chunk], refs[chunk]).tolist())
        if config.metric_ssim:
            ssims.extend(metrics_mod.ssim(recs[chunk], refs[chunk]).tolist())
    per_sample = [
        {"index": i, "psnr": psnrs[i] if config.metric_psnr else None,
         "ssim": ssims[i] if config.metric_ssim else None}
        for i in range(len(refs))
    ]

    aggregate = {
        "fid": None,
        "kid_x1000": None,
        "n_samples": len(refs),
        "psnr": None,
        "record": "aggregate",
        "ssim": None,
    }
    if config.metric_psnr:
        aggregate["psnr"] = float(np.mean(psnrs))
    if config.metric_ssim:
        aggregate["ssim"] = float(np.mean(ssims))
    if config.metric_kid or config.metric_fid:
        feats_rec = _features(config, recs, "reconstructions")
        if config.metric_kid:
            aggregate["kid_x1000"] = metrics_mod.kid(
                feats_rec,
                feats_ref,
                subset_size=config.subset_size,
                n_subsets=config.n_subsets,
                seed=config.seed,
            )
        if config.metric_fid:
            aggregate["fid"] = metrics_mod.frechet_from_fits(metrics_mod.frechet_fit(feats_rec),
                                                             fit_ref)
    return per_sample + [aggregate]


def _write_report(config: ExperimentConfig, report_name: str, rows: list[dict]) -> dict:
    """Write ``reports/<report_name>.jsonl`` and ``.txt``; returns the
    aggregate, the last row."""
    reports = _stage_paths(config)["reports"]
    os.makedirs(reports, exist_ok=True)
    write_jsonl(os.path.join(reports, f"{report_name}.jsonl"), rows)
    write_text(os.path.join(reports, f"{report_name}.txt"), _format_table(rows))
    return rows[-1]


def evaluate(config: ExperimentConfig, recon_dir: str | None = None,
             report_name: str = "evaluate") -> dict:
    """Score reconstructions against the dataset; returns the aggregate row."""
    records, ds_dir = load_dataset(config)
    if not records:
        raise ValueError(f"evaluate: the dataset has no images (count = 0) in {ds_dir}")
    recon_dir = recon_dir if recon_dir is not None else _stage_paths(config)["recon"]
    manifest_path = os.path.join(recon_dir, "sample.jsonl")
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(f"reconstruction manifest not found: {manifest_path}")
    recon_rows = read_jsonl(manifest_path)
    if len(recon_rows) != len(records):
        raise ValueError(
            f"{len(recon_rows)} reconstructions for {len(records)} references"
        )

    recs = _read_stack(recon_dir, [row["reconstruction"] for row in recon_rows])
    return _write_report(config, report_name,
                         _score(config, recs, _references(config, records, ds_dir)))


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def verify(config: ExperimentConfig, check_filter: str = "") -> list:
    """Run the built-in numerical check suite; returns the reports.

    check_filter restricts the suite to checks whose name contains the
    given substring; excluded checks are never executed.  A filter that
    matches no check raises ValueError before anything is written.
    """
    seed = config.seed
    rng = np.random.default_rng(seed)
    n = 8
    prior = rbf_prior((1, 1, n), length_scale=2.0, variance=0.3, mean_level=0.5)

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

    selected = [make_report for name, make_report in suite if check_filter in name]
    if not selected:
        raise ValueError(f"check filter {check_filter!r} matches none of the checks "
                         + ", ".join(name for name, _ in suite))
    reports = [make_report() for make_report in selected]

    paths = _stage_paths(config)
    os.makedirs(paths["reports"], exist_ok=True)
    write_jsonl(
        os.path.join(paths["reports"], "verify.jsonl"),
        [asdict(report) for report in reports],
    )
    return reports


# --------------------------------------------------------------------------
# tune-gamma
# --------------------------------------------------------------------------

def tune_gamma(config: ExperimentConfig) -> dict:
    """Grid-search gamma for the residual-guided sampler.

    Each candidate samples into its own subdirectory, previews included,
    and gets its own report; candidates are ranked by KID when enabled,
    otherwise by PSNR.  The inputs are read once and the candidates share
    one consistency closure.  A candidate is scored from memory, on its
    estimates rounded through float32 as its tensor files hold them, so
    its report has the bytes ``evaluate`` writes.  Returns the winning row.
    """
    if not (config.metric_kid or config.metric_psnr):
        raise ValueError("tuning needs at least one of KID or PSNR enabled")
    paths = _stage_paths(config)
    records, ds_dir = load_dataset(config)
    # every candidate must be scorable, and rankable, before the first one samples
    if not records:
        raise ValueError(f"tune-gamma: the dataset has no images (count = 0) in {ds_dir}")
    if config.metric_kid and config.subset_size > len(records):
        raise ValueError(f"tune-gamma: KID takes subsets of subset_size = {config.subset_size} "
                         f"images, but the dataset has {len(records)}")
    if config.feature_mode == "external_file" and (config.metric_kid or config.metric_fid):
        raise ValueError("tune-gamma: with feature_mode = external_file every candidate gets "
                         "the same KID and FID from the fixed feature table; use feature_mode "
                         "= raw_pixels or pooled_patches, or set kid = false and fid = false "
                         "to rank by PSNR")
    measurements, ys = _measurements(config, records)
    setup = _sampling_setup(config)
    references = _references(config, records, ds_dir)
    rows = []
    for gamma in config.gamma_grid:
        sampler = replace(config.sampler, variant="inverse_addim", gamma=float(gamma))
        sub = os.path.join(config.output_dir, "tune", f"gamma_{gamma:g}")
        estimates, sample_rows = _reconstruct(config, sampler, setup, ys, measurements)
        _write_samples(config, sub, sub, estimates, sample_rows)
        recs = np.stack(estimates, dtype=np.float32).astype(np.float64)
        del estimates, sample_rows  # not held through scoring, the stage's memory peak
        aggregate = _write_report(config, f"tune_gamma_{gamma:g}",
                                  _score(config, recs, references))
        rows.append({"gamma": float(gamma),
                     **{key: aggregate[key] for key in ("fid", "kid_x1000", "psnr", "ssim")}})

    if config.metric_kid:
        best = min(rows, key=lambda row: row["kid_x1000"])
    else:
        best = max(rows, key=lambda row: row["psnr"])
    best_row = dict(best, record="best")
    os.makedirs(paths["reports"], exist_ok=True)
    write_jsonl(os.path.join(paths["reports"], "tune.jsonl"), rows + [best_row])
    return best_row
