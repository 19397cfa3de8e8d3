import filecmp
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from cminverse import harness, kernels, metrics
from cminverse.config import ExperimentConfig
from cminverse.priors import EmpiricalPrior, GaussianPrior, rbf_covariance, rbf_prior
from cminverse.samplers import SamplerConfig
from cminverse.tensorio import dump_image, read_jsonl, read_tensor, write_jsonl, write_tensor


def make_config(output_dir, **overrides):
    base = dict(
        task="denoise", output_dir=str(output_dir), seed=0, workers=1,
        dump_images=False, dataset_source="synthetic", generator="gaussian_prior",
        count=4, channels=1, height=8, width=8, length_scale=2.0,
        prior_variance=0.05, prior_mean_level=0.5, atom_count=3, block=2,
        blur_sigma=1.5, kernel_radius=None, saturation=4.0, sigma_y=0.05,
        sampler=SamplerConfig(variant="inverse_addim", steps=2, gamma=0.5,
                              t_min=0.01, t_max=5.0),
        metric_psnr=True, metric_ssim=True, metric_kid=True, metric_fid=True,
        feature_mode="raw_pixels", pool=2, subset_size=4, n_subsets=2,
        feature_file_reconstructions=None, feature_file_references=None,
        gamma_grid=(0.0, 1.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base).validate()


def tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


# -- synthesize -------------------------------------------------------------

def test_synthesize_layout_and_determinism(tmp_path):
    config_a = make_config(tmp_path / "a", seed=3)
    config_b = make_config(tmp_path / "b", seed=3)
    ds_a, ds_b = harness.synthesize(config_a), harness.synthesize(config_b)
    assert tree_bytes(ds_a) == tree_bytes(ds_b)

    records = read_jsonl(os.path.join(ds_a, "dataset.jsonl"))
    assert [rec["index"] for rec in records] == list(range(4))
    for rec in records:
        img = read_tensor(os.path.join(ds_a, rec["file"]))
        assert img.shape == (1, 8, 8)
    meta = read_jsonl(os.path.join(ds_a, "dataset_meta.jsonl"))[0]
    assert meta["generator"] == "gaussian_prior"
    assert meta["count"] == 4 and meta["seed"] == 3

    other = harness.synthesize(make_config(tmp_path / "c", seed=4))
    assert tree_bytes(ds_a) != tree_bytes(other)


_SYNTHESIZE_INI = """\
[experiment]
task = denoise
seed = 5
output_dir = {out}

[dataset]
generator = gaussian_prior
count = 6
channels = {c}
height = {h}
width = {w}
length_scale = 3.0
variance = 0.05

[metrics]
kid = false
"""


def test_synthesize_does_not_depend_on_blas_threads(tmp_path):
    # a dense n x n eigh returns eigenvectors that change with the BLAS
    # thread count; the per-axis factor of the RBF prior does not (checked
    # up to 128 pixels per axis)
    shapes = [(1, 16, 16), (1, 32, 32), (3, 8, 12)]
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = textwrap.dedent("""
        import sys
        from cminverse import cli
        sys.exit(max(cli.main(["--config", ini, "synthesize"]) for ini in sys.argv[1:]))
    """)
    trees = {}
    for threads in ("1", "2"):
        inis = []
        for c, h, w in shapes:
            ini = tmp_path / f"t{threads}_{c}x{h}x{w}.ini"
            ini.write_text(_SYNTHESIZE_INI.format(out=tmp_path / ini.stem, c=c, h=h, w=w))
            inis.append(str(ini))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=env_path)
        proc = subprocess.run([sys.executable, "-c", script] + inis, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        trees[threads] = [tree_bytes(tmp_path / f"t{threads}_{c}x{h}x{w}" / "dataset")
                          for c, h, w in shapes]
    for shape, one, two in zip(shapes, trees["1"], trees["2"]):
        assert len(one) == 6 + 2, shape  # images and two manifests
        assert one == two, shape


def test_synthesize_empty_dataset(tmp_path):
    config = make_config(tmp_path, count=0)
    ds_dir = harness.synthesize(config)
    assert read_jsonl(os.path.join(ds_dir, "dataset.jsonl")) == []
    assert not [f for f in os.listdir(ds_dir) if f.startswith("img_")]


def test_synthesize_gaussian_matches_declared_moments(tmp_path):
    # the written images must actually follow the stored prior: grand mean
    # near the configured level and per-pixel variance near the declared one
    config = make_config(tmp_path, count=200, prior_mean_level=0.4,
                         prior_variance=0.05)
    ds_dir = harness.synthesize(config)
    records = read_jsonl(os.path.join(ds_dir, "dataset.jsonl"))
    stack = np.stack(
        [read_tensor(os.path.join(ds_dir, rec["file"])).ravel() for rec in records]
    )
    assert stack.shape == (200, 64)
    assert abs(stack.mean() - 0.4) < 0.05
    pixel_var = stack.var(axis=0, ddof=1).mean()
    assert abs(pixel_var - 0.05) < 0.015

    prior = harness.load_prior(config)
    assert isinstance(prior, GaussianPrior)
    # the prior rebuilt from the recorded parameters has the declared moments
    assert np.allclose(prior.mean, 0.4, atol=1e-6)
    assert abs(prior.covariance[0, 0] - 0.05) < 1e-6


def test_load_prior_is_the_prior_that_drew_the_images(tmp_path):
    shape, variance = (3, 6, 5), 0.3
    config = make_config(tmp_path, channels=3, height=6, width=5, count=5,
                         prior_variance=variance, prior_mean_level=0.4, metric_ssim=False)
    ds_dir = harness.synthesize(config)
    meta = read_jsonl(os.path.join(ds_dir, "dataset_meta.jsonl"))[0]
    assert (meta["length_scale"], meta["variance"], meta["mean_level"]) == (2.0, 0.3, 0.4)
    assert not [name for name in os.listdir(ds_dir) if name.startswith("prior_")]

    prior = harness.load_prior(config)
    assert np.array_equal(prior.mean, np.full(90, 0.4))
    dense = rbf_covariance(shape, length_scale=2.0, variance=variance)
    assert np.abs(prior.covariance - dense).max() <= 1e-12 * variance
    # the same draws as synthesize, down to the bytes of every stored image
    draws = prior.sample(np.random.default_rng(config.seed), size=5)
    for i, draw in enumerate(draws):
        stored = read_tensor(os.path.join(ds_dir, f"img_{i:05d}.cmt"))
        assert np.array_equal(stored, draw.reshape(shape).astype(np.float32))
    assert np.array_equal(draws, rbf_prior(shape, 2.0, variance, 0.4).sample(
        np.random.default_rng(config.seed), size=5))


def test_synthesize_piecewise_and_atoms(tmp_path):
    for generator in ("piecewise_constant", "atoms"):
        config = make_config(tmp_path / generator, generator=generator, count=5)
        ds_dir = harness.synthesize(config)
        records = read_jsonl(os.path.join(ds_dir, "dataset.jsonl"))
        assert len(records) == 5
        for rec in records:
            img = read_tensor(os.path.join(ds_dir, rec["file"]))
            assert img.min() >= 0.0 and img.max() <= 1.0
        prior = harness.load_prior(config)
        assert isinstance(prior, EmpiricalPrior)
    # atoms datasets draw every image from the stored dictionary
    atoms = read_tensor(os.path.join(str(tmp_path / "atoms"), "dataset", "atoms.cmt"))
    assert atoms.shape[0] == 3
    stack = [
        read_tensor(os.path.join(tmp_path / "atoms", "dataset", f"img_{i:05d}.cmt"))
        for i in range(5)
    ]
    for img in stack:
        assert any(np.array_equal(img.ravel(), atom) for atom in atoms)


def test_dump_images_writes_previews(tmp_path):
    config = make_config(tmp_path, count=2, dump_images=True, metric_kid=False)
    harness.synthesize(config)
    assert os.path.isfile(tmp_path / "images" / "img_00000.pgm")
    harness.degrade(config)
    assert os.path.isfile(tmp_path / "images" / "meas_00001.pgm")


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        harness.load_dataset(make_config(tmp_path))


# -- degrade ----------------------------------------------------------------

def test_degrade_noiseless_identity_is_byte_exact(tmp_path):
    config = make_config(tmp_path, sigma_y=0.0)
    ds_dir = harness.synthesize(config)
    harness.degrade(config)
    for i in range(config.count):
        with open(os.path.join(ds_dir, f"img_{i:05d}.cmt"), "rb") as fh:
            img = fh.read()
        with open(tmp_path / "degraded" / f"meas_{i:05d}.cmt", "rb") as fh:
            meas = fh.read()
        assert img == meas


def test_degrade_manifest_contents(tmp_path):
    config = make_config(tmp_path, task="super_resolution", seed=5)
    harness.synthesize(config)
    manifest = read_jsonl(harness.degrade(config))
    assert len(manifest) == config.count
    for i, row in enumerate(manifest):
        assert row["index"] == i
        assert row["input"] == f"img_{i:05d}.cmt"
        assert row["measurement"] == f"meas_{i:05d}.cmt"
        assert row["seed"] == 5 + 1 + 2 * i
        op = row["operator"]
        assert (op["task"], op["block"]) == ("super_resolution", 2)
        assert (op["m"], op["n"], op["sigma_y"]) == (16, 64, 0.05)
        meas = read_tensor(tmp_path / "degraded" / row["measurement"])
        assert meas.shape == (1, 4, 4)


def test_degrade_is_deterministic_across_worker_counts(tmp_path):
    trees = []
    for workers in (1, 4):
        config = make_config(tmp_path / str(workers), workers=workers, seed=2)
        harness.synthesize(config)
        harness.degrade(config)
        trees.append(tree_bytes(config.output_dir))
    assert trees[0] == trees[1]


# -- sample -----------------------------------------------------------------

def run_pipeline(config):
    harness.synthesize(config)
    harness.degrade(config)
    return harness.sample(config)


def test_sample_manifest_and_outputs(tmp_path):
    config = make_config(tmp_path, seed=1)
    manifest = read_jsonl(run_pipeline(config))
    assert len(manifest) == config.count
    for i, row in enumerate(manifest):
        assert row["index"] == i
        assert row["variant"] == "inverse_addim"
        assert row["gamma"] == 0.5
        assert row["conditioned"] is True
        assert row["nfe"] == row["steps"] == 2
        assert len(row["residual_norms"]) == 2
        assert row["seed"] == 1 + 2 + 2 * i
        assert row["degenerate_steps"] == 0
        recon = read_tensor(tmp_path / "recon" / row["reconstruction"])
        assert recon.shape == (1, 8, 8)
        assert np.isfinite(recon).all()


def test_inverse_addim_applies_the_operator_once_per_step(tmp_path, monkeypatch):
    # the residual that guides each step is the one written to sample.jsonl,
    # so one chunk applies the operator once per consistency call
    config = make_config(tmp_path, task="deblur",
                         sampler=SamplerConfig(variant="inverse_addim", steps=4, gamma=0.5,
                                               t_min=0.01, t_max=5.0))
    harness.synthesize(config)
    harness.degrade(config)
    shapes, run_sampler = [], harness.run_sampler

    def counting_sampler(consistency, sampler, *, operator, **kwargs):
        apply = operator.apply

        def counting_apply(x):
            shapes.append(np.shape(x))
            return apply(x)

        monkeypatch.setattr(operator, "apply", counting_apply)
        return run_sampler(consistency, sampler, operator=operator, **kwargs)

    monkeypatch.setattr(harness, "run_sampler", counting_sampler)
    rows = read_jsonl(harness.sample(config))
    assert shapes == [(config.count, 64)] * 4
    assert all(len(row["residual_norms"]) == 4 for row in rows)


@pytest.mark.parametrize("blur_sigma", [1.5, 3.0])
def test_sample_exact_measurement_deblur_is_accurate(tmp_path, blur_sigma):
    # sigma_y = 0 makes A Sigma A^T numerically singular under a strong
    # blur; conditioning must stay exact instead of amplifying round-off
    config = make_config(
        tmp_path, task="deblur", height=16, width=16, sigma_y=0.0,
        blur_sigma=blur_sigma, sampler=SamplerConfig(variant="inverse_addim", steps=4),
        metric_ssim=False, metric_kid=False, metric_fid=False,
    )
    run_pipeline(config)
    for i in range(config.count):
        recon = read_tensor(tmp_path / "recon" / f"recon_{i:05d}.cmt")
        assert np.isfinite(recon).all()
    assert harness.evaluate(config)["psnr"] > 30.0


def test_sample_chunks_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    # one chunk of SAMPLE_CHUNK images plus a short one, sampled in index
    # order by sample and by every tune-gamma candidate, for any worker count
    run_sampler, batches = harness.run_sampler, []

    def counting(*args, **kwargs):
        batches.append(len(kwargs["seed"]))
        return run_sampler(*args, **kwargs)

    monkeypatch.setattr(harness, "run_sampler", counting)
    trees = []
    for workers in (1, 3):
        config = make_config(tmp_path / f"w{workers}", workers=workers, seed=5,
                             task="deblur", height=4, width=4,
                             count=harness.SAMPLE_CHUNK + 3, metric_ssim=False,
                             gamma_grid=(0.5,))
        batches.clear()
        manifest = read_jsonl(run_pipeline(config))
        assert batches == [harness.SAMPLE_CHUNK, 3]
        assert [row["index"] for row in manifest] == list(range(config.count))
        assert [row["seed"] for row in manifest] == [
            5 + 2 + 2 * i for i in range(config.count)
        ]
        batches.clear()
        harness.tune_gamma(config)
        assert batches == [harness.SAMPLE_CHUNK, 3]
        trees.append(tree_bytes(config.output_dir))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("generator", ["gaussian_prior", "piecewise_constant", "atoms"])
def test_empty_dataset_passes_synthesize_degrade_sample(tmp_path, generator):
    config = make_config(tmp_path, count=0, workers=3, generator=generator)
    assert read_jsonl(run_pipeline(config)) == []
    assert read_jsonl(tmp_path / "degraded" / "degrade.jsonl") == []


@pytest.mark.parametrize("height, width", [(1, 2), (2, 1)])
def test_atoms_on_grids_shorter_than_three(tmp_path, height, width):
    # max(h, w) / 3 < 1 here, so a blob's radius range [1, max(1, max(h, w) / 3)]
    # is the single value 1
    config = make_config(tmp_path, generator="atoms", height=height, width=width,
                         metric_ssim=False)
    assert len(read_jsonl(run_pipeline(config))) == config.count
    atoms = read_tensor(tmp_path / "dataset" / "atoms.cmt")
    assert atoms.shape == (config.atom_count, height * width)
    assert atoms.min() >= 0.0 and atoms.max() <= 1.0


def test_sample_gamma_zero_matches_plain_interpolant(tmp_path):
    config = make_config(tmp_path)
    harness.synthesize(config)
    harness.degrade(config)
    zero = SamplerConfig(variant="inverse_addim", steps=2, gamma=0.0,
                         t_min=0.01, t_max=5.0)
    plain = SamplerConfig(variant="ddim", steps=2, t_min=0.01, t_max=5.0)
    harness.sample(config, sampler=zero, recon_dir=str(tmp_path / "r_zero"))
    harness.sample(config, sampler=plain, recon_dir=str(tmp_path / "r_plain"))
    for i in range(config.count):
        name = f"recon_{i:05d}.cmt"
        assert filecmp.cmp(tmp_path / "r_zero" / name, tmp_path / "r_plain" / name,
                           shallow=False)


def test_sample_addim_reads_the_dataset_images_as_teachers(tmp_path):
    config = make_config(tmp_path, task="deblur")
    harness.synthesize(config)
    harness.degrade(config)

    def recon_bytes(variant, eta, name):
        sampler = SamplerConfig(variant=variant, steps=3, eta=eta, t_min=0.01, t_max=5.0)
        harness.sample(config, sampler=sampler, recon_dir=str(tmp_path / name))
        return [(tmp_path / name / f"recon_{i:05d}.cmt").read_bytes()
                for i in range(config.count)]

    # eta = 0 borrows no variance from the teacher, leaving the plain interpolant
    assert recon_bytes("addim", 0.0, "r_zero") == recon_bytes("ddim", 1.0, "r_ddim")
    before = recon_bytes("addim", 1.0, "r_before")
    dataset = tmp_path / "dataset"
    for rec in read_jsonl(str(dataset / "dataset.jsonl")):
        write_tensor(str(dataset / rec["file"]), np.zeros((1, 8, 8)))
    after = recon_bytes("addim", 1.0, "r_after")
    assert all(a != b for a, b in zip(before, after))


def test_sample_conditioning_policy(tmp_path):
    # ddrm conditions through its own update, so it gets the plain denoiser
    config = make_config(tmp_path)
    prior = GaussianPrior(mean=np.zeros(4), covariance=np.eye(4))
    from cminverse.operators import IdentityOperator

    op = IdentityOperator(1, 2, 2)
    _, conditioned = harness.build_consistency(config, prior, op)
    assert conditioned is True
    ddrm_config = make_config(tmp_path, sampler=SamplerConfig(variant="ddrm", steps=2))
    _, conditioned = harness.build_consistency(ddrm_config, prior, op)
    assert conditioned is False
    empirical = EmpiricalPrior(np.eye(4))
    _, conditioned = harness.build_consistency(config, empirical, op)
    assert conditioned is False


def test_sample_requires_degrade_first(tmp_path):
    config = make_config(tmp_path)
    harness.synthesize(config)
    with pytest.raises(FileNotFoundError):
        harness.sample(config)


def test_sample_rejects_mismatched_manifests(tmp_path):
    config = make_config(tmp_path)
    harness.synthesize(config)
    harness.degrade(config)
    manifest_path = tmp_path / "degraded" / "degrade.jsonl"
    rows = read_jsonl(manifest_path)
    write_jsonl(manifest_path, rows[:-1])
    with pytest.raises(ValueError, match="measurements"):
        harness.sample(config)


# -- evaluate ---------------------------------------------------------------

def test_evaluate_perfect_reconstructions(tmp_path):
    config = make_config(tmp_path, count=5, subset_size=5, n_subsets=2)
    ds_dir = harness.synthesize(config)
    recon_dir = tmp_path / "recon"
    os.makedirs(recon_dir)
    rows = []
    for i in range(config.count):
        img = read_tensor(os.path.join(ds_dir, f"img_{i:05d}.cmt"))
        name = f"recon_{i:05d}.cmt"
        write_tensor(recon_dir / name, img)
        rows.append({"index": i, "reconstruction": name})
    write_jsonl(recon_dir / "sample.jsonl", rows)

    aggregate = harness.evaluate(config, recon_dir=str(recon_dir))
    assert aggregate["record"] == "aggregate"
    assert aggregate["n_samples"] == 5
    assert aggregate["psnr"] == math.inf
    assert aggregate["ssim"] == pytest.approx(1.0, abs=1e-12)
    assert aggregate["fid"] == pytest.approx(0.0, abs=1e-8)
    assert aggregate["kid_x1000"] is not None  # same-set value, sign-free

    report = read_jsonl(tmp_path / "reports" / "evaluate.jsonl")
    assert len(report) == 6
    assert all(row["psnr"] == math.inf for row in report[:-1])
    table = (tmp_path / "reports" / "evaluate.txt").read_text()
    assert "inf" in table and "mean" in table


def test_evaluate_aggregate_is_mean_of_rows(tmp_path):
    config = make_config(tmp_path, metric_kid=False, metric_fid=False)
    run_pipeline(config)
    aggregate = harness.evaluate(config)
    rows = read_jsonl(tmp_path / "reports" / "evaluate.jsonl")[:-1]
    assert aggregate["psnr"] == pytest.approx(
        np.mean([row["psnr"] for row in rows]), abs=1e-10
    )
    assert aggregate["ssim"] == pytest.approx(
        np.mean([row["ssim"] for row in rows]), abs=1e-10
    )
    assert aggregate["kid_x1000"] is None and aggregate["fid"] is None


def test_evaluate_disabled_metrics_leave_blanks(tmp_path):
    config = make_config(tmp_path, metric_psnr=False, metric_ssim=False,
                         metric_kid=False, metric_fid=False)
    run_pipeline(config)
    aggregate = harness.evaluate(config)
    assert {aggregate[k] for k in ("psnr", "ssim", "kid_x1000", "fid")} == {None}
    table = (tmp_path / "reports" / "evaluate.txt").read_text()
    assert "-" in table


def test_evaluate_scores_chunks_not_images(tmp_path, monkeypatch):
    config = make_config(tmp_path, count=130, metric_kid=False, metric_fid=False)
    ds_dir = harness.synthesize(config)
    recon_dir = tmp_path / "recon"
    os.makedirs(recon_dir)
    rows = []
    for i in range(config.count):
        img = read_tensor(os.path.join(ds_dir, f"img_{i:05d}.cmt"))
        name = f"recon_{i:05d}.cmt"
        write_tensor(recon_dir / name, img + 0.01 * (i % 7))
        rows.append({"index": i, "reconstruction": name})
    write_jsonl(recon_dir / "sample.jsonl", rows)

    ssim_mean, calls = kernels.ssim_mean, []
    monkeypatch.setattr(kernels, "ssim_mean",
                        lambda x, *args: calls.append(x.shape) or ssim_mean(x, *args))
    harness.evaluate(config)
    assert calls == [(64, 1, 8, 8), (64, 1, 8, 8), (2, 1, 8, 8)]
    report = read_jsonl(tmp_path / "reports" / "evaluate.jsonl")
    assert [row["index"] for row in report[:-1]] == list(range(130))
    assert report[0]["psnr"] == math.inf and report[0]["ssim"] == 1.0
    recs = np.stack([read_tensor(recon_dir / row["reconstruction"]) for row in rows])
    refs = np.stack([read_tensor(os.path.join(ds_dir, f"img_{i:05d}.cmt"))
                     for i in range(130)])
    for i in (1, 64, 129):
        assert report[i]["psnr"] == pytest.approx(metrics.psnr(recs[i], refs[i]), abs=1e-12)
        assert report[i]["ssim"] == pytest.approx(metrics.ssim(recs[i], refs[i]), abs=1e-12)


def test_evaluate_count_mismatch(tmp_path):
    config = make_config(tmp_path)
    run_pipeline(config)
    manifest_path = tmp_path / "recon" / "sample.jsonl"
    write_jsonl(manifest_path, read_jsonl(manifest_path)[:-1])
    with pytest.raises(ValueError, match="reconstructions"):
        harness.evaluate(config)


def test_evaluate_external_features(tmp_path, monkeypatch):
    count = 4
    # full-rank feature cloud keeps the covariance square root well
    # conditioned (a degenerate one amplifies eigensolver noise)
    feats = np.random.default_rng(0).standard_normal((count, 3))
    rec_file = tmp_path / "feats_rec.cmt"
    ref_file = tmp_path / "feats_ref.cmt"
    write_tensor(rec_file, feats)
    write_tensor(ref_file, feats + 0.5)
    config = make_config(
        tmp_path, count=count, feature_mode="external_file",
        feature_file_reconstructions=str(rec_file),
        feature_file_references=str(ref_file),
        subset_size=4, n_subsets=1, metric_ssim=False,
    )
    run_pipeline(config)
    read_table, table_reads = metrics.read_tensor, []
    monkeypatch.setattr(metrics, "read_tensor",
                        lambda path: table_reads.append(path) or read_table(path))
    aggregate = harness.evaluate(config)
    # one read of each feature table, not one per image
    assert sorted(table_reads) == [str(rec_file), str(ref_file)]
    # the features differ only by the constant 0.5 shift: Frechet distance
    # is d * 0.25 for matching covariances, up to the float32 storage of
    # the feature files (x and x + 0.5 round to different ulps)
    assert aggregate["fid"] == pytest.approx(3 * 0.25, abs=1e-6)

    write_tensor(ref_file, feats[:-1])
    with pytest.raises(ValueError, match="out of range for 3 rows"):
        harness.evaluate(config)


# -- verify -----------------------------------------------------------------

def test_verify_full_suite_passes(tmp_path):
    config = make_config(tmp_path)
    reports = harness.verify(config)
    assert [r.check_name for r in reports] == [
        "dropped_variance", "residual_decomposition_bound", "variance_compensation",
    ]
    assert all(r.passed for r in reports)
    rows = read_jsonl(tmp_path / "reports" / "verify.jsonl")
    assert [row["check_name"] for row in rows] == [r.check_name for r in reports]
    assert all(isinstance(row["passed"], bool) for row in rows)


def test_verify_filter_runs_only_matching_checks(tmp_path):
    config = make_config(tmp_path)
    reports = harness.verify(config, check_filter="dropped")
    assert [r.check_name for r in reports] == ["dropped_variance"]
    rows = read_jsonl(tmp_path / "reports" / "verify.jsonl")
    assert len(rows) == 1
    (tmp_path / "reports" / "verify.jsonl").unlink()
    with pytest.raises(ValueError, match="matches none of the checks dropped_variance, "
                       "residual_decomposition_bound, variance_compensation$"):
        harness.verify(config, check_filter="no_such_check")
    assert not (tmp_path / "reports" / "verify.jsonl").exists()


@pytest.mark.parametrize("seed", [102, 143])
def test_verify_dropped_variance_passes_on_unlucky_seeds(tmp_path, seed):
    # with 20000 Monte Carlo samples these seeds missed the 2% tolerance
    config = make_config(tmp_path, seed=seed)
    (report,) = harness.verify(config, check_filter="dropped_variance")
    assert report.passed, report


# -- tune-gamma -------------------------------------------------------------

def test_tune_gamma_ranks_and_records(tmp_path):
    config = make_config(tmp_path, gamma_grid=(0.0, 1.0))
    harness.synthesize(config)
    harness.degrade(config)
    best = harness.tune_gamma(config)
    assert best["record"] == "best"
    assert best["gamma"] in (0.0, 1.0)

    rows = read_jsonl(tmp_path / "reports" / "tune.jsonl")
    assert len(rows) == 3
    grid_rows = rows[:-1]
    assert [row["gamma"] for row in grid_rows] == [0.0, 1.0]
    assert best["kid_x1000"] == min(row["kid_x1000"] for row in grid_rows)
    for gamma in ("0", "1"):
        assert os.path.isfile(
            tmp_path / "tune" / f"gamma_{gamma}" / "recon_00000.cmt"
        )
        assert os.path.isfile(tmp_path / "reports" / f"tune_gamma_{gamma}.jsonl")


def test_tune_gamma_shares_one_closure_without_changing_bytes(tmp_path, monkeypatch):
    config = make_config(tmp_path, gamma_grid=(0.0, 0.5, 1.0))
    harness.synthesize(config)
    harness.degrade(config)
    load_prior, loads = harness.load_prior, []
    monkeypatch.setattr(harness, "load_prior",
                        lambda c: loads.append(1) or load_prior(c))
    harness.tune_gamma(config)
    assert len(loads) == 1

    for gamma in config.gamma_grid:
        alone = tmp_path / "alone" / f"gamma_{gamma:g}"
        sampler = SamplerConfig(variant="inverse_addim", steps=2, gamma=gamma,
                                t_min=0.01, t_max=5.0)
        harness.sample(config, sampler=sampler, recon_dir=str(alone))
        tuned = tmp_path / "tune" / f"gamma_{gamma:g}"
        assert tree_bytes(tuned) == tree_bytes(alone)
        # scored from memory, a candidate's report still has the bytes that
        # evaluate writes from its tensor files
        harness.evaluate(config, recon_dir=str(alone), report_name=f"alone_{gamma:g}")
        for ext in ("jsonl", "txt"):
            reports = tmp_path / "reports"
            assert ((reports / f"tune_gamma_{gamma:g}.{ext}").read_bytes()
                    == (reports / f"alone_{gamma:g}.{ext}").read_bytes())


def test_tune_gamma_previews_stay_with_their_candidate(tmp_path):
    sampler = SamplerConfig(variant="inverse_addim", steps=2, gamma=1.0, t_min=0.01, t_max=5.0)
    config = make_config(tmp_path, task="deblur", count=8, dump_images=True,
                         gamma_grid=(1.0, 0.0), sampler=sampler)
    run_pipeline(config)
    harness.tune_gamma(config)

    def preview(cmt_path, name):
        path = tmp_path / "previews" / name
        path.parent.mkdir(exist_ok=True)
        dump_image(str(path), read_tensor(cmt_path))
        return path.read_bytes()

    for i in (0, 7):
        name = f"recon_{i:05d}.pgm"
        assert (tmp_path / "images" / name).read_bytes() == preview(
            tmp_path / "recon" / f"recon_{i:05d}.cmt", name)
        for gamma in ("1", "0"):
            candidate = tmp_path / "tune" / f"gamma_{gamma}"
            assert (candidate / name).read_bytes() == preview(
                candidate / f"recon_{i:05d}.cmt", name)


def test_tune_gamma_reads_its_inputs_once(tmp_path, monkeypatch):
    config = make_config(tmp_path, task="deblur", count=8, gamma_grid=(0.0, 1.0))
    harness.synthesize(config)
    harness.degrade(config)
    read, paths = harness.read_tensor, []
    monkeypatch.setattr(harness, "read_tensor", lambda path: paths.append(path) or read(path))
    read_rows, manifests = harness.read_jsonl, []
    monkeypatch.setattr(harness, "read_jsonl",
                        lambda path: manifests.append(os.path.basename(path)) or read_rows(path))
    harness.tune_gamma(config)
    # the candidates read no tensor file: each is scored from memory
    stage = sorted(os.path.basename(os.path.dirname(path)) for path in paths)
    assert stage == ["dataset"] * 8 + ["degraded"] * 8
    assert manifests.count("dataset.jsonl") == manifests.count("degrade.jsonl") == 1
    assert "sample.jsonl" not in manifests


def test_tune_gamma_falls_back_to_psnr(tmp_path):
    config = make_config(tmp_path, gamma_grid=(0.0, 0.5), metric_kid=False)
    harness.synthesize(config)
    harness.degrade(config)
    best = harness.tune_gamma(config)
    rows = read_jsonl(tmp_path / "reports" / "tune.jsonl")[:-1]
    assert best["psnr"] == max(row["psnr"] for row in rows)


def test_tune_gamma_needs_a_ranking_metric(tmp_path):
    config = make_config(tmp_path, metric_kid=False, metric_psnr=False)
    harness.synthesize(config)
    harness.degrade(config)
    with pytest.raises(ValueError, match="KID or PSNR"):
        harness.tune_gamma(config)
    assert not os.path.exists(tmp_path / "tune")


# -- cross-stage determinism -------------------------------------------------

def test_full_pipeline_worker_count_invariance(tmp_path):
    trees = []
    for workers in (1, 3):
        config = make_config(tmp_path / f"w{workers}", workers=workers, seed=9,
                             task="deblur")
        run_pipeline(config)
        harness.evaluate(config)
        trees.append(tree_bytes(config.output_dir))
    assert trees[0] == trees[1]
