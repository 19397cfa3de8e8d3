import filecmp
import json
import math
import os

import numpy as np
import pytest

from cminverse import harness
from cminverse.config import ExperimentConfig
from cminverse.priors import EmpiricalPrior, GaussianPrior
from cminverse.samplers import SamplerConfig
from cminverse.tensorio import read_jsonl, read_tensor, write_jsonl, write_tensor


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
    # moments survive the float32 round trip to disk
    assert np.allclose(prior.mean, 0.4, atol=1e-6)
    assert abs(prior.covariance[0, 0] - 0.05) < 1e-6


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
    config = make_config(tmp_path, count=2, dump_images=True)
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
    # one chunk of SAMPLE_CHUNK images plus a short one; the pool maps chunks
    run_sampler, batches = harness.run_sampler, []

    def counting(*args, **kwargs):
        batches.append(len(kwargs["seed"]))
        return run_sampler(*args, **kwargs)

    monkeypatch.setattr(harness, "run_sampler", counting)
    trees = []
    for workers in (1, 3):
        config = make_config(tmp_path / f"w{workers}", workers=workers, seed=5,
                             task="deblur", height=4, width=4,
                             count=harness.SAMPLE_CHUNK + 3)
        manifest = read_jsonl(run_pipeline(config))
        assert [row["index"] for row in manifest] == list(range(config.count))
        assert [row["seed"] for row in manifest] == [
            5 + 2 + 2 * i for i in range(config.count)
        ]
        trees.append(tree_bytes(config.output_dir))
    assert trees[0] == trees[1]
    assert sorted(batches) == [3, 3, harness.SAMPLE_CHUNK, harness.SAMPLE_CHUNK]


def test_empty_dataset_passes_synthesize_degrade_sample(tmp_path):
    config = make_config(tmp_path, count=0, workers=3)
    assert read_jsonl(run_pipeline(config)) == []
    assert read_jsonl(tmp_path / "degraded" / "degrade.jsonl") == []


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


def test_evaluate_count_mismatch(tmp_path):
    config = make_config(tmp_path)
    run_pipeline(config)
    manifest_path = tmp_path / "recon" / "sample.jsonl"
    write_jsonl(manifest_path, read_jsonl(manifest_path)[:-1])
    with pytest.raises(ValueError, match="reconstructions"):
        harness.evaluate(config)


def test_evaluate_external_features(tmp_path):
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
    aggregate = harness.evaluate(config)
    # the features differ only by the constant 0.5 shift: Frechet distance
    # is d * 0.25 for matching covariances, up to the float32 storage of
    # the feature files (x and x + 0.5 round to different ulps)
    assert aggregate["fid"] == pytest.approx(3 * 0.25, abs=1e-6)


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
    assert harness.verify(config, check_filter="no_such_check") == []


@pytest.mark.parametrize("seed", [102, 143])
def test_verify_dropped_variance_passes_on_unlucky_seeds(tmp_path, seed):
    # with 20000 Monte Carlo samples these seeds missed the 2% tolerance
    config = make_config(tmp_path, seed=seed)
    (report,) = harness.verify(config, check_filter="dropped_variance")
    assert report.passed, report.as_dict()


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
