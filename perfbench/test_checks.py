"""Tests of the benchmark's own checks and span recorder.

Run from the repository root:  python3 -m pytest perfbench -q

Each output check must pass on correct outputs and fail on a corrupted
copy: the checks are only worth their cost if a broken program trips them.
"""

import json
import math
import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402

RNG_SEED = 7


# --------------------------------------------------------------------------
# forward models against their definitions
# --------------------------------------------------------------------------

def test_blur_matches_direct_circular_convolution():
    h, w, sigma = 6, 9, 1.3
    blur = checks.CircularBlur(h, w, sigma)
    x = np.random.default_rng(RNG_SEED).standard_normal((h, w))
    radius = math.ceil(3 * sigma)
    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    taps /= taps.sum()
    direct = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            for di, ti in zip(range(-radius, radius + 1), taps):
                for dj, tj in zip(range(-radius, radius + 1), taps):
                    direct[i, j] += ti * tj * x[(i - di) % h, (j - dj) % w]
    assert np.allclose(blur.apply(x)[0], direct.ravel(), atol=1e-13)
    assert np.allclose(blur.matrix() @ x.ravel(), direct.ravel(), atol=1e-13)


def test_inpaint_hides_the_centred_square():
    op = checks.CentredSquareInpaint(8, 8)
    image = np.arange(64.0).reshape(8, 8)
    hidden = np.zeros((8, 8), dtype=bool)
    hidden[2:6, 2:6] = True
    assert np.array_equal(op.apply(image)[0], image[~hidden])
    assert np.array_equal(op.matrix() @ image.ravel(), image[~hidden])


# --------------------------------------------------------------------------
# Gaussian checks on synthetic posterior draws
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gaussian_case():
    rng = np.random.default_rng(RNG_SEED)
    h = w = 8
    sigma_y = 0.05
    mean, cov = checks.rbf_prior(h, w, 2.0, 0.05, 0.5)
    forward = checks.CircularBlur(h, w, 1.0)
    post = checks.GaussianPosterior(mean, cov, forward.matrix(), sigma_y)
    root = np.linalg.cholesky(cov + 1e-12 * np.eye(mean.size))
    x = mean + rng.standard_normal((400, mean.size)) @ root.T
    y = forward.apply(x) + sigma_y * rng.standard_normal(x.shape)
    m = post.means(y)
    vals, vecs = np.linalg.eigh(post.cov)
    post_root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    draws = m + rng.standard_normal(x.shape) @ post_root.T
    return {"x": x, "y": y, "m": m, "post": post, "draws": draws,
            "forward": forward, "mean": mean, "cov": cov, "sigma_y": sigma_y}


def _verdicts(case, x_hat):
    found = checks.check_gaussian_recon(case["x"], x_hat, case["m"], case["post"], "t")
    return {c.name.split(":")[1]: c.passed for c in found}


def test_exact_posterior_draws_pass(gaussian_case):
    case = gaussian_case
    assert all(_verdicts(case, case["draws"]).values())
    assert all(_verdicts(case, case["m"]).values())
    assert checks.check_noise(case["x"], case["y"], case["forward"], case["sigma_y"]).passed
    assert checks.check_gaussian_dataset(case["x"], case["mean"], case["cov"]).passed


def test_prior_mean_in_place_of_samples_fails(gaussian_case):
    case = gaussian_case
    prior_mean = np.broadcast_to(case["mean"], case["x"].shape)
    assert not _verdicts(case, prior_mean)["posterior_spread"]


def test_ground_truth_in_place_of_samples_fails(gaussian_case):
    case = gaussian_case
    verdicts = _verdicts(case, case["x"])
    assert not verdicts["mse_at_least_mmse"]
    assert not verdicts["orthogonality"]


def test_estimate_correlated_with_the_truth_fails_orthogonality(gaussian_case):
    # Reflecting the truth through the posterior mean keeps the spread at
    # one MMSE and the error above it, but the cross term is no longer zero.
    case = gaussian_case
    verdicts = _verdicts(case, 2.0 * case["m"] - case["x"])
    assert verdicts["mse_at_least_mmse"] and verdicts["posterior_spread"]
    assert not verdicts["orthogonality"]


def test_wrong_noise_or_operator_fails_the_noise_check(gaussian_case):
    case = gaussian_case
    noisy = case["y"] + case["sigma_y"] * np.random.default_rng(1).standard_normal(
        case["y"].shape)
    assert not checks.check_noise(case["x"], noisy, case["forward"], case["sigma_y"]).passed
    unblurred = case["x"] + (case["y"] - case["forward"].apply(case["x"]))
    other = checks.CircularBlur(8, 8, 2.0)
    assert not checks.check_noise(case["x"], unblurred, other, case["sigma_y"]).passed


def test_dataset_off_the_prior_fails(gaussian_case):
    case = gaussian_case
    spread = case["mean"] + 2.0 * (case["x"] - case["mean"])
    assert not checks.check_gaussian_dataset(spread, case["mean"], case["cov"]).passed


# --------------------------------------------------------------------------
# atoms, reports
# --------------------------------------------------------------------------

def test_map_atom_check_catches_a_wrong_atom():
    rng = np.random.default_rng(RNG_SEED)
    forward = checks.CircularBlur(8, 8, 1.0)
    atoms = rng.uniform(0.0, 1.0, (5, 64)).astype(np.float32)
    idx = rng.integers(0, 5, 12)
    y = forward.apply(atoms[idx]) + 0.05 * rng.standard_normal((12, 64))
    x_hat = atoms[checks.map_atoms(y, atoms, forward)]
    assert checks.check_map_atoms(x_hat, y, atoms, forward).passed
    assert checks.check_dataset_atoms(atoms[idx], atoms).passed
    wrong = x_hat.copy()
    wrong[3] = atoms[(checks.map_atoms(y[3:4], atoms, forward)[0] + 1) % 5]
    assert not checks.check_map_atoms(wrong, y, atoms, forward).passed
    nudged = atoms[idx].copy()
    nudged[0, 0] += 1e-3
    assert not checks.check_dataset_atoms(nudged, atoms).passed


def test_psnr_report_must_match_the_files():
    rng = np.random.default_rng(RNG_SEED)
    x = rng.uniform(size=(4, 16))
    x_hat = x + 0.1 * rng.standard_normal(x.shape)
    values = checks.psnr_db(x, x_hat)
    rows = [{"index": i, "psnr": float(v)} for i, v in enumerate(values)]
    rows.append({"record": "aggregate", "psnr": float(np.mean(values))})
    assert checks.check_psnr_report(x, x_hat, rows, "e").passed
    tampered = json.loads(json.dumps(rows))
    tampered[2]["psnr"] += 1e-6
    assert not checks.check_psnr_report(x, x_hat, tampered, "e").passed
    assert not checks.check_psnr_report(x, x, rows, "e").passed


def test_tune_and_verify_reports():
    rows = [{"gamma": g, "kid_x1000": k} for g, k in ((0.0, 3.0), (1.0, 1.0), (2.0, 2.0))]
    good = rows + [{"gamma": 1.0, "kid_x1000": 1.0, "record": "best"}]
    bad = rows + [{"gamma": 2.0, "kid_x1000": 2.0, "record": "best"}]
    assert checks.check_tune_report(good, (0.0, 1.0, 2.0)).passed
    assert not checks.check_tune_report(bad, (0.0, 1.0, 2.0)).passed
    assert checks.check_verify_report([{"check_name": "a", "passed": True}]).passed
    assert not checks.check_verify_report([{"check_name": "a", "passed": False}]).passed
    assert not checks.check_verify_report([]).passed


# --------------------------------------------------------------------------
# the real pipeline, then corrupted outputs
# --------------------------------------------------------------------------

def _write_tensor(path, array):
    arr = np.ascontiguousarray(array, dtype="<f4")
    header = b"CMT1" + np.array([arr.ndim, *arr.shape], dtype="<u4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header + arr.tobytes())


def _run_pipeline(tmp_path, workload):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import run
    from cminverse import cli

    out = str(tmp_path / "out")
    config = str(tmp_path / "config.ini")
    run.write_config(config, workload, 3, out)
    for _, argv in workload["stages"]:
        assert cli.main(["--config", config] + argv) == 0
    return out


def _small_workload(generator, task, **dataset):
    base = {"gaussian_prior": {"generator": "gaussian_prior", "length_scale": 2.0,
                               "variance": 0.05, "mean_level": 0.5},
            "atoms": {"generator": "atoms", "atom_count": 4}}[generator]
    return {
        "experiment": {"task": task, "workers": 1},
        "dataset": dict(base, height=8, width=8, **dataset),
        "operator": {"sigma": 1.0, "sigma_y": 0.05},
        "sampler": {"variant": "inverse_addim" if generator != "atoms" else "ddrm",
                    "steps": 4},
        "metrics": {"subset_size": 4, "n_subsets": 2},
        "tune": {"gamma_grid": "0, 1"},
        "stages": [(s, [s]) for s in ("synthesize", "degrade", "sample", "evaluate")],
    }


def test_pipeline_outputs_pass_and_corrupted_outputs_fail(tmp_path):
    workload = _small_workload("gaussian_prior", "inpaint", count=60)
    workload["stages"] = workload["stages"] + [("tune-gamma", ["tune-gamma"])]
    out = _run_pipeline(tmp_path, workload)
    reference = checks.WorkloadReference(workload, (0.0, 1.0))
    found = reference.check_round(out)
    assert all(c.passed for cs in found.values() for c in cs), found

    recon = os.path.join(out, "recon")
    rows = checks.read_jsonl(os.path.join(recon, "sample.jsonl"))
    for row in rows:
        _write_tensor(os.path.join(recon, row["reconstruction"]),
                      np.full((1, 8, 8), 0.5))
    found = reference.check_round(out)
    assert not all(c.passed for c in found["sample"])
    # The evaluate report no longer matches the files either.
    assert not all(c.passed for c in found["evaluate"])
    assert all(c.passed for c in found["tune-gamma"])


def test_ddrm_outputs_pass_and_a_wrong_atom_fails(tmp_path):
    workload = _small_workload("atoms", "deblur", count=8)
    out = _run_pipeline(tmp_path, workload)
    reference = checks.WorkloadReference(workload, ())
    found = reference.check_round(out)
    assert all(c.passed for cs in found.values() for c in cs), found

    atoms = checks.read_cmt(os.path.join(out, "dataset", "atoms.cmt"))
    recon = os.path.join(out, "recon")
    first = checks.read_jsonl(os.path.join(recon, "sample.jsonl"))[0]["reconstruction"]
    current = checks.read_cmt(os.path.join(recon, first))
    other = next(a for a in atoms if not np.array_equal(a, current))
    _write_tensor(os.path.join(recon, first), other)
    assert not reference.check_round(out)["sample"][0].passed


# --------------------------------------------------------------------------
# span recorder
# --------------------------------------------------------------------------

def test_self_times_subtract_the_union_of_children():
    spans_ = [
        [0, "stage", 0.0, 10.0, None, 1, {"stage": "s"}],
        [1, "a", 1.0, 4.0, 0, 1, None],
        [2, "b", 3.0, 6.0, 0, 2, None],  # overlaps a on another thread
        [3, "c", 1.5, 2.0, 1, 1, None],
    ]
    own = spans.self_times(spans_)
    assert own == {0: 5.0, 1: 2.5, 2: 3.0, 3: 0.5}


def test_recorder_nests_spans_per_thread_under_contention():
    tracer = spans.Tracer()
    stage = tracer.begin("stage", {"stage": "s"})
    tracer.stage_span = stage[0]
    depth, per_thread, threads = 3, 400, 8

    def work():
        for _ in range(per_thread):
            opened = [tracer.begin(f"level{k}") for k in range(depth)]
            for span in reversed(opened):
                tracer.end(span)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(old)
    tracer.end(stage)

    recorded = tracer._spans
    assert len(recorded) == 1 + threads * per_thread * depth
    assert [s[0] for s in recorded] == list(range(len(recorded)))
    by_id = {s[0]: s for s in recorded}
    for span in recorded[1:]:
        parent = by_id[span[4]]
        level = int(span[1][5:])
        if level == 0:
            assert parent is stage
        else:
            assert parent[1] == f"level{level - 1}" and parent[5] == span[5]
            assert parent[2] <= span[2] and span[3] <= parent[3]


def test_layer_times_sum_to_the_stage_on_one_thread():
    tracer = spans.Tracer()
    stage = tracer.begin("stage", {"stage": "sample"})
    tracer.stage_span = stage[0]
    outer = tracer.begin("samplers.sample")
    inner = tracer.begin("priors.consistency", {"t": 1.0})
    tracer.end(tracer.begin("priors.linalg"))
    tracer.end(inner)
    tracer.end(tracer.begin("priors.consistency", {"t": 1.0}))
    tracer.end(outer)
    check = tracer.begin("verification.residual_bound")
    tracer.end(tracer.begin("samplers.sample"))
    tracer.end(check)
    tracer.end(stage)
    metrics, sums = spans.summarise(tracer._spans)
    total, wall = sums["sample"]
    assert abs(total - wall) < 1e-9
    assert metrics["priors.gain_builds"] == 1
    assert metrics["priors.consistency_calls"] == 2
    assert metrics["samplers.trajectories"] == 1  # the check's sampler is charged to it
