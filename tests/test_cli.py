import os
import shutil
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from cminverse import cli, harness, priors
from cminverse.config import build_operator, load_config
from cminverse.tensorio import read_jsonl, read_tensor, write_jsonl, write_tensor


def write_ini(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def base_ini(tmp_path, out="run"):
    return write_ini(
        tmp_path,
        f"""
        [experiment]
        task = deblur
        output_dir = {tmp_path / out}
        seed = 0

        [dataset]
        count = 4
        channels = 1
        height = 8
        width = 8

        [operator]
        sigma = 1.5
        sigma_y = 0.05

        [sampler]
        variant = inverse_addim
        steps = 2
        gamma = 0.5
        t_min = 0.01
        t_max = 5

        [metrics]
        subset_size = 4
        n_subsets = 2

        [tune]
        gamma_grid = 0, 1
        """,
    )


def test_full_pipeline_exit_codes_and_output(tmp_path, capsys):
    ini = base_ini(tmp_path)

    assert cli.main(["--config", ini, "synthesize"]) == 0
    assert "synthesized 4 images" in capsys.readouterr().out

    assert cli.main(["--config", ini, "degrade"]) == 0
    assert "degrade.jsonl" in capsys.readouterr().out

    assert cli.main(["--config", ini, "sample"]) == 0
    assert "sample.jsonl" in capsys.readouterr().out

    assert cli.main(["--config", ini, "evaluate"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("aggregate:")
    assert "psnr=" in out and "kid_x1000=" in out

    assert cli.main(["--config", ini, "verify", "--filter", "dropped"]) == 0
    out = capsys.readouterr().out
    assert "[pass] dropped_variance" in out
    assert "all 1 checks passed" in out

    assert cli.main(["--config", ini, "tune-gamma"]) == 0
    assert "best gamma" in capsys.readouterr().out


def test_verify_filter_that_matches_no_check_exits_2(tmp_path, capsys):
    ini = base_ini(tmp_path)
    assert cli.main(["--config", ini, "verify", "--filter", "residul"]) == 2
    err = capsys.readouterr().err
    assert "'residul' matches none of the checks dropped_variance, " in err
    assert not (tmp_path / "run" / "reports").exists()


def test_evaluate_rejects_empty_dataset(tmp_path, capsys):
    ini = base_ini(tmp_path)
    with open(ini) as fh:
        body = fh.read()
    with open(ini, "w") as fh:
        fh.write(body.replace("count = 4", "count = 0"))
    for stage in ("synthesize", "degrade", "sample"):
        assert cli.main(["--config", ini, stage]) == 0
    capsys.readouterr()
    for stage in ("evaluate", "tune-gamma"):
        assert cli.main(["--config", ini, stage]) == 2
        assert "dataset has no images (count = 0)" in capsys.readouterr().err
    assert not list((tmp_path / "run" / "reports").glob("evaluate.*"))


def _with(ini, **fields):
    """The config at ini with each `key = value` line of the given keys replaced."""
    with open(ini) as fh:
        lines = fh.read().splitlines()
    for key, value in fields.items():
        lines = [f"{key} = {value}" if line.strip().startswith(f"{key} =") else line
                 for line in lines]
    with open(ini, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return ini


def test_evaluate_counts_the_images_of_an_existing_dataset(tmp_path, capsys):
    # a dataset given by its directory is judged by what it holds, not by
    # the config's count: 4 images with count = 0 evaluate, and an empty
    # dataset with count = 4 is refused by name
    for name, count in (("source", 4), ("empty", 0)):
        (tmp_path / name).mkdir()
        assert cli.main(["--config", _with(base_ini(tmp_path / name), count=count),
                         "synthesize"]) == 0
    for name, dataset, count, code in (("full", tmp_path / "source" / "run" / "dataset", 0, 0),
                                       ("none", tmp_path / "empty" / "run" / "dataset", 4, 2)):
        (tmp_path / name).mkdir()
        ini = base_ini(tmp_path / name)
        with open(ini) as fh:
            body = fh.read()
        with open(ini, "w") as fh:
            fh.write(body.replace("[dataset]", f"[dataset]\nsource = {dataset}"))
        _with(ini, count=count)
        for stage in ("degrade", "sample"):
            assert cli.main(["--config", ini, stage]) == 0
        capsys.readouterr()
        assert cli.main(["--config", ini, "evaluate"]) == code
        out, err = capsys.readouterr()
        if code:
            assert "dataset has no images (count = 0)" in err
        else:
            assert out.startswith("aggregate:")
            rows = read_jsonl(str(tmp_path / name / "run" / "reports" / "evaluate.jsonl"))
            assert rows[-1]["n_samples"] == 4


def test_tune_gamma_that_cannot_score_writes_nothing(tmp_path, capsys):
    # KID over subsets of 8 with 4 images (refused when the config loads), or
    # a dataset with no images (refused when tune-gamma starts): refused before
    # the first candidate samples, so no tune/ tree is left
    stages = ["synthesize", "degrade", "tune-gamma"]
    for name, fields, refused_at, message in (
            ("kid", {"subset_size": 8}, "synthesize", "subset_size = 8"),
            ("empty", {"count": 0}, "tune-gamma", "dataset has no images")):
        (tmp_path / name).mkdir()
        ini = _with(base_ini(tmp_path / name), **fields)
        for stage in stages[:stages.index(refused_at)]:
            assert cli.main(["--config", ini, stage]) == 0
        capsys.readouterr()
        assert cli.main(["--config", ini, refused_at]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / name / "run" / "tune").exists()
        assert not (tmp_path / name / "run" / "reports").exists()


def test_tune_gamma_refuses_a_fixed_feature_table(tmp_path, capsys):
    # external feature tables do not change with gamma, so KID and FID would
    # tie every candidate and the first grid entry would win
    tables = {}
    for i, which in enumerate(("reconstructions", "references")):
        tables[which] = tmp_path / f"feats_{which}.cmt"
        write_tensor(tables[which], np.random.default_rng(i).standard_normal((4, 3)))
    ini = base_ini(tmp_path)
    with open(ini) as fh:
        body = fh.read()
    with open(ini, "w") as fh:
        fh.write(body.replace("[metrics]", "[metrics]\nfeature_mode = external_file\n"
                              f"feature_file_reconstructions = {tables['reconstructions']}\n"
                              f"feature_file_references = {tables['references']}\n"
                              "kid = true\nfid = true"))
    for stage in ("synthesize", "degrade"):
        assert cli.main(["--config", ini, stage]) == 0
    capsys.readouterr()
    for kid, fid in (("true", "true"), ("false", "true"), ("true", "false")):
        assert cli.main(["--config", _with(ini, kid=kid, fid=fid), "tune-gamma"]) == 2
        err = capsys.readouterr().err
        assert "raw_pixels or pooled_patches" in err and "kid = false and fid = false" in err
        assert not (tmp_path / "run" / "tune").exists()
    # with both off the candidates are ranked by PSNR
    assert cli.main(["--config", _with(ini, kid="false", fid="false"), "tune-gamma"]) == 0
    assert len(list((tmp_path / "run" / "tune").iterdir())) == 2


def test_seed_and_output_dir_overrides(tmp_path, capsys):
    ini = base_ini(tmp_path)
    rc = cli.main(
        ["--config", ini, "--seed", "42", "--output-dir", str(tmp_path / "other"),
         "synthesize"]
    )
    assert rc == 0
    capsys.readouterr()
    meta = read_jsonl(tmp_path / "other" / "dataset" / "dataset_meta.jsonl")[0]
    assert meta["seed"] == 42


def test_missing_config_is_exit_2(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "nope.ini"), "synthesize"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_is_exit_2(tmp_path, capsys):
    ini = write_ini(tmp_path, "[experiment]\ntask = teleport\n")
    assert cli.main(["--config", ini, "synthesize"]) == 2
    assert "task" in capsys.readouterr().err


@pytest.mark.parametrize("body", ["[sampler]\ngamma = nan\n",
                                  "[tune]\ngamma_grid = 0.1234567, 0.1234568\n"],
                         ids=["gamma_nan", "grid_labels_collide"])
def test_floats_that_would_fail_late_are_exit_2_at_load(tmp_path, capsys, body):
    ini = write_ini(tmp_path, "[experiment]\ntask = denoise\n" + body)
    assert cli.main(["--config", ini, "synthesize"]) == 2
    assert "gamma" in capsys.readouterr().err


def test_stage_out_of_order_is_exit_2(tmp_path, capsys):
    ini = base_ini(tmp_path)
    assert cli.main(["--config", ini, "degrade"]) == 2
    assert "not found" in capsys.readouterr().err
    assert cli.main(["--config", ini, "evaluate"]) == 2
    capsys.readouterr()


def test_spectral_sampler_on_nonlinear_task_is_exit_3(tmp_path, capsys):
    ini = write_ini(
        tmp_path,
        f"""
        [experiment]
        task = nonlinear_deblur
        output_dir = {tmp_path / "run"}

        [dataset]
        count = 2
        height = 8
        width = 8

        [operator]
        sigma = 1.5
        saturation = 4.0

        [sampler]
        variant = ddrm
        steps = 2
        t_min = 0.01
        t_max = 5

        [metrics]
        kid = false
        """,
    )
    assert cli.main(["--config", ini, "synthesize"]) == 0
    assert cli.main(["--config", ini, "degrade"]) == 0
    capsys.readouterr()
    assert cli.main(["--config", ini, "sample"]) == 3
    assert "linear operator" in capsys.readouterr().err


def _run_to_sample(tmp_path, body):
    """synthesize, degrade and sample; returns (sample exit code, config)."""
    ini = write_ini(tmp_path, body)
    out = str(tmp_path / "run")
    for stage in ("synthesize", "degrade"):
        assert cli.main(["--config", ini, "--output-dir", out, stage]) == 0
    code = cli.main(["--config", ini, "--output-dir", out, "sample"])
    return code, load_config(ini).with_overrides(output_dir=out)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "body",
    [
        # t_min * t_min underflows to 0 inside the atom posterior's softmax
        """
        [experiment]
        task = deblur
        [dataset]
        generator = atoms
        count = 3
        height = 8
        width = 8
        atom_count = 4
        [operator]
        sigma = 1.5
        [sampler]
        variant = inverse_addim
        steps = 2
        t_min = 1e-200
        t_max = 5
        [metrics]
        kid = false
        """,
    ],
    ids=["atoms_tiny_t_min"],
)
def test_non_finite_estimate_is_exit_4_and_writes_nothing(tmp_path, capsys, body):
    code, _ = _run_to_sample(tmp_path, body)
    assert code == 4
    assert "image 0 (meas_00000.cmt)" in capsys.readouterr().err
    assert not (tmp_path / "run" / "recon").exists()


def _reconstructions(config):
    recon = os.path.join(config.output_dir, "recon")
    rows = read_jsonl(os.path.join(recon, "sample.jsonl"))
    assert len(rows) == config.count
    return [read_tensor(os.path.join(recon, row["reconstruction"])) for row in rows]


def test_zero_noise_strong_blur_at_tiny_t_min_is_finite(tmp_path):
    # sigma_y = 0 on a 3 px blur leaves directions of the conditioned
    # covariance with zero variance; t_min * t_min underflows to 0 there.
    code, config = _run_to_sample(tmp_path, """
        [experiment]
        task = deblur
        [dataset]
        count = 3
        height = 8
        width = 8
        [operator]
        sigma = 3
        sigma_y = 0
        [sampler]
        variant = inverse_addim
        steps = 2
        t_min = 1e-200
        t_max = 5
        [metrics]
        kid = false
        """)
    assert code == 0
    assert all(np.all(np.isfinite(x)) for x in _reconstructions(config))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "body",
    [
        # unconditional Gaussian denoiser at t_max = 1e200: t * t is inf
        """
        [experiment]
        task = denoise
        [dataset]
        count = 3
        height = 4
        width = 4
        [sampler]
        variant = ddrm
        steps = 2
        t_min = 0.01
        t_max = 1e200
        [metrics]
        ssim = false
        kid = false
        """,
        # measurement-conditioned denoiser at t_max = 1e300
        """
        [experiment]
        task = deblur
        [dataset]
        count = 3
        height = 8
        width = 8
        [operator]
        sigma = 1.5
        [sampler]
        variant = cm_baseline
        steps = 2
        t_min = 0.01
        t_max = 1e300
        [metrics]
        kid = false
        """,
    ],
    ids=["gaussian_ddrm_huge_t_max", "gaussian_cm_baseline_t_max_1e300"],
)
def test_huge_t_max_is_exact(tmp_path, body):
    code, config = _run_to_sample(tmp_path, body)
    assert code == 0
    assert all(np.all(np.isfinite(x)) for x in _reconstructions(config))

    # lam / (lam + inf) = 0 in every direction: the estimate is mean_y itself
    prior, operator = harness.load_prior(config), build_operator(config)
    y = np.random.default_rng(0).standard_normal(operator.m)
    x_t = prior.mean + 1e300 * np.random.default_rng(1).standard_normal(prior.n)
    mean_y, _ = prior.posterior(operator, y, config.sigma_y)
    out = prior.measurement_consistency(operator, config.sigma_y)(x_t, y, 1e300)
    assert np.allclose(out, mean_y, rtol=0.0, atol=1e-12)


_LARGE_DDRM_DEBLUR_INI = """\
[experiment]
task = deblur
output_dir = {out}
seed = 0

[dataset]
generator = gaussian_prior
count = 8
height = {side}
width = {side}
length_scale = 3.0
variance = 0.05

[operator]
sigma = 1.5
sigma_y = 0.05

[sampler]
variant = ddrm
steps = 2

[metrics]
subset_size = 4
n_subsets = 2
"""


@pytest.mark.parametrize("side", [64, 128])
def test_unconditioned_gaussian_pipeline_holds_no_dense_covariance(tmp_path, side):
    # ddrm takes the unconditioned denoiser, so every stage works on the
    # prior's per-axis factor: no n x n array is ever held
    ini = write_ini(tmp_path, _LARGE_DDRM_DEBLUR_INI.format(out=tmp_path / "run", side=side))
    n = side * side
    tracemalloc.start()
    try:
        codes = [cli.main(["--config", ini, stage])
                 for stage in ("synthesize", "degrade", "sample", "evaluate")]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert codes == [0, 0, 0, 0]
    assert peak < n * n * 8, f"peak {peak / 2**20:.1f} MiB at {side}x{side}"


@pytest.mark.parametrize("task", ["deblur", "inpaint"])
def test_conditioned_gaussian_pipeline_at_64_squared_stays_below_four_dense_arrays(tmp_path, task):
    # the conditioned closure splits A and Sigma into parity blocks from the
    # per-axis factor and parity matrices, so no stage holds four n x n arrays
    body = _LARGE_DDRM_DEBLUR_INI.format(out=tmp_path / "run", side=64)
    body = body.replace("variant = ddrm", "variant = inverse_addim")
    body = body.replace("count = 8", "count = 2").replace("subset_size = 4", "subset_size = 2")
    body = body.replace("task = deblur", f"task = {task}")
    ini = write_ini(tmp_path, body)
    n = 64 * 64
    tracemalloc.start()
    try:
        codes = [cli.main(["--config", ini, stage])
                 for stage in ("synthesize", "degrade", "sample", "evaluate")]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert codes == [0, 0, 0, 0]
    rows = read_jsonl(tmp_path / "run" / "recon" / "sample.jsonl")
    assert all(row["conditioned"] for row in rows)
    assert peak < 4 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n arrays"


def test_conditioned_gaussian_run_above_the_size_limit_is_refused(tmp_path, capsys):
    # a conditioned closure holds dense n x n arrays (2 GiB each at 128 x 128):
    # sample stops with exit 2 before allocating any, and names the way out
    body = _LARGE_DDRM_DEBLUR_INI.format(out=tmp_path / "run", side=128)
    ini = write_ini(tmp_path, body.replace("variant = ddrm", "variant = inverse_addim"))
    for stage in ("synthesize", "degrade"):
        assert cli.main(["--config", ini, stage]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main(["--config", ini, "sample"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert f"n = {128 * 128}" in err and f"limit of {priors.MAX_CONDITIONED_N}" in err
    assert "variant = ddrm" in err
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert not os.path.exists(tmp_path / "run" / "recon")


def test_sample_needs_the_prior_fields_in_the_dataset_meta(tmp_path, capsys):
    ini = base_ini(tmp_path)
    for stage in ("synthesize", "degrade"):
        assert cli.main(["--config", ini, stage]) == 0
    meta_path = tmp_path / "run" / "dataset" / "dataset_meta.jsonl"
    (meta,) = read_jsonl(meta_path)
    for name in ("length_scale", "variance", "mean_level"):
        del meta[name]
    write_jsonl(meta_path, [meta])
    capsys.readouterr()
    assert cli.main(["--config", ini, "sample"]) == 2
    err = capsys.readouterr().err
    assert "length_scale, variance, mean_level" in err and "re-run synthesize" in err
    assert not os.path.exists(tmp_path / "run" / "recon")


def _source_ini(tmp_path, generator="gaussian_prior"):
    """A config whose dataset is a directory of 4 images at 8 x 8 that
    ``generator`` synthesized, given as its ``source``; returns the config
    and that directory."""
    (tmp_path / "made").mkdir()
    made = base_ini(tmp_path / "made")
    with open(made) as fh:
        body = fh.read()
    with open(made, "w") as fh:
        fh.write(body.replace("[dataset]", f"[dataset]\ngenerator = {generator}"))
    assert cli.main(["--config", made, "synthesize"]) == 0
    dataset = tmp_path / "made" / "run" / "dataset"
    ini = base_ini(tmp_path)
    with open(ini) as fh:
        body = fh.read()
    with open(ini, "w") as fh:
        fh.write(body.replace("[dataset]", f"[dataset]\nsource = {dataset}"))
    return ini, dataset


def test_dataset_meta_without_a_generator_is_exit_2(tmp_path, capsys):
    ini, dataset = _source_ini(tmp_path)
    for rows in ([], [{"count": 4, "height": 8}], ["gaussian_prior"]):
        write_jsonl(str(dataset / "dataset_meta.jsonl"), rows)
        assert cli.main(["--config", ini, "degrade"]) == 0  # degrade reads no meta
        capsys.readouterr()
        assert cli.main(["--config", ini, "sample"]) == 2
        err = capsys.readouterr().err
        assert "dataset_meta.jsonl" in err and "generator" in err
    assert not os.path.exists(tmp_path / "run" / "recon")


def test_dataset_meta_with_an_unknown_generator_is_exit_2(tmp_path, capsys):
    # an unknown generator must not fall through to a prior over the
    # dataset's own images
    ini, dataset = _source_ini(tmp_path)
    meta = read_jsonl(str(dataset / "dataset_meta.jsonl"))[0]
    write_jsonl(str(dataset / "dataset_meta.jsonl"), [dict(meta, generator="foo")])
    assert cli.main(["--config", ini, "degrade"]) == 0
    capsys.readouterr()
    assert cli.main(["--config", ini, "sample"]) == 2
    err = capsys.readouterr().err
    assert "dataset_meta.jsonl" in err and "'foo'" in err
    assert not os.path.exists(tmp_path / "run" / "recon")


@pytest.mark.parametrize("generator,field", [("gaussian_prior", "height"), ("atoms", "atoms")])
def test_dataset_meta_without_a_field_its_generator_reads_is_exit_2(tmp_path, capsys,
                                                                     generator, field):
    ini, dataset = _source_ini(tmp_path, generator)
    meta = read_jsonl(str(dataset / "dataset_meta.jsonl"))[0]
    del meta[field]
    write_jsonl(str(dataset / "dataset_meta.jsonl"), [meta])
    assert cli.main(["--config", ini, "degrade"]) == 0
    capsys.readouterr()
    assert cli.main(["--config", ini, "sample"]) == 2
    err = capsys.readouterr().err
    assert "dataset_meta.jsonl" in err and field in err
    assert not os.path.exists(tmp_path / "run" / "recon")


def test_dataset_row_without_a_file_is_exit_2(tmp_path, capsys):
    ini, dataset = _source_ini(tmp_path)
    rows = read_jsonl(str(dataset / "dataset.jsonl"))
    for row in ({"index": 2, "tensor": rows[2]["file"]}, [rows[2]["file"]], 2,
                {"index": 2, "file": 3}):
        write_jsonl(str(dataset / "dataset.jsonl"), rows[:2] + [row] + rows[3:])
        capsys.readouterr()
        for stage in ("degrade", "sample", "evaluate", "tune-gamma"):
            assert cli.main(["--config", ini, stage]) == 2
            err = capsys.readouterr().err
            assert "dataset.jsonl" in err and "row 2" in err
    assert not os.path.exists(tmp_path / "run")


def test_failed_check_is_exit_1(tmp_path, capsys, monkeypatch):
    from cminverse.verification import VerificationReport

    def always_failing(config, check_filter=""):
        return [
            VerificationReport(
                check_name="rigged", statistic=2.0, bound_or_target=1.0,
                tolerance=0.0, n_samples=1, passed=False,
            )
        ]

    monkeypatch.setattr(cli.harness, "verify", always_failing)
    ini = base_ini(tmp_path)
    assert cli.main(["--config", ini, "verify"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] rigged" in captured.out
    assert "1 of 1 checks failed" in captured.err


def test_argparse_rejects_bad_invocations(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["synthesize"])  # missing --config
    with pytest.raises(SystemExit):
        cli.main(["--config", "x.ini"])  # missing subcommand
    with pytest.raises(SystemExit):
        cli.main(["--config", "x.ini", "transmogrify"])


def test_console_script_and_module_entry(tmp_path):
    assert shutil.which("cminverse") is not None
    proc = subprocess.run(
        [sys.executable, "-m", "cminverse.cli", "--config",
         str(tmp_path / "missing.ini"), "synthesize"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
