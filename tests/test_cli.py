import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from cminverse import cli, harness
from cminverse.config import build_operator, load_config
from cminverse.tensorio import read_jsonl, read_tensor


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
