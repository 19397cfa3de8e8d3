"""Command-line entry point.

Subcommands map one-to-one onto harness stages:

    synthesize   generate a seeded synthetic dataset
    degrade      apply the configured operator plus noise to every image
    sample       reconstruct every measurement with the configured sampler
    evaluate     score reconstructions (PSNR, SSIM, KID, FID)
    verify       run the numerical self-check suite
    tune-gamma   grid-search the residual-guidance weight

Exit codes: 0 success; 1 failed verification checks; 2 invalid
configuration, unreadable inputs, or a measurement-conditioned Gaussian
run above ``priors.MAX_CONDITIONED_N`` pixels; 3 sampler/operator
combination that cannot work (spectral sampler on a nonlinear operator);
4 the sampler gave a non-finite estimate or residual norm (nothing is
written).
"""

import argparse
import sys

from .config import ConfigError, load_config
from .samplers import UnsupportedCombination
from . import harness


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cminverse",
        description="Measurement-guided few-step sampling for inverse problems.",
    )
    parser.add_argument("--config", required=True, help="experiment INI file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="override [experiment] workers (validated, >= 1; has no effect)"
    )
    parser.add_argument(
        "--output-dir", default=None, help="override config output directory"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synthesize", help="generate the synthetic dataset")
    sub.add_parser("degrade", help="measure every dataset image")
    sub.add_parser("sample", help="reconstruct every measurement")
    sub.add_parser("evaluate", help="score reconstructions against references")
    verify = sub.add_parser("verify", help="run the numerical check suite")
    verify.add_argument(
        "--filter", default="", help="run only checks whose name contains this"
    )
    sub.add_parser("tune-gamma", help="grid-search the residual-guidance weight")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config).with_overrides(
            seed=args.seed, workers=args.workers, output_dir=args.output_dir
        )
        config.validate()

        if args.command == "synthesize":
            ds_dir = harness.synthesize(config)
            print(f"synthesized {config.count} images into {ds_dir}")
        elif args.command == "degrade":
            manifest = harness.degrade(config)
            print(f"wrote measurements and manifest {manifest}")
        elif args.command == "sample":
            manifest = harness.sample(config)
            print(f"wrote reconstructions and manifest {manifest}")
        elif args.command == "evaluate":
            aggregate = harness.evaluate(config)
            cells = [
                f"psnr={aggregate['psnr']}",
                f"ssim={aggregate['ssim']}",
                f"kid_x1000={aggregate['kid_x1000']}",
                f"fid={aggregate['fid']}",
            ]
            print("aggregate: " + "  ".join(cells))
        elif args.command == "verify":
            reports = harness.verify(config, check_filter=args.filter)
            failed = [rep for rep in reports if not rep.passed]
            for rep in reports:
                verdict = "pass" if rep.passed else "FAIL"
                print(
                    f"[{verdict}] {rep.check_name}: statistic={rep.statistic:.6g} "
                    f"target={rep.bound_or_target:.6g}"
                )
            if failed:
                print(f"{len(failed)} of {len(reports)} checks failed", file=sys.stderr)
                return 1
            print(f"all {len(reports)} checks passed")
        else:  # tune-gamma
            best = harness.tune_gamma(config)
            print(
                f"best gamma {best['gamma']:g} "
                f"(kid_x1000={best['kid_x1000']}, psnr={best['psnr']})"
            )
        return 0
    except UnsupportedCombination as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except harness.NonFiniteEstimate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, FileNotFoundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
