"""Pipeline benchmark: stage times, throughput and per-layer traces.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One round runs every stage of the workload through ``cminverse.cli.main``
in a fresh process (``child.py``), then checks the outputs against
computations made apart from the program (``checks.py``).  Rounds repeat
with the same seed while the next one is expected to end within
``--seconds``; each reported figure is the median over rounds.  With ``--trace 1`` untraced and traced
rounds alternate: the traced ones give the per-layer figures and the
difference between the two kinds gives the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go
to ``.perfbench_work/<workload>/`` in the current directory.
"""

import os

# Pin BLAS threads before numpy loads, here and in every round's process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD_DEADLINE_S = 170.0  # a run must end within 180 s

PIPELINE = [(stage, [stage]) for stage in ("synthesize", "degrade", "sample", "evaluate")]
# dropped_variance is left out of verify: it fails on about 1% of seeds
# (see README.md).  The filter "tion" selects the other two checks,
# residual_decomposition_bound and variance_compensation.
TUNE_PIPELINE = PIPELINE + [("tune-gamma", ["tune-gamma"]),
                            ("verify", ["verify", "--filter", "tion"])]
GAMMA_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)

_GAUSSIAN = {"generator": "gaussian_prior", "length_scale": 3.0, "variance": 0.05,
             "mean_level": 0.5}

WORKLOADS = {
    # Dense per-level conditioning (2n x 2n inverse) dominates sampling;
    # two workers build every gain twice.
    "gauss_deblur_32": {
        "experiment": {"task": "deblur", "workers": 2},
        "dataset": dict(_GAUSSIAN, count=16, height=32, width=32),
        "operator": {"sigma": 3.0, "sigma_y": 0.05},
        "sampler": {"variant": "inverse_addim", "steps": 4, "gamma": 1.0},
        "metrics": {"feature_mode": "raw_pixels", "subset_size": 8, "n_subsets": 8},
        "stages": PIPELINE,
    },
    # Spectral transforms of the DDRM update dominate; no dense matrix.
    # 8 images keep a round near 3 s, so a run has a dozen rounds.
    "ddrm_atoms_64": {
        "experiment": {"task": "deblur", "workers": 1},
        "dataset": {"generator": "atoms", "atom_count": 8, "count": 8,
                    "height": 64, "width": 64},
        "operator": {"sigma": 3.0, "sigma_y": 0.05},
        "sampler": {"variant": "ddrm", "steps": 4},
        "metrics": {"feature_mode": "pooled_patches", "pool": 2, "subset_size": 4,
                    "n_subsets": 8},
        "stages": PIPELINE,
    },
    # Thousands of small calls: per-image trajectories, per-row matvecs,
    # small tensor files, and a gain rebuild for every tune candidate.
    "tune_inpaint_16": {
        "experiment": {"task": "inpaint", "workers": 1},
        "dataset": dict(_GAUSSIAN, count=320, height=16, width=16),
        "operator": {"sigma_y": 0.05},
        "sampler": {"variant": "inverse_addim", "steps": 4, "gamma": 1.0},
        "metrics": {"feature_mode": "raw_pixels", "subset_size": 32, "n_subsets": 8},
        "tune": {"gamma_grid": ", ".join(f"{g:g}" for g in GAMMA_GRID)},
        "stages": TUNE_PIPELINE,
    },
}

END_TO_END = {
    "setup_s": "s", "sample_s": "s", "evaluate_s": "s", "run_s": "s",
    "images_per_s": "images/s", "cpu_s": "s", "peak_rss_mb": "MB",
}
# Output files of each stage, relative to the output directory.
STAGE_OUTPUTS = {
    "synthesize": ("dataset/",),
    "degrade": ("degraded/",),
    "sample": ("recon/",),
    "evaluate": ("reports/evaluate.",),
    "tune-gamma": ("tune/", "reports/tune"),
    "verify": ("reports/verify.",),
}


def write_config(path, spec, seed, output_dir):
    """Write a workload's INI config with the given seed and output directory."""
    lines = []
    for section in ("experiment", "dataset", "operator", "sampler", "metrics", "tune"):
        values = dict(spec.get(section, {}))
        if section == "experiment":
            values.update(seed=seed, output_dir=output_dir)
        if values:
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def stage_digests(out_dir, stages):
    """SHA-256 over the bytes of each stage's output files."""
    files = []
    for base, _, names in os.walk(out_dir):
        files.extend(os.path.relpath(os.path.join(base, n), out_dir) for n in names)
    digests = {}
    for stage in stages:
        h = hashlib.sha256()
        for rel in sorted(files):
            if rel.startswith(STAGE_OUTPUTS[stage]):
                h.update(rel.encode() + b"\0")
                with open(os.path.join(out_dir, rel), "rb") as fh:
                    h.update(fh.read())
        digests[stage] = h.hexdigest()
    return digests


def environment(workload, backend):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they report
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "kernel_backend": backend,
        "workers": WORKLOADS[workload]["experiment"]["workers"],
    }


class Round:
    """One fresh process running every stage of the workload."""

    def __init__(self, index, traced, work, config, stages):
        self.index, self.traced, self.stages = index, traced, stages
        self.out = os.path.join(work, "out")
        self.trace_path = os.path.join(work, "trace", f"round_{index}.jsonl")
        self.spec = {
            "config": config,
            "stages": stages,
            "trace": traced,
            "trace_path": self.trace_path,
            "result_path": os.path.join(work, "rounds", f"round_{index}.json"),
        }
        self.spec_path = os.path.join(work, "rounds", f"round_{index}.spec.json")
        self.log_path = os.path.join(work, "rounds", f"round_{index}.log")
        self.result = self.metrics = None

    def run(self, timeout):
        shutil.rmtree(self.out, ignore_errors=True)
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(self.spec, fh)
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(self.log_path, "w", encoding="utf-8") as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), self.spec_path],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode == 0 and os.path.isfile(self.spec["result_path"]):
            with open(self.spec["result_path"], encoding="utf-8") as fh:
                self.result = json.load(fh)
            self.metrics = self._metrics(spawned)
        return self

    def stage_rc(self):
        if self.result is None:
            return {name: None for name, _ in self.stages}
        return {s["name"]: s["rc"] for s in self.result["stages"]}

    def _metrics(self, spawned):
        stages = {s["name"]: s for s in self.result["stages"]}
        setup_end = stages["degrade"]["end"]
        last = self.result["stages"][-1]
        run_s = last["end"] - setup_end
        images = 0
        for manifest in ["recon/sample.jsonl"] + [
            f"tune/gamma_{g:g}/sample.jsonl" for g in GAMMA_GRID
        ]:
            path = os.path.join(self.out, manifest)
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    images += sum(1 for line in fh if line.strip())
        return {
            "setup_s": setup_end - spawned,
            "sample_s": stages["sample"]["end"] - stages["sample"]["start"],
            "evaluate_s": stages["evaluate"]["end"] - stages["evaluate"]["start"],
            "run_s": run_s,
            "images_per_s": images / run_s,
            "cpu_s": last["cpu_s"] - stages["degrade"]["cpu_s"],
            "peak_rss_mb": self.result["max_rss_kb"] / 1024.0,
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cminverse", "cli.py")):
        print(f"error: no cminverse sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    import checks
    import spans

    started = time.perf_counter()
    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("rounds", "trace"):
        os.makedirs(os.path.join(work, sub))
    config = os.path.join(work, "config.ini")
    write_config(config, WORKLOADS[args.workload], args.seed, os.path.join(work, "out"))
    for directory in (os.path.join(SRC, "cminverse"), HERE):
        compileall.compile_dir(directory, quiet=1)
    stages = WORKLOADS[args.workload]["stages"]
    reference = checks.WorkloadReference(WORKLOADS[args.workload], GAMMA_GRID)

    rounds, first_digests, first_checks = [], None, None
    attempted = failed = 0
    correct = True
    check_log = []
    round_walls = []
    while True:
        elapsed = time.perf_counter() - started
        if rounds:
            # Start a round only if it should end within the measuring
            # time; a traced run needs one round of each kind.
            typical, longest = statistics.median(round_walls), max(round_walls)
            kinds_done = not args.trace or {r.traced for r in rounds} == {False, True}
            if kinds_done and elapsed + typical > args.seconds:
                break
            if elapsed + 1.5 * longest > CHILD_DEADLINE_S:
                break
        round_start = time.perf_counter()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rnd = Round(len(rounds), traced, work, config, stages)
        rnd.run(timeout=max(10.0, CHILD_DEADLINE_S - elapsed))
        rounds.append(rnd)

        rc = rnd.stage_rc()
        digests = stage_digests(rnd.out, [name for name, _ in stages])
        if first_checks is None:
            first_digests = digests
            first_checks = reference.check_round(rnd.out)
        for name, _ in stages:
            attempted += 1
            if rc[name] != 0:
                failed += 1
                check_log.append(f"round {rnd.index} {name}: exit code {rc[name]}")
                continue
            verdicts = list(first_checks.get(name, []))
            if digests[name] != first_digests[name]:
                verdicts.append(checks.Check(
                    "reproducible", False, "outputs differ from the first round"))
            bad = [c for c in verdicts if not c.passed]
            if bad:
                failed += 1
                correct = False
                check_log.extend(f"round {rnd.index} {name}: {c.name} failed: {c.detail}"
                                 for c in bad)
        round_walls.append(time.perf_counter() - round_start)

    timed = [r for r in rounds if not r.traced and r.metrics is not None]
    e2e = {key: statistics.median(r.metrics[key] for r in timed) for key in END_TO_END} \
        if timed else {}
    backend = next((r.result["kernel_backend"] for r in rounds if r.result), "unknown")
    env = environment(args.workload, backend)

    report = {"workload": args.workload, "seed": args.seed, "environment": env,
              "rounds": len(rounds), "digests": first_digests,
              "checks": {stage: [c.__dict__ for c in cs] for stage, cs in first_checks.items()},
              "failures": check_log, "end_to_end": e2e,
              "per_round": [dict(r.metrics or {}, traced=r.traced) for r in rounds]}
    if args.trace:
        traced = [r for r in rounds if r.traced and r.metrics is not None]
        layer_rows = []
        for rnd in traced:
            layer, sums = spans.summarise(spans.read_spans(rnd.trace_path))
            layer_rows.append(layer)
            if env["workers"] == 1:
                for stage, (total, wall) in sums.items():
                    if abs(total - wall) > 1e-6 + 1e-9 * wall:
                        correct = False
                        check_log.append(f"round {rnd.index} {stage}: layer times sum to "
                                         f"{total} s, stage took {wall} s")
        per_layer = {key: statistics.median(row[key] for row in layer_rows)
                     for key in layer_rows[0]} if layer_rows else {}
        if per_layer and timed:
            per_layer["trace.overhead_s"] = (
                statistics.median(r.metrics["run_s"] for r in traced) - e2e["run_s"]
            )
        report["per_layer"] = per_layer
        metrics = {key: {"value": value, "unit": spans.unit_of(key)}
                   for key, value in per_layer.items()}
    else:
        metrics = {key: {"value": value, "unit": END_TO_END[key]} for key, value in e2e.items()}

    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for line in check_log:
        print(line, file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for key, entry in metrics.items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
