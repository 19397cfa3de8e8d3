"""In-memory span recorder and the wrappers that feed it.

``instrument`` patches the public entry points through which the
pipeline calls each layer, so spans come from the benchmark's files
alone and the program is not edited.  A span records its name, start,
end, parent and thread; spans stay in memory until ``write`` dumps them
after the last stage.

Each thread keeps its own stack of open spans.  A span opened on a
thread with an empty stack (a worker of the harness thread pool) takes
the current stage span as its parent, so the spans of every worker nest
under the stage that started it.
"""

import functools
import json
import os
import threading
import time
import types

# Fields of a span record.
ID, NAME, START, END, PARENT, THREAD, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans = []
        self.stage_span = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, attrs=None):
        stack = self._stack()
        parent = stack[-1][ID] if stack else self.stage_span
        with self._lock:
            span = [len(self._spans), name, 0.0, 0.0, parent,
                    threading.get_ident(), attrs]
            self._spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span):
        span[END] = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span[NAME]} closed out of order")
        stack.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self._spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _wrap(tracer, fn, name, attrs_of=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name, attrs_of(args, kwargs) if attrs_of else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(span, args, result)
        return result

    return wrapper


def _patch(tracer, owner, attr, name, **kw):
    setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, **kw))


def _record_size(span, args, result):
    """Attach the file size of a tensor or JSONL read/write to its span."""
    path = args[0]
    try:
        span[ATTRS] = {"bytes": os.path.getsize(path)}
    except OSError:
        pass


def _linalg_proxy(tracer, numpy):
    """A stand-in for ``numpy`` whose ``linalg`` routines open spans.

    Only the priors module sees it, so the spans cover the inverses,
    solves and factorisations that build its conditioning gains.
    """
    linalg = types.ModuleType("numpy.linalg")
    linalg.__dict__.update(numpy.linalg.__dict__)
    for attr in ("inv", "pinv", "solve", "lstsq", "cholesky", "qr", "eigh", "eig", "svd"):
        setattr(linalg, attr, _wrap(tracer, getattr(numpy.linalg, attr), "priors.linalg"))
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(numpy.__dict__)
    proxy.linalg = linalg
    return proxy


def _traced_factory(tracer, factory):
    """Wrap a consistency-function factory so that its closures are traced."""

    @functools.wraps(factory)
    def make(*args, **kwargs):
        span = tracer.begin("priors.make_consistency")
        try:
            fn = factory(*args, **kwargs)
        finally:
            tracer.end(span)
        return _wrap(tracer, fn, "priors.consistency",
                     attrs_of=lambda a, k: {"t": float(a[2] if len(a) > 2 else k["t"])})

    return make


def instrument(tracer):
    """Patch every layer entry point the pipeline calls through."""
    import numpy
    from cminverse import cli, harness, kernels, metrics, operators, priors, verification

    _patch(tracer, cli, "load_config", "config.load")

    _patch(tracer, harness, "build_operator", "operators.build")
    for cls in (operators.LinearOperator, operators.NonlinearOperator):
        _patch(tracer, cls, "apply", "operators.apply")
    for attr in ("to_spectral", "from_spectral", "measurement_to_spectral"):
        _patch(tracer, operators.LinearOperator, attr, "operators.spectral")

    priors.np = _linalg_proxy(tracer, numpy)
    _patch(tracer, harness, "load_prior", "priors.load_prior")
    _patch(tracer, harness, "rbf_covariance", "priors.covariance")
    for cls in (priors.GaussianPrior, priors.EmpiricalPrior):
        _patch(tracer, cls, "sample", "priors.prior_sample")
        cls.consistency = _traced_factory(tracer, cls.consistency)
    priors.GaussianPrior.measurement_consistency = _traced_factory(
        tracer, priors.GaussianPrior.measurement_consistency
    )

    _patch(tracer, harness, "run_sampler", "samplers.sample")
    _patch(tracer, verification, "sample", "samplers.sample")

    for attr in ("ddrm_update", "empirical_mean", "ssim_mean"):
        _patch(tracer, kernels, attr, f"kernels.{attr}")

    for attr, name in (("psnr", "psnr"), ("ssim", "ssim"), ("feature_extract", "features"),
                       ("kid", "kid"), ("frechet_from_features", "fid")):
        _patch(tracer, metrics, attr, f"metrics.{name}")

    for attr in ("read_tensor", "read_jsonl"):
        _patch(tracer, harness, attr, "tensorio.read", after=_record_size)
    for attr in ("write_tensor", "write_jsonl", "write_text"):
        _patch(tracer, harness, attr, "tensorio.write", after=_record_size)

    for attr, name in (("residual_bound_check", "residual_bound"),
                       ("variance_compensation_check", "variance_compensation")):
        _patch(tracer, harness, attr, f"verification.{name}")


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------

# Spans whose whole duration, children included, is charged to them.
_OPAQUE = "verification."


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = {}
    for span in spans:
        lo, hi = span[START], span[END]
        covered, run_start, run_end = 0.0, None, None
        for a, b in sorted(children.get(span[ID], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        result[span[ID]] = (hi - lo) - covered
    return result


def _charged_span(spans_by_id, span):
    """The outermost verification span enclosing this one, else itself."""
    charged = span
    parent = span[PARENT]
    while parent is not None:
        up = spans_by_id[parent]
        if up[NAME].startswith(_OPAQUE):
            charged = up
        parent = up[PARENT]
    return charged


def summarise(spans):
    """Per-layer counts and times of one traced round.

    Times ending in ``_s`` are self times: a layer's span duration minus
    the part its child spans cover, so that the layers of one stage add
    up to the stage's wall time.  Verification checks are charged whole,
    including the samplers and priors they run.  ``harness.<stage>_s`` is
    a stage's traced wall time.

    Returns (metrics, per-stage layer sums) where the latter maps a stage
    name to (sum of layer times, stage wall time).
    """
    by_id = {span[ID]: span for span in spans}
    own = self_times(spans)
    # A consistency call that runs a solve or inverse builds a gain.
    built = {
        span[PARENT] for span in spans
        if span[NAME] == "priors.linalg" and span[PARENT] is not None
        and by_id[span[PARENT]][NAME] == "priors.consistency"
    }
    calls, times, levels = {}, {}, set()
    io = {"tensorio.read": [0, 0], "tensorio.write": [0, 0]}
    stage_sum, stage_wall = {}, {}

    for span in spans:
        if _charged_span(by_id, span) is not span:
            continue  # inside a verification check: charged to the check
        name = span[NAME]
        if name.startswith(_OPAQUE):
            value = span[END] - span[START]
        else:
            value = own[span[ID]]
        key = name
        if name == "stage":
            stage_wall[span[ATTRS]["stage"]] = span[END] - span[START]
            key = "harness.self"
        elif name == "priors.linalg" or span[ID] in built:
            key = "priors.gain_build"
            if span[ID] in built:
                levels.add(span[ATTRS]["t"])
        if name != "priors.linalg":
            calls[key] = calls.get(key, 0) + 1
        times[key] = times.get(key, 0.0) + value
        if name in io:
            io[name][0] += 1
            io[name][1] += (span[ATTRS] or {}).get("bytes", 0)
        node = span
        while node is not None and node[NAME] != "stage":
            node = by_id.get(node[PARENT])
        if node is not None:
            stage = node[ATTRS]["stage"]
            stage_sum[stage] = stage_sum.get(stage, 0.0) + value

    def t(key):
        return times.get(key, 0.0)

    def c(key):
        return calls.get(key, 0)

    trajectories = c("samplers.sample")
    builds = c("priors.gain_build")
    metrics = {
        "priors.gain_builds": builds,
        "priors.gain_builds_per_level": builds / len(levels) if levels else 0.0,
        "priors.gain_build_s": t("priors.gain_build"),
        "priors.consistency_calls": c("priors.consistency") + builds,
        "priors.consistency_s": t("priors.consistency"),
        "priors.make_consistency_s": t("priors.make_consistency"),
        "priors.load_prior_s": t("priors.load_prior"),
        "priors.prior_sample_s": t("priors.prior_sample"),
        "priors.covariance_s": t("priors.covariance"),
        "operators.build_s": t("operators.build"),
        "operators.apply_calls": c("operators.apply"),
        "operators.apply_s": t("operators.apply"),
        "operators.apply_per_trajectory": (
            c("operators.apply") / trajectories if trajectories else 0.0
        ),
        "operators.spectral_calls": c("operators.spectral"),
        "operators.spectral_s": t("operators.spectral"),
        "samplers.trajectories": trajectories,
        "samplers.self_s": t("samplers.sample"),
        "tensorio.files_read": io["tensorio.read"][0],
        "tensorio.bytes_read": io["tensorio.read"][1],
        "tensorio.read_s": t("tensorio.read"),
        "tensorio.files_written": io["tensorio.write"][0],
        "tensorio.bytes_written": io["tensorio.write"][1],
        "tensorio.write_s": t("tensorio.write"),
        "config.load_s": t("config.load"),
        "cli.import_s": t("cli.import"),
        "harness.self_s": t("harness.self"),
    }
    for kernel in ("ddrm_update", "empirical_mean", "ssim_mean"):
        metrics[f"kernels.{kernel}_calls"] = c(f"kernels.{kernel}")
        metrics[f"kernels.{kernel}_s"] = t(f"kernels.{kernel}")
    for metric in ("psnr", "ssim", "features", "kid", "fid"):
        metrics[f"metrics.{metric}_s"] = t(f"metrics.{metric}")
    for check in ("residual_bound", "variance_compensation"):
        metrics[f"verification.{check}_s"] = t(f"verification.{check}")
    for stage in ("synthesize", "degrade", "sample", "evaluate", "tune-gamma", "verify"):
        metrics[f"harness.{stage.replace('-', '_')}_s"] = stage_wall.get(stage, 0.0)
    return metrics, {stage: (stage_sum[stage], stage_wall[stage]) for stage in stage_wall}


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_read") or metric.endswith("bytes_written"):
        return "bytes"
    if metric.endswith("_per_level") or metric.endswith("_per_trajectory"):
        return "ratio"
    return "count"
