"""One benchmark round: run the pipeline stages in this fresh process.

Usage: python3 child.py <round-spec.json>

The spec names the config, the stages (each a name and its
``cminverse.cli.main`` arguments), whether to trace, and where to write
the round's timings and spans.  BLAS thread counts come from the
environment the parent sets before this process imports numpy.
"""

import json
import resource
import sys
import time
import traceback


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        import_span = tracer.begin("cli.import")
    from cminverse import cli, kernels

    if tracer is not None:
        tracer.end(import_span)
        spans.instrument(tracer)

    stages = []
    for name, argv in spec["stages"]:
        stage_span = None
        if tracer is not None:
            stage_span = tracer.begin("stage", {"stage": name})
            tracer.stage_span = stage_span[spans.ID]
        t0 = time.perf_counter()
        error = None
        try:
            rc = cli.main(["--config", spec["config"]] + argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a failed round
            rc, error = 99, traceback.format_exc()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(stage_span)
            tracer.stage_span = None
        sys.stdout.flush()
        stages.append({"name": name, "start": t0, "end": t1, "rc": rc,
                       "cpu_s": _cpu_s(), "error": error})

    if tracer is not None:
        tracer.write(spec["trace_path"])
    result = {
        "stages": stages,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kernel_backend": kernels.backend_name(),
    }
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
