import os
import subprocess
import sys

import cminverse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_exported_name_resolves():
    missing = [name for name in cminverse.__all__ if not hasattr(cminverse, name)]
    assert missing == []
    assert len(set(cminverse.__all__)) == len(cminverse.__all__)


def test_benchmark_hooks_resolve():
    # perfbench/spans.py patches the program's entry points by name; run its
    # instrument() as perfbench/child.py does, so that a dropped or renamed
    # entry point fails here and not only in a benchmark run
    script = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r})\n"
        "import spans\n"
        "from cminverse import kernels\n"
        "spans.instrument(spans.Tracer())\n"
        "print(kernels.backend_name())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
