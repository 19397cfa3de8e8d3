import ast
import os
import subprocess
import sys

import cminverse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Names a module imports without using them, each kept for the reason given.
KEPT_IMPORTS = {
    ("harness", "rbf_covariance"): "perfbench/spans.py patches harness.rbf_covariance by name",
}


def test_every_exported_name_resolves():
    missing = [name for name in cminverse.__all__ if not hasattr(cminverse, name)]
    assert missing == []
    assert len(set(cminverse.__all__)) == len(cminverse.__all__)


def _unused_imports(path):
    """Names that the module at path imports and never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    package = os.path.join(ROOT, "src", "cminverse")
    unused = [
        f"{filename[:-3]}.{name}"
        for filename in sorted(os.listdir(package))
        if filename.endswith(".py") and filename != "__init__.py"
        for name in _unused_imports(os.path.join(package, filename))
        if (filename[:-3], name) not in KEPT_IMPORTS
    ]
    assert unused == []


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


def test_benchmark_trace_sees_every_factorisation(tmp_path):
    # perfbench/spans.py times the gain builds by swapping priors' numpy for
    # a proxy whose linalg routines open spans; an eigh reached another way
    # (say, imported by name) would run untimed.  Count every eigh at its
    # source and compare with the spans of a 16 x 16 blur closure's build,
    # ten on the square's D4 route
    script = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r})\n"
        "import numpy\n"
        "calls = []\n"
        "eigh = numpy.linalg.eigh\n"
        "def counting_eigh(*args, **kwargs):\n"
        "    calls.append(1)\n"
        "    return eigh(*args, **kwargs)\n"
        "numpy.linalg.eigh = counting_eigh\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "spans.instrument(tracer)\n"
        "from cminverse.operators import make_gaussian_blur\n"
        "from cminverse.priors import rbf_prior\n"
        "op = make_gaussian_blur(1, 16, 16, 1.5)\n"
        "prior = rbf_prior(op.signal_shape, 3.0, 0.05, 0.5)\n"
        "before = len(calls)\n"
        "build = tracer.begin('build')\n"
        "prior.measurement_consistency(op, 0.05)\n"
        "tracer.end(build)\n"
        f"tracer.write({str(tmp_path / 'spans.jsonl')!r})\n"
        f"spans_ = spans.read_spans({str(tmp_path / 'spans.jsonl')!r})\n"
        "linalg = [s for s in spans_ if s[spans.NAME] == 'priors.linalg' and s[spans.START] >= build[spans.START]]\n"
        "print(len(calls) - before, len(linalg))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["10", "10"]
