import ast
import json
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


def _private_definitions_never_read(package):
    """module.name of every private module-level function and class in the
    package's modules that no statement outside its own definition reads,
    by name, as an attribute or through an import."""
    trees = {}
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as fh:
                trees[filename[:-3]] = ast.parse(fh.read())
    statements = [node for tree in trees.values() for node in tree.body]
    reads = {}  # name -> the top-level statements that read it
    for statement in statements:
        for node in ast.walk(statement):
            names = ([node.id] if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            for name in names:
                reads.setdefault(name, set()).add(id(statement))
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            and not node.name.endswith("__") and not reads.get(node.name, set()) - {id(node)}]


def test_every_private_definition_is_read():
    # a helper that a deletion leaves behind with no caller fails here
    assert _private_definitions_never_read(os.path.join(ROOT, "src", "cminverse")) == []


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


def _traced_build(tmp_path, setup):
    """The factorisations counted at their source, as [routine, shape] for
    each eigh, cholesky and inv, and the number of perfbench priors.linalg
    spans, of one closure build under an RBF prior for the operator ``op``
    that the source lines ``setup`` bind."""
    script = (
        "import json\n"
        "import sys\n"
        f"sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r})\n"
        "import numpy\n"
        "calls = []\n"
        "def counting(name):\n"
        "    real = getattr(numpy.linalg, name)\n"
        "    def call(a, *args, **kwargs):\n"
        "        calls.append([name, list(a.shape)])\n"
        "        return real(a, *args, **kwargs)\n"
        "    return call\n"
        "for name in ('eigh', 'cholesky', 'inv'):\n"
        "    setattr(numpy.linalg, name, counting(name))\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "spans.instrument(tracer)\n"
        "import numpy as np\n"
        "from cminverse.operators import InpaintOperator, make_gaussian_blur\n"
        "from cminverse.priors import rbf_prior\n"
        f"{setup}\n"
        "prior = rbf_prior(op.signal_shape, 3.0, 0.05, 0.5)\n"
        "before = len(calls)\n"
        "build = tracer.begin('build')\n"
        "prior.measurement_consistency(op, 0.05)\n"
        "tracer.end(build)\n"
        f"tracer.write({str(tmp_path / 'spans.jsonl')!r})\n"
        f"spans_ = spans.read_spans({str(tmp_path / 'spans.jsonl')!r})\n"
        "linalg = [s for s in spans_ if s[spans.NAME] == 'priors.linalg' and s[spans.START] >= build[spans.START]]\n"
        "print(json.dumps([calls[before:], len(linalg)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_benchmark_trace_sees_every_factorisation(tmp_path):
    # perfbench/spans.py times the gain builds by swapping priors' numpy for
    # a proxy whose linalg routines open spans; a factorisation reached
    # another way (say, imported by name) would run untimed.  Count every
    # one at its source and compare with the spans of a 16 x 16 blur
    # closure's build on the square's D4 route: per block a Cholesky factor
    # of the gram, then its inverse's leaves (two for eo's 64 x 64), then an
    # eigh of Sigma_y
    calls, spans = _traced_build(tmp_path, "op = make_gaussian_blur(1, 16, 16, 1.5)")
    sides = (36, 28, 64, 36, 28)
    leaves = [[side, side] for side in (36, 28, 32, 32, 36, 28)]
    assert calls == ([["cholesky", [m, m]] for m in sides] + [["inv", leaf] for leaf in leaves]
                     + [["eigh", [n, n]] for n in sides])
    assert spans == len(calls) == 16


def test_benchmark_trace_sees_the_identity_split_factorisations(tmp_path):
    # a 16 x 16 mask off the centre lines conditions through the identity
    # split: one gram of the 226 kept pixels, its Cholesky factor inverted
    # in eight leaves, and one Sigma_y of all 256
    calls, spans = _traced_build(tmp_path, "mask = np.ones((16, 16), bool)\n"
                                           "mask[3:8, 4:10] = False\n"
                                           "op = InpaintOperator(1, 16, 16, mask)")
    leaves = [["inv", [side, side]] for side in (28, 28, 28, 29) * 2]
    assert calls == [["cholesky", [226, 226]]] + leaves + [["eigh", [256, 256]]]
    assert spans == len(calls)
