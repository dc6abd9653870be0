"""Names other code reaches by string: the package's ``__all__`` and the
library names that perfbench's ``--trace 1`` tracer rebinds; plus what an
import costs and the version string it reports.

The tracer ``getattr``s each ``(module, name)`` of ``perfbench/spans.py``
``BINDINGS``, so deleting or renaming one of those names breaks traced
benchmark runs without failing any library test; this file makes it fail
here.  ``spans.py`` is loaded by file path and only read.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import tomllib

import bbmlab

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SPANS = os.path.join(ROOT, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve():
    spans = load_spans()
    targets = [(mod, name) for mod, name, *_ in spans.BINDINGS]
    targets.append(("bbmlab.experiments", "OffspringDistribution"))
    missing = [(mod, name) for mod, name in targets
               if not hasattr(importlib.import_module(mod), name)]
    assert missing == []


def test_unused_imports_are_tracer_bindings():
    # a from-import marked unused is kept only because the tracer rebinds
    # it in that module; once BINDINGS no longer name it, it must go.  A
    # plain import marked so (numpy.random, for the pool workers) loads a
    # module and re-exports nothing
    spans = load_spans()
    bound = {(mod, name) for mod, name, *_ in spans.BINDINGS}
    src = os.path.join(ROOT, "src", "bbmlab")
    kept = []
    for filename in sorted(os.listdir(src)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(src, filename), encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        module = "bbmlab." + filename[:-3]
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.ImportFrom)
                    and "# noqa: F401" in lines[node.end_lineno - 1]):
                kept += [(module, alias.asname or alias.name)
                         for alias in node.names]
    assert kept
    assert [target for target in kept if target not in bound] == []


def test_all_names_resolve():
    missing = [name for name in bbmlab.__all__ if not hasattr(bbmlab, name)]
    assert missing == []


def test_version_matches_pyproject():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        assert bbmlab.__version__ == tomllib.load(fh)["project"]["version"]


def test_import_leaves_scipy_optimize_unloaded():
    # every pool worker imports bbmlab.experiments; only the Cox fit
    # needs scipy.optimize, whose import costs far more than the package
    code = ("import sys, bbmlab.experiments; "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
