"""Names other code reaches by string: the package's ``__all__`` and the
library names that perfbench's ``--trace 1`` tracer rebinds.

The tracer ``getattr``s each ``(module, name)`` of ``perfbench/spans.py``
``BINDINGS``, so deleting or renaming one of those names breaks traced
benchmark runs without failing any library test; this file makes it fail
here.  ``spans.py`` is loaded by file path and only read.
"""

import importlib
import importlib.util
import os

import bbmlab

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


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


def test_all_names_resolve():
    missing = [name for name in bbmlab.__all__ if not hasattr(bbmlab, name)]
    assert missing == []
