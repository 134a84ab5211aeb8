"""Names that other code reaches by string: the package's ``__all__`` and
the benchmark tracer's targets.  Deleting one of them fails here, not
only in the benchmark run."""

import importlib
import importlib.util
import os

import regpart

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("_regpart_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_imports():
    missing = [name for name in regpart.__all__
               if not hasattr(regpart, name)]
    assert missing == []


def test_tracer_targets_resolve_to_callables():
    targets = _load_spans().TARGETS
    assert targets
    for mod_name, path in targets:
        owner = importlib.import_module("regpart." + mod_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, path)
