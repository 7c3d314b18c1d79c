"""The benchmark tracer (perfbench/spans.py) wraps library functions by
module attribute.  A refactor that drops one of those bindings breaks
traced benchmark runs; installing and uninstalling the tracer here makes
that a unit-test failure instead."""

import importlib.util
from pathlib import Path

from hill_octant.potential import Potential

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_binding_and_restores_it():
    spans = _load_spans()
    bindings = [(mod, attr) for attr, mods in spans._TARGETS.values() for mod in mods]
    missing = [f"{mod.__name__}.{attr}" for mod, attr in bindings if not hasattr(mod, attr)]
    assert not missing
    originals = [getattr(mod, attr) for mod, attr in bindings]
    evaluate = Potential.evaluate

    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in zip(bindings, originals):
            assert getattr(mod, attr).__wrapped__ is fn, f"{mod.__name__}.{attr}"
        assert Potential.evaluate is not evaluate
    finally:
        tracer.uninstall()

    for (mod, attr), fn in zip(bindings, originals):
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} not restored"
    assert Potential.evaluate is evaluate
