"""Every function the benchmark's tracer wraps must exist under its name.

`perfbench/tracer.py` wraps hclab functions from outside, by module and
qualified name, and refuses to run when one is missing.  Checking the
same lookups here makes a rename fail the test suite, not only a traced
benchmark run.  The tracer module is loaded from its file and nothing is
installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

TARGETS = [(modname, qualname) for _, modname, qualname in tracer.SPANS] + [
    (modname, f"{cls}.{method}")
    for _, modname, cls, methods in tracer.PROVIDERS for method in methods]


@pytest.mark.parametrize("modname, qualname", TARGETS,
                         ids=[f"{m}.{q}" for m, q in TARGETS])
def test_trace_target_resolves(modname, qualname):
    module = importlib.import_module(modname)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        # the tracer wraps a method on the class that defines it
        owner = getattr(module, owner_name, None)
        assert isinstance(owner, type), f"{modname}.{owner_name} is not a class"
        assert attr in vars(owner), f"{modname}.{qualname} is not defined"
        return
    target = getattr(module, attr, None)
    assert target is not None, f"{modname}.{attr} not found"
    if isinstance(target, type):
        # a constructor is timed through the class's own __init__
        assert "__init__" in vars(target), f"{modname}.{attr} has no __init__"
    else:
        assert callable(target)
