import importlib
import importlib.util
from pathlib import Path

MODULES = ("scalarfn", "seqspace", "youngmap", "twisted", "renorm",
           "sampling", "cli")


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks import *
    missing = {}
    for name in MODULES:
        mod = importlib.import_module(f"twistnorm.{name}")
        gone = [n for n in mod.__all__ if not hasattr(mod, n)]
        if gone:
            missing[name] = gone
    assert missing == {}
    for name in ("twistnorm",) + tuple(f"twistnorm.{m}" for m in MODULES):
        exec(f"from {name} import *", {})


def load_spans():
    """The benchmark's span recorder, loaded by path (standard library)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # the traced benchmark wraps these by name; a rename must fail here
    spans = load_spans()
    missing = [f"{mod}.{attr}" for mod, attr, *_ in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(
                   f"twistnorm.{mod}"), attr, None))]
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr, *_ in spans.METHODS
                if not callable(getattr(getattr(importlib.import_module(
                    f"twistnorm.{mod}"), cls, None), attr, None))]
    assert spans.FUNCTIONS and spans.METHODS
    assert missing == []
