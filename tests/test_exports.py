import importlib

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
