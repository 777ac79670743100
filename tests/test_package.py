"""Package hygiene: every exported name exists."""

import importlib
import pkgutil

import qmatch


def test_every_all_entry_resolves():
    names = ["qmatch"] + [f"qmatch.{m.name}"
                          for m in pkgutil.iter_modules(qmatch.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [a for a in module.__all__ if not hasattr(module, a)]
        assert missing == [], f"{name}.__all__ names missing {missing}"
        exec(f"from {name} import *", {})
