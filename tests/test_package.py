"""Package hygiene: every exported name exists, and importing the CLI
stays cheap."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import qmatch


def test_every_all_entry_resolves():
    names = ["qmatch"] + [f"qmatch.{m.name}"
                          for m in pkgutil.iter_modules(qmatch.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [a for a in module.__all__ if not hasattr(module, a)]
        assert missing == [], f"{name}.__all__ names missing {missing}"
        exec(f"from {name} import *", {})


def test_cli_import_leaves_the_process_pool_unloaded():
    # compare imports its pool when it runs, so other commands start faster
    code = ("import sys, qmatch.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    src = str(Path(qmatch.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "[]"
