"""Package hygiene: every exported name exists, the package runs on numpy
alone, and importing the CLI stays cheap."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import qmatch

from helpers import src_env


def test_qmatch_is_imported_from_this_checkout():
    # pyproject's pytest pythonpath puts src/ first, so a bare pytest run
    # tests this tree even where another qmatch is installed
    here = Path(__file__).resolve().parent.parent / "src" / "qmatch"
    assert Path(qmatch.__file__).resolve().parent == here


def test_every_all_entry_resolves():
    names = ["qmatch"] + [f"qmatch.{m.name}"
                          for m in pkgutil.iter_modules(qmatch.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [a for a in module.__all__ if not hasattr(module, a)]
        assert missing == [], f"{name}.__all__ names missing {missing}"
        exec(f"from {name} import *", {})


def _run_fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this qmatch."""
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          check=True, capture_output=True, text=True,
                          timeout=60)
    return proc.stdout.strip()


def test_cli_import_leaves_the_process_pool_unloaded():
    # compare imports its pool when it runs, so other commands start faster
    code = ("import sys, qmatch.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    assert _run_fresh(code) == "[]"


def test_every_module_imports_without_scipy_or_mpmath():
    # they are test-only oracles; a None entry makes any import of them fail
    code = ("import sys; sys.modules['scipy'] = sys.modules['mpmath'] = None\n"
            "import importlib, pkgutil, qmatch\n"
            "for m in pkgutil.iter_modules(qmatch.__path__):\n"
            "    importlib.import_module(f'qmatch.{m.name}')\n"
            "print(sorted(m.name for m in pkgutil.iter_modules(qmatch.__path__)))")
    assert _run_fresh(code) == str(sorted(
        m.name for m in pkgutil.iter_modules(qmatch.__path__)))
