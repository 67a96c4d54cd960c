"""Every name a module lists in ``__all__`` must resolve, and importing stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import birthdeath

# The directory that holds the package, for a fresh interpreter's path.
SRC = os.path.dirname(os.path.dirname(birthdeath.__file__))

MODULES = ["birthdeath"] + [
    f"birthdeath.{info.name}" for info in pkgutil.iter_modules(birthdeath.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_import_starts_no_process_pool_machinery():
    # Replicas run in one process, so importing the package and its CLI
    # must not load the standard library's pool modules.
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import birthdeath, birthdeath.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
