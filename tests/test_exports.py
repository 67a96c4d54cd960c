"""Every name a module lists in ``__all__`` must resolve, importing stays light, and each rule lives once.

The dimension rule's property test must draw every kind of target piece the package defines.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import birthdeath
from birthdeath import LayerSet, Shape, TargetPiece
from conftest import TARGET_KINDS

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


SUBMODULES = ["chain", "configurations", "lab", "measure", "paths", "rates"]


def test_package_api_is_the_union_of_the_module_lists():
    lists = [importlib.import_module(f"birthdeath.{name}").__all__ for name in SUBMODULES]
    assert birthdeath.__all__ == sorted({name for names in lists for name in names})


def test_no_name_is_exported_by_two_modules():
    owners = {}
    for module in SUBMODULES:
        for name in importlib.import_module(f"birthdeath.{module}").__all__:
            owners.setdefault(name, []).append(module)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def _nodes_outside_chain():
    """Every AST node of every package module but ``chain.py``, with its module's file name."""
    package = os.path.dirname(birthdeath.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "chain.py":
            with open(os.path.join(package, name)) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                yield name, node


def test_only_chain_builds_seed_sequences():
    # Every stream comes from chain._replica_seed, the one derivation rule.
    callers = [
        f"{name}:{node.lineno}" for name, node in _nodes_outside_chain()
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "SeedSequence"
    ]
    assert callers == []


def test_only_chain_words_a_dimension_refusal():
    # chain._check_start and chain._check_target are the one dimension rule; an f-string's
    # literal parts are string constants too.
    wordings = [
        f"{name}:{node.lineno}" for name, node in _nodes_outside_chain()
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "the model is" in node.value
    ]
    assert wordings == []


def test_only_chain_raises_a_stuck_state():
    # The scalar kernel is the one kernel that refuses a state; rates.py defines the error.
    namers = [
        f"{name}:{node.lineno}" for name, node in _nodes_outside_chain()
        if name != "rates.py" and "_stuck_state" in (getattr(node, "id", None), getattr(node, "attr", None),
                                                     getattr(node, "name", None))
    ]
    assert namers == []


def _concrete_subclasses(base: type) -> set[type]:
    found, stack = set(), [base]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("birthdeath.") and not inspect.isabstract(sub):
                found.add(sub)
    return found


def test_the_dimension_rule_property_test_draws_every_target_kind():
    # A layer set is drawn through its shapes; every other piece is a kind of its own.
    kinds = (_concrete_subclasses(TargetPiece) - {LayerSet}) | _concrete_subclasses(Shape)
    assert kinds == set(TARGET_KINDS)
