"""The demos are not run by the test suite; check that the platelab names
they use exist and that every call of one fits its signature, so that an
API change cannot leave a demo broken."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _bindings(tree):
    """Local name -> platelab module for ``import platelab as pl`` and
    ``from platelab import m``, and local name -> (module, attribute) for
    every other name imported with ``from platelab... import``."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "platelab":
                    modules[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "platelab":
            for a in node.names:
                sub = f"{node.module}.{a.name}"
                try:
                    importlib.import_module(sub)
                    modules[a.asname or a.name] = sub
                except ModuleNotFoundError:
                    names[a.asname or a.name] = (node.module, a.name)
    return modules, names


def _platelab_uses(tree):
    """(module name, attribute) for every attribute taken from a bound
    platelab module and for every name imported from one."""
    modules, names = _bindings(tree)
    uses = list(names.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.append((modules[node.value.id], node.attr))
    return uses


def _platelab_calls(tree):
    """(module name, attribute, call) for every call of a platelab name."""
    modules, names = _bindings(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in modules:
            yield modules[f.value.id], f.attr, node
        elif isinstance(f, ast.Name) and f.id in names:
            yield (*names[f.id], node)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_uses_existing_api(path):
    uses = _platelab_uses(_parse(path))
    assert uses
    missing = [f"{mod}.{attr}" for mod, attr in uses
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"{path.name} uses missing names: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_calls_fit_their_signatures(path):
    # the AST nodes stand in for the argument values: binding checks the
    # positional count and the keyword names only
    calls = list(_platelab_calls(_parse(path)))
    assert calls
    bad = []
    for mod, attr, call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or \
                any(k.arg is None for k in call.keywords):
            continue   # *args or **kwargs: not countable from the source
        fn = getattr(importlib.import_module(mod), attr)
        try:
            inspect.signature(fn).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            bad.append(f"line {call.lineno} {mod}.{attr}: {exc}")
    assert not bad, f"{path.name}: {bad}"
