"""The demos are not run by the test suite; check that the platelab names
they use exist, so that an API change cannot leave a demo broken."""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _platelab_uses(tree):
    """(module name, attribute) for every attribute taken from a platelab
    module bound by ``import platelab as pl`` or ``from platelab import m``,
    and for every name imported with ``from platelab... import``."""
    aliases = {}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "platelab":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "platelab":
            for a in node.names:
                sub = f"{node.module}.{a.name}"
                try:
                    importlib.import_module(sub)
                    aliases[a.asname or a.name] = sub
                except ModuleNotFoundError:
                    uses.append((node.module, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in aliases:
            uses.append((aliases[node.value.id], node.attr))
    return uses


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_uses_existing_api(path):
    uses = _platelab_uses(ast.parse(path.read_text(), filename=str(path)))
    assert uses
    missing = [f"{mod}.{attr}" for mod, attr in uses
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"{path.name} uses missing names: {missing}"
