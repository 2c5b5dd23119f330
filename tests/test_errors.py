"""Every exception class the package declares is raised somewhere in it."""

import ast
from pathlib import Path

import padic_dynamics

SRC = Path(padic_dynamics.__file__).parent


def _raised_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_class_is_raised():
    declared = {node.name for node in ast.parse(
        (SRC / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        raised.update(_raised_names(ast.parse(path.read_text())))
    assert declared, "errors.py declares no classes"
    assert declared <= raised, f"never raised: {sorted(declared - raised)}"
