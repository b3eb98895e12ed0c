"""Package-wide guards: every public name exists, every error type is used."""
import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import schreg
from schreg import errors

SRC = pathlib.Path(schreg.__file__).parent
MODULES = ["schreg"] + [f"schreg.{m.name}" for m in pkgutil.iter_modules(schreg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # a span tracer wraps each module's public functions by looking up
    # every `__all__` entry, so one stale entry breaks every traced run
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which do not exist"


def _raised_or_caught(path):
    """Every name or attribute inside a raise or an except clause of path."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        target = (node.exc if isinstance(node, ast.Raise)
                  else node.type if isinstance(node, ast.ExceptHandler) else None)
        for sub in ast.walk(target) if target is not None else ():
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def test_every_error_type_is_raised_or_caught():
    used = set().union(*(_raised_or_caught(p) for p in SRC.glob("*.py")
                         if p.name != "errors.py"))
    classes = [n for n, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.SchregError) and cls is not errors.SchregError]
    assert classes
    orphans = sorted(set(classes) - used)
    assert not orphans, f"error types nothing in src/ raises or catches: {orphans}"
