import importlib
import pkgutil
import types

import pytest

import saddlescape

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(saddlescape.__path__) if name != "__main__")
# The command line is the one module whose names the package does not re-export.
LIBRARY = [name for name in MODULES if name != "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists_once(name):
    module = importlib.import_module(f"saddlescape.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_exactly_the_union_of_the_library_lists():
    exported = {
        n for n, value in vars(saddlescape).items()
        if not n.startswith("_") and not isinstance(value, types.ModuleType)
    }
    union = set()
    for name in LIBRARY:
        module = importlib.import_module(f"saddlescape.{name}")
        union.update(module.__all__)
        assert all(getattr(saddlescape, n) is getattr(module, n) for n in module.__all__)
    assert exported == union
