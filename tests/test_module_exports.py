import importlib
import inspect
import pkgutil

import pytest

import heatchern

MODULES = [importlib.import_module(f"heatchern.{m.name}")
           for m in pkgutil.iter_modules(heatchern.__path__)]


def _public_definitions(mod):
    """Public functions and classes the module defines itself."""
    return {name for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__}


@pytest.mark.parametrize("mod", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__.rsplit(".", 1)[1])
def test_all_lists_public_definitions(mod):
    # constants may be listed too; every listed name must exist
    assert all(hasattr(mod, name) for name in mod.__all__)
    listed = {name for name in mod.__all__
              if inspect.isfunction(getattr(mod, name))
              or inspect.isclass(getattr(mod, name))}
    assert listed == _public_definitions(mod)
