"""Every name that the package or one of its modules lists in __all__ exists."""
import importlib
import pkgutil

import pytest

import dpls_iv

_MODULES = ["dpls_iv"] + sorted(
    f"dpls_iv.{info.name}" for info in pkgutil.iter_modules(dpls_iv.__path__)
)


@pytest.mark.parametrize("module_name", _MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", ())  # errors.py lists none
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []
