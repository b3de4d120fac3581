"""The exported names: every ``__all__`` entry resolves, so a deletion
cannot leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import bigsurv

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bigsurv.__path__))


def test_package_exports_resolve_without_duplicates():
    missing = [name for name in bigsurv.__all__ if not hasattr(bigsurv, name)]
    assert missing == []
    assert len(set(bigsurv.__all__)) == len(bigsurv.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"bigsurv.{name}")
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_exports_every_library_module_list():
    """The package ``__all__`` is the union of the library modules'
    lists; the command-line front end is not re-exported."""
    library = [
        importlib.import_module(f"bigsurv.{name}") for name in SUBMODULES if name != "cli"
    ]
    assert set(bigsurv.__all__) == {name for m in library for name in m.__all__}
