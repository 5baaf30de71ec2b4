"""The package namespace: every name of ``__all__`` resolves, on first use,
to the object its submodule defines."""

import importlib

import pytest

import idealdec


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from idealdec import *", namespace)
    assert set(idealdec.__all__) <= set(namespace)
    assert namespace["__version__"] == idealdec.__version__


def test_exported_names_are_their_submodules_objects():
    exported = {name for name in idealdec.__all__ if name != "__version__"}
    seen = set()
    for module, names in idealdec._EXPORTS.items():
        sub = importlib.import_module(f"idealdec.{module}")
        for name in names.split():
            value = getattr(idealdec, name)
            assert value is getattr(sub, name)
            # a class or function is exported from the module that defines it
            assert getattr(value, "__module__", sub.__name__) == sub.__name__
            seen.add(name)
    assert seen == exported and len(idealdec.__all__) == len(set(idealdec.__all__))


def test_dir_lists_the_exported_names():
    names = dir(idealdec)
    assert set(idealdec.__all__) <= set(names)
    assert names == sorted(names)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        idealdec.no_such_name
    assert not hasattr(idealdec, "no_such_name")
    with pytest.raises(ImportError):
        exec("from idealdec import no_such_name", {})
