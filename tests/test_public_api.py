"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import threshlab

MODULES = ["threshlab"] + [f"threshlab.{m.name}"
                           for m in pkgutil.iter_modules(threshlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from threshlab import *", namespace)
    assert set(threshlab.__all__) <= set(namespace)
