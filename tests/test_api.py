"""Every name a module exports through ``__all__`` exists, so an entry left
behind by a deletion fails here."""
import importlib
import pkgutil

import pytest

import lpgrad

MODULES = [
    info.name for info in pkgutil.iter_modules(lpgrad.__path__)
    if hasattr(importlib.import_module(f"lpgrad.{info.name}"), "__all__")
]


def test_modules_found():
    assert {"sampler", "estimator", "bench"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from lpgrad.{name} import *", {})
