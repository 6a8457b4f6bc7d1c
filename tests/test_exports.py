"""Every name a package lists in ``__all__`` resolves.

A re-export left behind when its module is deleted would otherwise go
unnoticed until someone star-imports the package.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.ir",
    "repro.experiments",
    "repro.obs",
    "repro.service",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
