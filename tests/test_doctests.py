import doctest
import importlib
import pkgutil

import pytest

import permutree

# every module of the package but __main__, whose import runs the command line
MODULES = [
    importlib.import_module(f"permutree.{info.name}")
    for info in pkgutil.iter_modules(permutree.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", [permutree, *MODULES], ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
