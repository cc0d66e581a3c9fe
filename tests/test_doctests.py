"""The docstring examples in the library run as part of the test suite."""

import doctest
import importlib
import pkgutil

import devissage


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(devissage.__path__):
        module = importlib.import_module(f"devissage.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    # valuation, smith_with_inverses, LModule, CoLGroup, canonicalize_with_maps,
    # box, spanning_trees, DivisorConfig
    assert attempted >= 6
