"""Run the docstring examples of every package module."""

import doctest
import importlib
import pkgutil

import pytest

import hypergraph_spectra

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(hypergraph_spectra.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(f"hypergraph_spectra.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_examples_are_found():
    finder = doctest.DocTestFinder()
    modules = [importlib.import_module(f"hypergraph_spectra.{name}") for name in MODULES]
    assert sum(len(t.examples) for m in modules for t in finder.find(m)) >= 5
