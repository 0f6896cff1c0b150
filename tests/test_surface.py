"""Every public name of the package is used by the package itself, and every
dense eigensolve goes through one function.

A name in a module's ``__all__`` must be read somewhere else in ``src/``: its
own definition, the ``__all__`` entry and the re-exports of ``__init__.py`` do
not count.  Reference code that only the tests need belongs in
``tests/oracles.py``.
"""

import ast
from pathlib import Path

import hypergraph_spectra

PACKAGE = Path(hypergraph_spectra.__file__).parent

# name -> why it stays public although nothing in the package reads it yet
ALLOWED = {
    "low_rank_eigenvalues": "ROADMAP item 2 scores edge trials against it",
    "EmpiricalMeasure": "alias imported by perfbench/test_perfbench.py",
}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _definition_lines(tree: ast.Module, name: str) -> range:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
    return range(0)


def _reads(tree: ast.Module):
    """(name, line) for every name or attribute that is read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unused_exports() -> list[str]:
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    reads = {module: list(_reads(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name in _exports(tree):
            own = _definition_lines(tree, name)
            used = any(
                read == name and not (other == module and line in own)
                for other, refs in reads.items()
                for read, line in refs
            )
            if not used:
                unused.append(f"{module}.{name}")
    return unused


def test_every_export_has_a_caller_in_the_package():
    unused = [name for name in unused_exports() if name.split(".")[1] not in ALLOWED]
    assert unused == [], f"public names that only the tests use: {unused}"


def test_allow_list_is_current():
    # an allowed name that gains a caller leaves the list
    unused = {name.split(".")[1] for name in unused_exports()}
    assert set(ALLOWED) <= unused


def test_one_dense_eigensolve_path():
    # every full spectrum comes from the one LAPACK call in
    # spectra.symmetric_eigenvalues
    counts = {path.name: path.read_text().count("eigvalsh") for path in PACKAGE.glob("*.py")}
    assert {name: count for name, count in counts.items() if count} == {"spectra.py": 1}
