"""Every public name of the package is used by the package itself, every
dense eigensolve goes through one function, every trial matrix comes from one
draw and one matrix table, every law is evaluated through the one contract
of the ``Law`` base class, and every config field says what reads it.

A name in a module's ``__all__`` must be read somewhere else in ``src/``: its
own definition, the ``__all__`` entry and the re-exports of ``__init__.py`` do
not count.  Reference code that only the tests need belongs in
``tests/oracles.py``.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import hypergraph_spectra
from hypergraph_spectra import experiments
from hypergraph_spectra.laws import Law

PACKAGE = Path(hypergraph_spectra.__file__).parent

# name -> why it stays public although nothing in the package reads it yet
ALLOWED = {
    "low_rank_eigenvalues": "ROADMAP item 4 scores edge trials against it",
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


def _calls(name: str) -> dict[str, int]:
    """Module file -> calls of ``name``, bare or as an attribute, where any."""
    counts = {}
    for path in PACKAGE.glob("*.py"):
        count = sum(
            isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(path.read_text()))
        )
        if count:
            counts[path.name] = count
    return counts


def test_one_trial_matrix_path():
    # a trial's matrix is one draw of its row of experiments._ENSEMBLES, mapped
    # by one row of the table gham.MATRICES; only that table builds a
    # Laplacian, and hgspec spectrum draws and standardises through the same rows
    assert set(_calls("laplacian")) | set(_calls("laplacian_tilde")) == {"gham.py"}
    assert _calls("sample_surrogate") == _calls("gham_from_adjacency") == {"experiments.py": 1}
    assert _calls("sample_hypergraph")["experiments.py"] == 1


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_laws_write_only_kernels():
    # Law.density, cdf, cdf_integral and stieltjes convert input and output;
    # a law kind writes the array kernels _density, _cdf, _cdf_integral and
    # _stieltjes, and no other scalar-return site exists
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            importlib.import_module(f"{hypergraph_spectra.__name__}.{path.stem}")
    package = hypergraph_spectra.__name__
    kinds = [cls for cls in _subclasses(Law) if cls.__module__.startswith(package)]
    assert len(kinds) >= 4
    evaluations = {"density", "cdf", "cdf_integral", "stieltjes"}
    overrides = [f"{cls.__name__}.{name}" for cls in kinds for name in evaluations & set(vars(cls))]
    assert overrides == []
    counts = {path.name: path.read_text().count("ndim == 0") for path in PACKAGE.glob("*.py")}
    assert {name: count for name, count in counts.items() if count} == {"laws.py": 1}


def test_every_config_field_is_always_accepted_or_read_somewhere():
    # a field is either accepted by every kind (the CLI or the benchmark sets it
    # for any kind; universality takes an ensemble) or read by a kind, an
    # ensemble or an edge regime, so a new field cannot be added without saying
    # what reads it
    always = {"kind", "n", "r", "master_seed", "ensemble", "threads"}
    assert set(experiments._ALWAYS_READ) == always
    read = {name for _, _, reads, _ in experiments._KINDS.values() for name in reads}
    read |= {name for _, reads, _ in experiments._ENSEMBLES.values() for name in reads}
    for regimes in experiments._edge_table(n=40, r=4, k=1).values():
        read |= {name for row in regimes.values() for name in (*experiments._EDGE, *row[-1])}
    fields = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}
    assert always.isdisjoint(read)
    assert always | read == fields


def _imports_of(module: str) -> list[tuple[str, str | None]]:
    """(module file, innermost enclosing function or None) of every import of
    the dotted ``module`` in the package, e.g. for scipy.stats: ``import
    scipy.stats``, ``from scipy.stats import ...`` or ``from scipy import stats``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == module or name.startswith(module + ".") for name in names):
                owners = [f for f in functions if f.lineno < node.lineno <= f.end_lineno]
                owner = max(owners, key=lambda f: f.lineno, default=None)
                found.append((path.name, owner and owner.name))
    return found


def test_scipy_stats_imported_only_by_the_edge_count_fallback():
    # importing scipy.stats costs about 1 s and 60 MB; the only import is the
    # quantile's fallback for a draw next to a CDF step, inside its function
    assert _imports_of("scipy.stats") == [("combinatorics.py", "_binomial_quantile")]


def test_no_module_imports_scipy_special():
    # importing scipy.special costs about 17 MB of resident memory; the Gaussian
    # law's CDF and Faddeeva function are numpy kernels
    assert _imports_of("scipy.special") == []
