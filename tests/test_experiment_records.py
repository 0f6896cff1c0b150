"""Golden records for every experiment kind and regime at small n.

The fixture ``data/experiment_records.json`` was recorded from the per-kind
runners that preceded the shared trial loop in ``experiments``.  Those solved
every spectrum densely; the ``eigenvalues`` arrays of the ten edge cases were
later cut to the top and bottom depth values of each recorded spectrum, the
values the Lanczos solve computes, so they are still checked against the dense
solver's values.  When the edge kinds became rows of one table, their records'
keys were moved, added (``U``, ``regime``, ``note``) or removed (``k``) in
place; no value was re-recorded.  Config, row and aggregate key order, ints, bools, strings and None must match exactly.
Floats and ``data`` arrays must match to rtol 1e-9 (atol 1e-12 for values
near zero), because LAPACK's last bits depend on the host and the BLAS thread
count.

Regenerate the fixture, only when a record is meant to change, with

    PYTHONPATH=src python tests/test_experiment_records.py --record
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hypergraph_spectra import experiments
from hypergraph_spectra.experiments import EXPERIMENT_KINDS, ExperimentConfig, run_experiment

FIXTURE = Path(__file__).parent / "data" / "experiment_records.json"
RTOL, ATOL = 1e-9, 1e-12

BERNOULLI = "bernoulli_hypergraph"

CASES = {
    "bulk_surrogate": dict(kind="bulk", n=60, r=4, trials=3, master_seed=1, tolerance=0.2),
    "bulk_bernoulli_one_trial": dict(
        kind="bulk", n=50, r=3, p=0.4, trials=1, master_seed=2, ensemble=BERNOULLI,
        tolerance=0.2,
    ),
    "laplacian_bulk_laplacian_fixed_r": dict(
        kind="laplacian_bulk", n=60, r=3, trials=2, master_seed=3, matrix="laplacian",
        regime="fixed_r", tolerance=0.3,
    ),
    "laplacian_bulk_tilde_fixed_r": dict(
        kind="laplacian_bulk", n=60, r=3, trials=2, master_seed=3,
        matrix="laplacian_tilde", regime="fixed_r", tolerance=0.3,
    ),
    "laplacian_bulk_laplacian_proportional": dict(
        kind="laplacian_bulk", n=60, r=20, trials=2, master_seed=4, matrix="laplacian",
        regime="proportional", tolerance=0.3,
    ),
    "laplacian_bulk_tilde_proportional": dict(
        kind="laplacian_bulk", n=60, r=20, trials=2, master_seed=4,
        matrix="laplacian_tilde", regime="proportional",
    ),
    "laplacian_bulk_bernoulli": dict(
        kind="laplacian_bulk", n=40, r=3, p=0.5, trials=2, master_seed=5,
        ensemble=BERNOULLI, matrix="laplacian_tilde", regime="fixed_r", tolerance=0.3,
    ),
    "edge_bbp_r3": dict(kind="edge_bbp", n=80, r=3, trials=3, master_seed=6, threads=2,
                        tolerance=0.5),
    "edge_bbp_r4": dict(kind="edge_bbp", n=80, r=4, trials=3, master_seed=6, threads=2,
                        tolerance=0.5),
    "edge_regimes_proportional": dict(
        kind="edge_regimes", n=60, r=20, trials=4, master_seed=7, regime="proportional",
        tolerance=0.9,
    ),
    "edge_regimes_sqrt_nr": dict(
        kind="edge_regimes", n=60, r=20, trials=3, master_seed=7, regime="sqrt_nr",
        tolerance=0.3,
    ),
    "edge_regimes_secondary": dict(
        kind="edge_regimes", n=60, r=6, k=2, trials=3, master_seed=7, regime="secondary",
        tolerance=0.3,
    ),
    "laplacian_edge_A": dict(
        kind="laplacian_edge", n=60, r=10, k=2, trials=3, master_seed=8, regime="A",
        tolerance=0.3,
    ),
    "laplacian_edge_B_i": dict(
        kind="laplacian_edge", n=60, r=3, trials=3, master_seed=8, regime="B_i",
        side_factor_small=2.0, tolerance=0.3,
    ),
    "laplacian_edge_B_ii": dict(
        kind="laplacian_edge", n=60, r=20, trials=4, master_seed=8, regime="B_ii",
        tolerance=0.9,
    ),
    "laplacian_edge_C_i": dict(
        kind="laplacian_edge", n=100, r=2, trials=2, master_seed=8, regime="C_i",
        tolerance=0.3,
    ),
    "laplacian_edge_C_ii": dict(
        kind="laplacian_edge", n=60, r=40, k=2, trials=3, master_seed=8, regime="C_ii",
        side_factor_large=1.0, tolerance=0.3,
    ),
    "concentration": dict(kind="concentration", n=30, r=3, trials=3, master_seed=9,
                          tolerance=2.0),
    "concentration_scale_r": dict(
        kind="concentration", n=30, r=3, trials=3, master_seed=9, scale_r_with_n=True,
        tolerance=2.0,
    ),
    "concentration_one_trial_no_gate": dict(
        kind="concentration", n=30, r=3, trials=1, master_seed=9, tolerance=2.0,
    ),
    "universality": dict(
        kind="universality", n=40, r=3, p=0.5, trials=2, master_seed=10,
        ensemble=BERNOULLI, tolerance=0.1,
    ),
    "diagnostics": dict(kind="diagnostics", n=100, r=3, p=0.1),
}


def _snapshot(record) -> dict:
    return {
        "config": record.config,
        "trials": record.trials,
        "aggregate": record.aggregate,
        "data": {
            key: {"shape": list(np.shape(value)), "values": np.ravel(value).tolist()}
            for key, value in record.data.items()
        },
    }


def _assert_matches(actual, expected, where: str) -> None:
    if isinstance(expected, float):
        assert type(actual) is float, f"{where}: {actual!r} is not a float"
        assert math.isclose(actual, expected, rel_tol=RTOL, abs_tol=ATOL), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{where}: {actual!r} is not a dict"
        assert list(actual) == list(expected), f"{where}: keys {list(actual)} != {list(expected)}"
        for key, value in expected.items():
            _assert_matches(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, (list, tuple)), f"{where}: {actual!r} is not a list"
        assert len(actual) == len(expected), f"{where}: length {len(actual)} != {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{where}[{i}]")
    else:
        # ints, bools, strings and None: exact, with bool kept apart from int
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert list(golden) == list(CASES)
    # so a new kind, edge row or Laplacian law cannot land without a golden record
    configs = [ExperimentConfig(**case) for case in CASES.values()]
    assert {cfg.kind for cfg in configs} == set(EXPERIMENT_KINDS)
    edge_table = experiments._edge_table(n=40, r=4, k=1)
    edge_rows = {(kind, regime) for kind, regimes in edge_table.items() for regime in regimes}
    assert {
        (cfg.kind, experiments._edge_row(cfg)[0]) for cfg in configs if cfg.kind in edge_table
    } == edge_rows
    assert {
        (cfg.matrix, cfg.regime or "fixed_r")
        for cfg in configs if cfg.kind == "laplacian_bulk"
    } == set(experiments._LAPLACIAN_LAWS)


@pytest.mark.parametrize("name", list(CASES))
def test_record_matches_golden(golden, name):
    record = run_experiment(ExperimentConfig(**CASES[name]))
    expected = golden[name]
    actual = _snapshot(record)
    _assert_matches(actual["config"], expected["config"], "config")
    _assert_matches(actual["trials"], expected["trials"], "trials")
    _assert_matches(actual["aggregate"], expected["aggregate"], "aggregate")
    assert list(actual["data"]) == list(expected["data"])
    for key, want in expected["data"].items():
        got = record.data[key]
        assert got.dtype == np.float64 and list(got.shape) == want["shape"], key
        np.testing.assert_allclose(
            got.ravel(), np.asarray(want["values"]), rtol=RTOL, atol=ATOL, err_msg=key
        )


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    snapshots = {
        name: _snapshot(run_experiment(ExperimentConfig(**kw))) for name, kw in CASES.items()
    }
    # one case per line
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in snapshots.items())
    FIXTURE.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {len(snapshots)} records to {FIXTURE}")
