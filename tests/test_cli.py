"""End-to-end tests of the command-line interface."""

import functools
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

import hypergraph_spectra
from hypergraph_spectra import spectra
from hypergraph_spectra.cli import main
from hypergraph_spectra.svgplot import histogram_svg


class TestSample:
    def test_complete_hypergraph(self, tmp_path, capsys):
        out = tmp_path / "hg.json"
        code = main(["sample", "-n", "6", "-r", "3", "-p", "1.0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["edges"]) == 20
        assert "average degree" in capsys.readouterr().out

    def test_empty_hypergraph(self, tmp_path):
        out = tmp_path / "hg.json"
        assert main(["sample", "-n", "6", "-r", "3", "-p", "0.0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["edges"] == []

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["--seed", "5", "sample", "-n", "8", "-r", "3", "-p", "0.4", "--out", str(a)])
        main(["--seed", "5", "sample", "-n", "8", "-r", "3", "-p", "0.4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_budget_error_exit_code(self, tmp_path, capsys):
        code = main(
            ["sample", "-n", "64", "-r", "32", "-p", "0.5", "--out", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "surrogate" in capsys.readouterr().err


class TestSpectrum:
    def test_surrogate_csv_row_count(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(
            ["--seed", "3", "spectrum", "--surrogate", "-n", "40", "-r", "5", "--out", str(out)]
        )
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) - 1 == 40

    def test_from_hypergraph_file(self, tmp_path):
        hg = tmp_path / "hg.json"
        main(["sample", "-n", "10", "-r", "3", "-p", "0.5", "--out", str(hg)])
        out = tmp_path / "spec.csv"
        code = main(
            ["spectrum", "--input", str(hg), "--matrix", "laplacian", "--out", str(out)]
        )
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) - 1 == 10

    def test_svg_output_well_formed(self, tmp_path):
        out = tmp_path / "spec.csv"
        svg = tmp_path / "esd.svg"
        code = main(
            [
                "--seed", "1", "spectrum", "--surrogate", "-n", "300", "-r", "50",
                "--out", str(out), "--svg", str(svg),
                "--overlay", "semicircle:0.6944444444444445",
            ]
        )
        assert code == 0
        root = ElementTree.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
        body = svg.read_text()
        assert "polyline" in body
        assert "<image" not in body and "href" not in body  # self-contained

    def test_malformed_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["spectrum", "--input", str(bad), "--out", str(tmp_path / "s.csv")])
        assert code == 1

    def test_empirical_overlay_rejected(self, tmp_path, capsys):
        code = main(
            [
                "spectrum", "--surrogate", "-n", "20", "-r", "3",
                "--out", str(tmp_path / "s.csv"), "--svg", str(tmp_path / "s.svg"),
                "--overlay", '{"kind": "empirical", "atoms": [0.0]}',
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: law")


class TestSvgHistogram:
    def test_bin_mass_normalised(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(500)
        counts, edges = np.histogram(values, bins=60, density=True)
        assert abs(np.sum(counts * np.diff(edges)) - 1.0) < 1e-9
        text = histogram_svg(values, bins=60)
        ElementTree.fromstring(text)

    def test_min_bins_enforced(self):
        with pytest.raises(ValueError):
            histogram_svg(np.zeros(10), bins=3)


class TestExperimentCommand:
    def test_diagnostics_prints_ratio(self, tmp_path, capsys):
        code = main(
            [
                "--out-dir", str(tmp_path), "experiment", "--kind", "diagnostics",
                "-n", "20", "-r", "3", "-p", "0.1", "--timestamp", "t0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.0078" in out

    def test_edge_bbp_summary_lists_target(self, tmp_path, capsys):
        code = main(
            [
                "--out-dir", str(tmp_path), "--seed", "4", "--threads", "2",
                "experiment", "--kind", "edge_bbp", "-n", "100", "-r", "4",
                "--trials", "3", "--tolerance", "0.5", "--timestamp", "t1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "target" in out and "2.12132" in out
        assert "PASS" in out
        record = json.loads(
            (tmp_path / "runs" / "edge_bbp" / "t1-4" / "record.json").read_text()
        )
        assert record["aggregate"]["passed"] is True

    def test_eigensolver_failure_reported(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spectra, "eigsh", functools.partial(eigsh, maxiter=1))
        code = main(
            [
                "--out-dir", str(tmp_path), "experiment", "--kind", "edge_bbp",
                "-n", "1500", "-r", "3", "--trials", "1", "--timestamp", "t2",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Lanczos solve") and "n=1500" in err

    def test_threads_below_one_rejected(self, tmp_path, capsys):
        code = main(
            [
                "--out-dir", str(tmp_path), "--threads", "0", "experiment", "--kind",
                "bulk", "-n", "20", "-r", "3", "--trials", "2",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: need threads >= 1")

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "kind": "bulk",
                    "n": 30,
                    "r": 3,
                    "trials": 2,
                    "master_seed": 11,
                }
            )
        )
        code = main(
            [
                "--out-dir", str(tmp_path), "experiment", "--config", str(cfg_file),
                "--trials", "3", "--timestamp", "t2",
            ]
        )
        assert code == 0
        record = json.loads(
            (tmp_path / "runs" / "bulk" / "t2-11" / "record.json").read_text()
        )
        assert record["config"]["trials"] == 3

    def test_regime_validation_surfaced(self, tmp_path, capsys):
        code = main(
            [
                "--out-dir", str(tmp_path), "experiment", "--kind", "laplacian_edge",
                "-n", "1000", "-r", "3", "--trials", "2", "--regime", "B_i",
            ]
        )
        assert code == 1
        assert "sqrt(log n)" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"kind": "bulk", "n": 30, "r": 3, "trails": 2}))
        code = main(["--out-dir", str(tmp_path), "experiment", "--config", str(cfg_file)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: unknown config keys: trails")


class TestLawsCommand:
    def test_evaluate_semicircle(self, tmp_path):
        out = tmp_path / "law.csv"
        code = main(
            ["laws", "evaluate", "--law", "semicircle:1.0", "--out", str(out), "--points", "101"]
        )
        assert code == 0
        data = np.loadtxt(out, delimiter=",")
        assert data.shape == (101, 2)

    def test_evaluate_empirical_law_rejected(self, tmp_path, capsys):
        code = main(
            [
                "laws", "evaluate", "--law", '{"kind": "empirical", "atoms": [0.0, 1.0]}',
                "--out", str(tmp_path / "law.csv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: law")

    def test_convolve_requires_second_law(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["laws", "convolve", "--law", "semicircle:1.0"])
        assert exc.value.code == 2

    def test_convolve_identity(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(
            [
                "laws", "convolve", "--law", "semicircle:1.0",
                "--law2", '{"kind": "empirical", "atoms": [0.0]}',
                "--points", "801", "--out", str(out),
            ]
        )
        assert code == 0
        assert "mass" in capsys.readouterr().out

    def test_convolve_mass_guard_on_coarse_grid(self, tmp_path, capsys):
        # 301 points cannot resolve the square-root edges to the mass
        # tolerance; the solver must refuse rather than return a bad grid
        code = main(
            [
                "laws", "convolve", "--law", "semicircle:1.0",
                "--law2", '{"kind": "empirical", "atoms": [0.0]}',
                "--points", "301", "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert code == 1
        assert "mass" in capsys.readouterr().err


class TestMetricsCommand:
    def test_compare_two_laws(self, capsys):
        code = main(["metrics", "--a", "semicircle:1.0", "--b", "semicircle:1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["ks"] == pytest.approx(0.0, abs=1e-9)

    def test_compare_spectrum_csv_to_law(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        main(["--seed", "2", "spectrum", "--surrogate", "-n", "60", "-r", "2", "--out", str(out)])
        capsys.readouterr()  # drop the spectrum command's output
        code = main(["metrics", "--a", str(out), "--b", "semicircle:1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert 0.0 < payload["ks"] < 0.5


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestSetUp:
    def test_cli_import_defers_scipy_stats(self):
        # only the Bernoulli edge-count draw needs scipy.stats and imports it on
        # first use; importing it with the package would lengthen every set-up.
        # No metric uses quadrature, so scipy.integrate (which pulls in
        # scipy.optimize) is never loaded at all
        src = str(Path(hypergraph_spectra.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        deferred = ("scipy.stats", "scipy.integrate", "scipy.optimize")
        code = f"import sys, hypergraph_spectra.cli; print([m in sys.modules for m in {deferred}])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == str([False] * len(deferred))
