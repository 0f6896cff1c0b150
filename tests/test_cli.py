"""End-to-end tests of the command-line interface."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np
import pytest

import hypergraph_spectra
from hypergraph_spectra import experiments, spectra
from hypergraph_spectra.cli import build_parser, main
from hypergraph_spectra.spectra import Scaling
from hypergraph_spectra.svgplot import histogram_svg
from test_experiment_records import BERNOULLI, CASES


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

    def test_complement_sample_matches_golden_digest(self, tmp_path):
        # p > 1/2 takes the sampler's complement path; the digest was recorded
        # before its dropped subsets were located by lexicographic rank
        out = tmp_path / "hg.json"
        main(["--seed", "4", "sample", "-n", "30", "-r", "3", "-p", "0.8", "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "aca3256f88bb6ecf4abad72faf676eff983a0121739e1d233e5c7db9f1bd76f4"
        )

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

    @pytest.mark.parametrize("n, r", [(3, 3), (5, 5)])
    def test_surrogate_r_at_n_rejected(self, tmp_path, capsys, n, r):
        out = tmp_path / "s.csv"
        code = main(["spectrum", "--surrogate", "-n", str(n), "-r", str(r), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: need r < n (c = r/n < 1), got r={r}, n={n}\n"
        assert not out.exists()

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

    def test_laplacian_tilde_at_a_library_scaling(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(
            [
                "--seed", "4", "spectrum", "--surrogate", "-n", "30", "-r", "3",
                "--matrix", "laplacian_tilde", "--scaling", "by_sqrt_nr", "--out", str(out),
            ]
        )
        assert code == 0
        params = hypergraph_spectra.ModelParams(n=30, r=3, p=0.5)
        _, h = hypergraph_spectra.sample_surrogate(params, 4)
        want = hypergraph_spectra.symmetric_eigenvalues(
            hypergraph_spectra.laplacian_tilde(h, 3), scaling=Scaling.BY_SQRT_NR, r=3
        )
        assert out.read_text().startswith(
            "# ensemble=gaussian_surrogate seed=4 scaling=by_sqrt_nr\n"
        )
        np.testing.assert_array_equal(
            hypergraph_spectra.spectra.load_spectrum_csv(out).atoms, np.sort(want)
        )

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

    def test_markup_in_text_escaped_as_before(self):
        # & < > become entities and quotes stay literal, as xml.sax.saxutils.escape
        # wrote them; the digest is of that rendering
        values = np.random.default_rng(0).standard_normal(200)
        xs = np.linspace(-3.0, 3.0, 7)
        text = histogram_svg(
            values, bins=20, overlays=[("""a & <b> "c" 'd'""", xs, np.exp(-xs * xs / 2))],
            title="""T & <t> "q" 's'""", xlabel="""x&y<z>"w"'v'""",
        )
        assert """>T &amp; &lt;t&gt; "q" 's'</text>""" in text
        ElementTree.fromstring(text)
        digest = "e8de7f751e4cee894c88e2053be263e31d1b1e7fd13de5e3b305e7978523eb4a"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        monkeypatch.setattr(spectra, "_MAX_RESTARTS", 0)
        code = main(
            [
                "--out-dir", str(tmp_path), "experiment", "--kind", "edge_bbp",
                "-n", "1500", "-r", "3", "--trials", "1", "--timestamp", "t2",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Lanczos solve") and "n=1500" in err
        assert "after 80 matvecs and 0 restarts" in err  # one full basis of ncv=80

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

    def test_k_below_one_rejected(self, tmp_path, capsys):
        # at k = 0 the secondary regimes would score lambda_1, the outlier
        code = main(
            [
                "--out-dir", str(tmp_path), "experiment", "--kind", "edge_regimes",
                "-n", "200", "-r", "6", "--trials", "2", "--regime", "secondary", "--k", "0",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: need k >= 1")

    def test_k_at_or_above_n_rejected(self, tmp_path, capsys):
        # depth k + 1 would exceed n; rejected before a matrix is built
        code = main(
            [
                "--out-dir", str(tmp_path), "experiment", "--kind", "edge_regimes",
                "-n", "30", "-r", "3", "--trials", "2", "--regime", "secondary", "--k", "30",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: need k < n=30, got k=30")

    def test_matrix_kind_for_a_kind_that_ignores_it_rejected(self, tmp_path, capsys):
        code = main(
            [
                "--out-dir", str(tmp_path), "experiment", "--kind", "bulk",
                "-n", "40", "-r", "3", "--matrix-kind", "laplacian",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: bulk does not read matrix; got matrix='laplacian'\n"

    def test_non_finite_tolerance_rejected(self, tmp_path, capsys):
        # NaN failed every gate and was written into record.json as a bare NaN
        code = main(
            [
                "--out-dir", str(tmp_path), "experiment", "--kind", "bulk",
                "-n", "40", "-r", "3", "--tolerance", "nan",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: config key 'tolerance' must be finite, got nan\n"
        assert not (tmp_path / "runs").exists()

    # a flag beats the config file, and the file beats the flag's default
    @pytest.mark.parametrize("key, flag, file_value, flag_value, default", [
        ("master_seed", "--seed", 5, 9, 0),
        ("threads", "--threads", 2, 1, 1),
    ])
    @pytest.mark.parametrize("source", ["flag", "file", "default"])
    def test_seed_and_threads_precedence(self, tmp_path, key, flag, file_value, flag_value,
                                         default, source):
        payload = {"kind": "bulk", "n": 20, "r": 3, "trials": 2}
        if source != "default":
            payload[key] = file_value
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(payload))
        flags = [flag, str(flag_value)] if source == "flag" else []
        code = main(["--out-dir", str(tmp_path), *flags, "experiment", "--config", str(cfg_file),
                     "--timestamp", "t"])
        assert code == 0
        (run_dir,) = (tmp_path / "runs" / "bulk").iterdir()
        record = json.loads((run_dir / "record.json").read_text())
        want = {"flag": flag_value, "file": file_value, "default": default}[source]
        assert record["config"][key] == want
        assert run_dir.name == f"t-{record['config']['master_seed']}"

    def test_config_scaling_from_an_older_record_rejected(self, tmp_path, capsys):
        # records from earlier versions carry a scaling; no field sets it now
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps({"kind": "bulk", "n": 30, "r": 3, "scaling": "by_sqrt_n"})
        )
        code = main(["--out-dir", str(tmp_path), "experiment", "--config", str(cfg_file)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: unknown config keys: scaling")

    def test_config_edge_budget_from_an_older_record_rejected(self, tmp_path, capsys):
        # records from earlier versions carry an edge_budget; the budget is fixed now
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"kind": "bulk", "n": 30, "r": 3, "edge_budget": 1e7}))
        code = main(["--out-dir", str(tmp_path), "experiment", "--config", str(cfg_file)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: unknown config keys: edge_budget")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"kind": "bulk", "n": 30, "r": 3, "trails": 2}))
        code = main(["--out-dir", str(tmp_path), "experiment", "--config", str(cfg_file)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: unknown config keys: trails")

    @pytest.mark.parametrize("key,value", [("n", "30"), ("trials", "2")])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"kind": "bulk", "n": 30, "r": 3, "trials": 2, key: value}))
        code = main(["--out-dir", str(tmp_path), "experiment", "--config", str(cfg_file)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: config key {key!r} must be a JSON int")

    def test_config_int_for_float_and_null_for_optional_accepted(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps({"kind": "diagnostics", "n": 20, "r": 3, "p": 1, "tolerance": None})
        )
        assert main(["--out-dir", str(tmp_path), "experiment", "--config", str(cfg_file)]) == 0


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


class TestMalformedLawDescriptors:
    # each ends in "error: law ..." and exit 1, not a traceback
    def test_missing_key(self, tmp_path, capsys):
        argv = ["laws", "evaluate", "--law", '{"kind": "semicircle"}']
        assert main(argv + ["--out", str(tmp_path / "law.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: law semicircle needs the key 'sigma2'")

    def test_json_file_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "law.json"
        path.write_text("[1, 2]")
        assert main(["metrics", "--a", str(path), "--b", "semicircle:1.0"]) == 1
        assert capsys.readouterr().err.startswith("error: law descriptor must be a JSON object")

    def test_operands_not_a_pair(self, capsys):
        law = '{"kind": "free_convolution", "operands": []}'
        assert main(["metrics", "--a", law, "--b", "semicircle:1.0"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: law free_convolution needs a list of two operands"
        )


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

    def test_experiment_scaling_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--kind", "bulk", "-n", "30", "-r", "3", "--scaling", "by_n"])
        assert exc.value.code == 2


def _choices(command: str, dest: str) -> list:
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return list(next(a for a in commands.choices[command]._actions if a.dest == dest).choices)


def test_flag_choices_are_the_library_values():
    # one spelling of each matrix and scaling, the library's, in every flag
    assert experiments.MATRIX_KINDS == ("gham", "laplacian", "laplacian_tilde")
    assert _choices("spectrum", "matrix") == list(experiments.MATRIX_KINDS)
    assert _choices("experiment", "matrix_kind") == list(experiments.MATRIX_KINDS)
    assert _choices("spectrum", "scaling") == [s.value for s in Scaling]


def fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter on this package."""
    src = str(Path(hypergraph_spectra.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


class TestSetUp:
    def test_cli_import_defers_scipy_stats(self):
        # no law needs scipy.special: the Gaussian CDF and Stieltjes transform are
        # numpy kernels, and importing it would lengthen every set-up;
        # scipy.stats is loaded only by a rare edge-count draw next to a CDF step.
        # The Lanczos solve needs no scipy.sparse.linalg, and no metric uses
        # quadrature, so scipy.integrate (which pulls in scipy.optimize) is never
        # loaded at all, the SVG writer escapes text without xml.sax (which
        # pulls in urllib.request), and the Faddeeva coefficients are a cosine
        # sum, not an FFT (numpy.fft adds about 1 MB when loaded)
        deferred = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.special",
                    "scipy.sparse.linalg", "xml.sax", "urllib.request", "numpy.fft")
        code = f"import sys, hypergraph_spectra.cli; print([m in sys.modules for m in {deferred}])"
        assert fresh_interpreter(code) == str([False] * len(deferred))

    def test_cli_import_loads_no_openblas_handle(self):
        # the bundled OpenBLAS libraries are looked up at the first solve or experiment
        code = "import hypergraph_spectra.cli as c; print(c.spectra._openblas.cache_info().currsize)"
        assert fresh_interpreter(code) == "0"

    def test_cli_import_builds_no_faddeeva_coefficients(self):
        # the Gaussian law's expansion coefficients are built at its first transform
        code = textwrap.dedent("""\
            import hypergraph_spectra.cli
            from hypergraph_spectra import laws
            print(laws._faddeeva_coefficients.cache_info().currsize)
            laws.GaussianLaw(1.0).stieltjes(1j)
            print(laws._faddeeva_coefficients.cache_info().currsize)
        """)
        assert fresh_interpreter(code).splitlines() == ["0", "1"]

    def test_experiments_load_only_the_scipy_they_use(self, tmp_path):
        # the surrogate bulk kind is scored against a semicircle and solves densely;
        # edge_bbp solves by Lanczos, in numpy alone, against a closed-form edge;
        # the Bernoulli bulk kind (the benchmark's bernoulli_dense config) draws its
        # edge count in numpy; the Gaussian laws of laplacian_bulk (free convolution
        # with a semicircle at fixed r, G [+] G when proportional), the Gaussian KS
        # of edge_regimes and a Gaussian convolution from the CLI evaluate numpy
        # kernels
        code = textwrap.dedent(f"""\
            import contextlib, io, sys
            from hypergraph_spectra.cli import main
            from hypergraph_spectra.experiments import ExperimentConfig, run_experiment
            mods = ("scipy.special", "scipy.sparse.linalg", "scipy.stats")
            run_experiment(ExperimentConfig(kind="bulk", n=300, r=3, trials=1))
            print([m in sys.modules for m in mods])
            run_experiment(ExperimentConfig(kind="edge_bbp", n=300, r=3, trials=1))
            print([m in sys.modules for m in mods])
            run_experiment(ExperimentConfig(kind="bulk", ensemble="bernoulli_hypergraph",
                                            n=150, r=3, p=0.7, trials=1, master_seed=5))
            print([m in sys.modules for m in mods])
            run_experiment(ExperimentConfig(kind="laplacian_bulk", matrix="laplacian_tilde",
                                            regime="fixed_r", n=60, r=3, trials=1))
            print([m in sys.modules for m in mods])
            run_experiment(ExperimentConfig(kind="laplacian_bulk", matrix="laplacian",
                                            regime="proportional", n=60, r=20, trials=1))
            print([m in sys.modules for m in mods])
            run_experiment(ExperimentConfig(kind="edge_regimes", regime="proportional",
                                            n=60, r=20, trials=1))
            print([m in sys.modules for m in mods])
            with contextlib.redirect_stdout(io.StringIO()):
                main(["laws", "convolve", "--law", "gaussian:0.5", "--law2", "semicircle:1.0",
                      "--out", {str(tmp_path / "conv.csv")!r}])
            print([m in sys.modules for m in mods])
        """)
        assert fresh_interpreter(code).splitlines() == ["[False, False, False]"] * 7

    @pytest.mark.parametrize("kind, ensemble", [
        ("universality", "gaussian_surrogate"), ("bulk", "bernoulli_hypergraph")])
    def test_pooled_hypergraph_trials_load_no_scipy_stats(self, kind, ensemble):
        # the edge-count draw of each pooled trial runs in numpy, so a pool
        # worker imports neither scipy.stats nor the scipy.special under it
        code = textwrap.dedent(f"""\
            import sys
            from hypergraph_spectra import experiments
            experiments.run_experiment(experiments.ExperimentConfig(
                kind="{kind}", ensemble="{ensemble}", n=30, r=3, trials=2, threads=2))
            print([m in sys.modules for m in ("scipy.stats", "scipy.special")])
        """)
        assert fresh_interpreter(code) == "[False, False]"

    def test_bernoulli_golden_and_benchmark_configs_leave_scipy_stats_unloaded(self):
        # every golden record that samples hypergraphs, then the benchmark's
        # bernoulli_sparse config at its seed
        configs = [case for case in CASES.values() if case.get("ensemble") == BERNOULLI
                   or case["kind"] == "universality"]
        configs.append(dict(kind="universality", ensemble=BERNOULLI, n=200, r=3, p=0.3,
                            trials=1, master_seed=51))
        code = textwrap.dedent(f"""\
            import sys
            from hypergraph_spectra.experiments import ExperimentConfig, run_experiment
            for config in {configs!r}:
                run_experiment(ExperimentConfig(**config))
                print("scipy.stats" in sys.modules)
        """)
        assert fresh_interpreter(code).splitlines() == ["False"] * len(configs)

    def test_diagnostics_samples_nothing(self):
        # diagnostics reports how sparse a model is, so a Bernoulli model far past
        # the edge budget builds and runs, and the edge-count draw's scipy.stats
        # is never imported
        code = textwrap.dedent("""\
            import sys
            from hypergraph_spectra.experiments import ExperimentConfig, run_experiment
            rec = run_experiment(ExperimentConfig(
                kind="diagnostics", n=2000, r=5, p=0.5, ensemble="bernoulli_hypergraph"))
            print(f"{rec.aggregate['d_avg']:.2g}", "scipy.stats" in sys.modules)
        """)
        assert fresh_interpreter(code) == "3.3e+11 False"

    def test_concurrent_first_lanczos_solves_match_serial(self):
        # two threads reach the first Lanczos solve, which loads the OpenBLAS
        # handles, at once; then a pooled edge_bbp against the serial record
        code = textwrap.dedent("""\
            import sys
            from concurrent.futures import ThreadPoolExecutor
            from hypergraph_spectra.combinatorics import ModelParams
            from hypergraph_spectra.experiments import ExperimentConfig, run_experiment
            from hypergraph_spectra.gham import sample_surrogate
            from hypergraph_spectra.spectra import extreme_eigenvalues
            gs = [sample_surrogate(ModelParams(n=300, r=3, p=0.5), s)[1] for s in (1, 2)]
            assert "scipy.sparse.linalg" not in sys.modules
            with ThreadPoolExecutor(2) as pool:
                pooled = list(pool.map(lambda g: extreme_eigenvalues(g, 2, 5), gs))
            serial = [extreme_eigenvalues(g, 2, 5) for g in gs]
            print([a.tobytes() == b.tobytes() for a, b in zip(pooled, serial)])
            base = dict(kind="edge_bbp", n=300, r=3, trials=2, master_seed=6)
            pooled = run_experiment(ExperimentConfig(**base, threads=2))
            serial = run_experiment(ExperimentConfig(**base, threads=1))
            print([pooled.trials == serial.trials, pooled.aggregate == serial.aggregate,
                   pooled.data["eigenvalues"].tobytes() == serial.data["eigenvalues"].tobytes()])
        """)
        assert fresh_interpreter(code).splitlines() == ["[True, True]", "[True, True, True]"]
