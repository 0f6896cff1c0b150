"""Command-line front end: sample hypergraphs, build and solve matrices,
evaluate and convolve laws, compare distributions, and run experiment suites.

Exit codes: 0 ok, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, laws, metrics, spectra
from .combinatorics import (
    ModelParams,
    SamplingBudgetError,
    average_degree,
    load_hypergraph_json,
    sample_hypergraph,
    save_hypergraph_json,
)
from .gham import MATRICES
from .spectra import Scaling, load_spectrum_csv, save_spectrum_csv, symmetric_eigenvalues
from .svgplot import render_histogram_svg


def _parse_compare_input(text: str):
    """Comparison operand: an eigenvalue CSV path or a law descriptor."""
    path = Path(text)
    if path.exists() and path.suffix == ".csv":
        return load_spectrum_csv(path)
    return laws.law_from_descriptor(text)


def cmd_sample(args) -> int:
    params = ModelParams(n=args.n, r=args.r, p=args.p)
    sample = sample_hypergraph(params, args.seed or 0)
    out = Path(args.out or Path(args.out_dir) / f"hypergraph_n{args.n}_r{args.r}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_hypergraph_json(sample, out)
    print(f"edges: {len(sample.edges)}")
    print(f"average degree: {average_degree(params):.6g}")
    print(f"wrote {out}")
    return 0


def cmd_spectrum(args) -> int:
    if args.input:
        sample = load_hypergraph_json(args.input)
        params, ensemble, seed = sample.params, experiments.BERNOULLI, sample.seed
        h = experiments._hypergraph_gham(sample)
    elif args.surrogate:
        if args.n is None or args.r is None:
            raise ValueError("surrogate mode needs -n and -r")
        ensemble, seed = experiments.SURROGATE, args.seed or 0
        params = ModelParams(args.n, args.r, 0.5)  # the surrogate reads n and r alone
        experiments._check_r_below_n(params)
        h, _ = experiments._ENSEMBLES[ensemble][0](params, seed)
    else:
        raise ValueError("spectrum needs --input FILE or --surrogate")
    scaling = Scaling(args.scaling)
    lam = symmetric_eigenvalues(MATRICES[args.matrix](h, params.r), scaling=scaling, r=params.r)
    out = Path(args.out or Path(args.out_dir) / "spectrum.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_spectrum_csv(lam, out, ensemble, seed, scaling)
    print(f"wrote {out} ({lam.size} eigenvalues)")
    if args.svg:
        overlays = []
        for desc in args.overlay or []:
            law = laws.law_from_descriptor(desc)
            lo, hi = law.support()
            lo = min(lo, float(lam.min()))
            hi = max(hi, float(lam.max()))
            xs = np.linspace(lo, hi, 400)
            overlays.append((desc, xs, law.density(xs)))
        render_histogram_svg(
            lam,
            args.svg,
            bins=args.bins,
            overlays=overlays,
            title=args.title or f"ESD ({ensemble}, n={params.n}, r={params.r})",
        )
        print(f"wrote {args.svg}")
    return 0


def cmd_experiment(args) -> int:
    overrides = {
        key: value
        for key, value in (
            ("kind", args.kind),
            ("n", args.n),
            ("r", args.r),
            ("p", args.p),
            ("trials", args.trials),
            ("regime", args.regime),
            ("ensemble", args.ensemble),
            ("matrix", args.matrix_kind),
            ("k", args.k),
            ("tolerance", args.tolerance),
            ("master_seed", args.seed),
            ("threads", args.threads),
        )
        if value is not None
    }
    payload = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(payload, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    payload.pop("schema_version", None)
    payload.update(overrides)
    fields = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}
    unknown = sorted(payload.keys() - fields)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if not {"kind", "n", "r"} <= payload.keys():
        raise ValueError("experiment needs --kind, -n and -r (or --config)")
    cfg = experiments.ExperimentConfig(**payload)
    record = experiments.run_experiment(cfg)
    run_dir = experiments.persist_record(record, args.out_dir, timestamp=args.timestamp)
    print(f"record: {run_dir}")
    if args.format == "json":
        print(json.dumps(record.aggregate, indent=2))
    else:
        print(f"{'key':<28}{'value'}")
        for key, value in record.aggregate.items():
            if isinstance(value, float):
                print(f"{key:<28}{value:.6g}")
            else:
                print(f"{key:<28}{value}")
    if "passed" in record.aggregate:
        print("PASS" if record.aggregate["passed"] else "FAIL")
    return 0


def cmd_laws(args) -> int:
    if args.action == "evaluate":
        law = laws.law_from_descriptor(args.law)
        lo, hi = law.support()
        xs = np.linspace(args.lo if args.lo is not None else lo,
                         args.hi if args.hi is not None else hi, args.points)
        fs = law.density(xs)
        if args.format == "json":
            out = Path(args.out or Path(args.out_dir) / "law.json")
            out.write_text(json.dumps({"x": xs.tolist(), "f": fs.tolist()}))
        else:
            out = Path(args.out or Path(args.out_dir) / "law.csv")
            np.savetxt(out, np.column_stack([xs, fs]), delimiter=",", header="x,f")
        print(f"wrote {out}")
        return 0
    # convolve
    law1, law2 = laws.law_from_descriptor(args.law), laws.law_from_descriptor(args.law2)
    spec = laws.GridSpec(lo=args.lo, hi=args.hi, points=args.points)
    grid = laws.free_additive_convolution(law1, law2, spec)
    out = Path(args.out or Path(args.out_dir) / "convolution.csv")
    grid.save_csv(out)
    print(f"wrote {out} (mass {grid.mass():.6f}, variance {grid.variance():.6f})")
    return 0


def cmd_metrics(args) -> int:
    a = _parse_compare_input(args.a)
    b = _parse_compare_input(args.b)
    report = metrics.metric_report(a, b, notes=f"a={args.a} b={args.b}")
    print(report.to_json())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgspec",
        description="Spectral Monte-Carlo laboratory for random r-uniform hypergraphs",
    )
    parser.add_argument("--seed", type=int, help="master seed (default 0, or a config file's)")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument(
        "--threads", type=int,
        help="experiment trial pool size (default 1, or a config file's), capped at the "
        "usable cores and trial count; above 1 every trial runs the bundled OpenBLAS at one thread",
    )
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="sample a random hypergraph to JSON")
    p_sample.add_argument("-n", type=int, required=True)
    p_sample.add_argument("-r", type=int, required=True)
    p_sample.add_argument("-p", type=float, required=True)
    p_sample.add_argument("--out")
    p_sample.set_defaults(func=cmd_sample)

    p_spec = sub.add_parser("spectrum", help="build a matrix, solve, export CSV/SVG")
    p_spec.add_argument("--input", help="hypergraph JSON (Bernoulli ensemble)")
    p_spec.add_argument("--surrogate", action="store_true", help="Gaussian surrogate")
    p_spec.add_argument("-n", type=int)
    p_spec.add_argument("-r", type=int)
    p_spec.add_argument("--matrix", choices=experiments.MATRIX_KINDS, default="gham")
    p_spec.add_argument(
        "--scaling", choices=[s.value for s in Scaling], default=Scaling.BY_SQRT_N.value
    )
    p_spec.add_argument("--out")
    p_spec.add_argument("--svg")
    p_spec.add_argument("--overlay", action="append", help="law descriptor to overlay")
    p_spec.add_argument("--bins", type=int, default=60)
    p_spec.add_argument("--title")
    p_spec.set_defaults(func=cmd_spectrum)

    p_exp = sub.add_parser("experiment", help="run a Monte-Carlo experiment suite")
    p_exp.add_argument("--kind", choices=list(experiments.EXPERIMENT_KINDS))
    p_exp.add_argument("--config", help="JSON config file (flags override)")
    p_exp.add_argument("-n", type=int)
    p_exp.add_argument("-r", type=int)
    p_exp.add_argument("-p", type=float)
    p_exp.add_argument("--trials", type=int)
    p_exp.add_argument("--ensemble", choices=list(experiments._ENSEMBLES))
    p_exp.add_argument("--matrix-kind", choices=experiments.MATRIX_KINDS, dest="matrix_kind")
    p_exp.add_argument("--regime")
    p_exp.add_argument("--k", type=int)
    p_exp.add_argument("--tolerance", type=float)
    p_exp.add_argument("--timestamp", help="override run-directory timestamp")
    p_exp.set_defaults(func=cmd_experiment)

    p_laws = sub.add_parser("laws", help="evaluate or convolve analytic laws")
    p_laws.add_argument("action", choices=["evaluate", "convolve"])
    p_laws.add_argument("--law", required=True)
    p_laws.add_argument("--law2")
    p_laws.add_argument("--lo", type=float)
    p_laws.add_argument("--hi", type=float)
    p_laws.add_argument("--points", type=int, default=2001)
    p_laws.add_argument("--out")
    p_laws.set_defaults(func=cmd_laws)

    p_met = sub.add_parser("metrics", help="compare two spectra or laws")
    p_met.add_argument("--a", required=True, help="eigenvalue CSV or law descriptor")
    p_met.add_argument("--b", required=True, help="eigenvalue CSV or law descriptor")
    p_met.add_argument("--out")
    p_met.set_defaults(func=cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "laws" and args.action == "convolve" and not args.law2:
        parser.error("convolve needs --law2")
    try:
        return args.func(args)
    # RegimeError and json.JSONDecodeError are ValueErrors
    except (SamplingBudgetError, laws.ConvergenceError, spectra.EigensolverError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
