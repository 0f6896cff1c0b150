"""Workloads, timing loop, correctness gate and reporting of the experiment
benchmark.  See README.md in this directory for the workload table and the
metric-to-workload mapping; ``run.py`` is the command-line entry point.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from hypergraph_spectra import experiments
from hypergraph_spectra.experiments import ExperimentConfig

from hostclock import HostClock, slowdown
from spans import Tracer, check_self_time_sums, run_summary

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

MIN_ROUNDS = 3
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    seed: int
    held_out_seed: int
    # host-clock kernels whose slowdown rescales experiment_s and cpu_s
    host_kernels: tuple[str, ...]


# Model sizes follow the acceptance configs c02, c03 (r=4 leg) and c05.  Trial
# counts are cut so that one experiment takes 1-3 s on two cores and a run
# holds enough experiments for a steady median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bernoulli_sparse",
            dict(kind="universality", ensemble="bernoulli_hypergraph", n=200, r=3,
                 p=0.3, trials=1, threads=1, tolerance=0.05),
            seed=51, held_out_seed=151, host_kernels=("py",),
        ),
        Workload(
            "bernoulli_dense",
            dict(kind="bulk", ensemble="bernoulli_hypergraph", n=150, r=3, p=0.7,
                 trials=1, threads=1, tolerance=0.05),
            seed=5, held_out_seed=105, host_kernels=("py",),
        ),
        Workload(
            "surrogate_edge",
            dict(kind="edge_bbp", n=2000, r=4, trials=2, threads=2, tolerance=0.15),
            seed=7, held_out_seed=107, host_kernels=("blas",),
        ),
        Workload(
            "laplacian_bulk",
            dict(kind="laplacian_bulk", matrix="laplacian_tilde", regime="fixed_r",
                 n=800, r=3, trials=10, threads=1, tolerance=0.06),
            seed=3, held_out_seed=103, host_kernels=("py", "blas"),
        ),
    )
}

# set-up is a fresh interpreter importing modules: single-threaded Python
SETUP_KERNELS = ("py",)

# eigenvalues each experiment kind reads from one solve; kinds not listed read all
EIGENVALUES_READ = {"edge_bbp": 2}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------- set-up


def _fresh_interpreter(code: str) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    return time.perf_counter() - t0, proc.stdout


_STAGED_IMPORT = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.stats
t2 = time.perf_counter()
import hypergraph_spectra.cli
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


def setup_sample(staged: bool, out: dict[str, list[float]]) -> None:
    """Time one fresh interpreter importing the CLI; with ``staged``, record
    the split into numpy, scipy.stats and the rest of the package instead."""
    if staged:
        _, stdout = _fresh_interpreter(_STAGED_IMPORT)
        numpy_s, scipy_s, package_s = json.loads(stdout)
        out["cli.import_numpy_s"].append(numpy_s)
        out["cli.import_scipy_stats_s"].append(scipy_s)
        out["cli.import_package_s"].append(package_s)
    else:
        wall, _ = _fresh_interpreter("import hypergraph_spectra.cli")
        out["setup_s"].append(wall)


# ---------------------------------------------------------------- provenance


def git_revision(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git (which would
    search parent directories); None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "threads": threads,
        "git_revision": git_revision(ROOT),
    }


# ---------------------------------------------------------------- experiments


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    persist_bytes: int
    fingerprint: str


def fingerprint(record) -> str:
    """Exact text of the rows and aggregate (floats by repr, so equal text
    means bit-identical values)."""
    return json.dumps({"trials": record.trials, "aggregate": record.aggregate}, sort_keys=True)


def run_once(cfg: ExperimentConfig, work: Path):
    """One ``run_experiment`` plus ``persist_record``, as ``hgspec experiment``
    does after set-up; returns the timing sample and the record."""
    out_dir = Path(tempfile.mkdtemp(dir=work))
    try:
        t0 = time.perf_counter()
        c0 = time.process_time()
        record = experiments.run_experiment(cfg)
        run_dir = experiments.persist_record(record, out_dir)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        nbytes = sum(p.stat().st_size for p in run_dir.iterdir())
    finally:
        shutil.rmtree(out_dir)
    return Sample(wall, cpu, nbytes, fingerprint(record)), record


class Gate:
    """Counts experiments attempted and failed.  An experiment fails when it
    raises, when its aggregate does not pass its tolerance, or when its rows
    and aggregate differ from the first experiment of the run.  ``problems``
    also collects failures of the run's own checks; the run is correct only
    when it is empty."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None

    def run(self, cfg: ExperimentConfig, work: Path, label: str) -> Sample | None:
        """The experiment's sample, or None when it failed."""
        self.attempted += 1
        try:
            sample, record = run_once(cfg, work)
        except Exception:
            traceback.print_exc()
            return self.reject(f"{label}: raised")
        if record.aggregate.get("passed") is not True:
            return self.reject(f"{label}: failed its tolerance gate")
        if self.reference is None:
            self.reference = sample.fingerprint
        elif sample.fingerprint != self.reference:
            return self.reject(f"{label}: rows or aggregate differ from the first record")
        return sample

    def reject(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def layer_metrics(summary: dict, kind: str) -> dict[str, float]:
    """Per-layer metric values of one traced experiment."""
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    solves = calls.get("spectra.eigensolve", 0)
    computed = counts.get("eigenvalues_computed", 0)
    read = solves * EIGENVALUES_READ[kind] if kind in EIGENVALUES_READ else computed
    out = {
        f"{name}.self_s": self_s.get(name, 0.0)
        for name in (
            "combinatorics.sample_hypergraph",
            "gham.adjacency_from_hypergraph",
            "gham.gham_from_adjacency",
            "gham.sample_surrogate",
            "gham.laplacian",
            "spectra.eigensolve",
            "spectra.symmetric_eigenvalues",
            "laws.free_additive_convolution",
            "metrics.ks_distance",
            "metrics.w1_distance",
            "metrics.bl_upper_bound",
            "metrics.hausdorff_spectra",
            "experiments.run_experiment",
            "experiments.persist_record",
        )
    }
    out.update(
        {
            "combinatorics.sample_hypergraph.calls": calls.get("combinatorics.sample_hypergraph", 0),
            "combinatorics.edges": counts.get("edges", 0),
            "gham.matrix_bytes_computed": counts.get("matrix_bytes", 0),
            "spectra.eigensolve.calls": solves,
            "spectra.eigensolve.call_s_median": summary["call_s_median"].get("spectra.eigensolve", 0.0),
            "spectra.eigensolve.gflop_computed": counts.get("eigensolve_gflop", 0.0),
            "spectra.eigenvalues_used_ratio": read / computed if computed else 0.0,
            "laws.free_additive_convolution.calls": calls.get("laws.free_additive_convolution", 0),
            "experiments.pool_busy_ratio": summary["pool_busy_ratio"],
        }
    )
    return out


def load_checks(workload: str, shares: dict[str, float]) -> list[dict]:
    """Does the workload load the module it was chosen for?  Reported, not
    gated: later optimisations are meant to move these shares."""
    free_conv = shares.get("laws.free_additive_convolution", 0.0)
    checks = []
    if workload.startswith("bernoulli"):
        share = shares.get("combinatorics.sample_hypergraph", 0.0)
        checks.append({"rule": "sample_hypergraph share >= 0.80", "value": share, "ok": share >= 0.80})
    if workload == "surrogate_edge":
        layers = {k: v for k, v in shares.items() if not k.startswith("experiments.")}
        top = max(layers, key=layers.get)
        checks.append({"rule": "spectra.eigensolve has the largest share", "value": top,
                       "ok": top == "spectra.eigensolve"})
    if workload == "laplacian_bulk":
        checks.append({"rule": "free_additive_convolution share > 0", "value": free_conv, "ok": free_conv > 0})
    else:
        checks.append({"rule": "free_additive_convolution share == 0", "value": free_conv, "ok": free_conv == 0})
    return checks


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
            trials: int | None = None, min_rounds: int = MIN_ROUNDS) -> dict:
    """Warm up with one untimed experiment, then run at least ``min_rounds``
    rounds, and more while the next round (as long as the last one) still
    ends within ``seconds``.  A round is one host-clock sample, one untraced
    experiment, one traced experiment when ``trace``, and on every other round
    one fresh-interpreter set-up sample; one more host-clock sample follows
    the last round, so every round lies between two.  Interleaving spreads
    every metric's samples over the whole window; set-up is sampled half as often because its spread is not gated,
    which leaves more of the window to the experiments."""
    config = dict(workload.config, master_seed=seed)
    if trials is not None:
        config["trials"] = trials
    cfg = ExperimentConfig(**config)
    gate = Gate()
    tracer = Tracer()
    setup_samples: dict[str, list[float]] = defaultdict(list)
    setup_rounds: list[int] = []
    untraced: list[tuple[int, Sample]] = []
    traced: list[tuple[int, Sample]] = []
    host_kernels = tuple(dict.fromkeys(SETUP_KERNELS + workload.host_kernels))
    with HostClock(host_kernels) as clock:
        gate.run(cfg, work, "warm-up")
        deadline = time.perf_counter() + seconds
        rounds = 0
        last_round = 0.0
        while rounds < min_rounds or time.perf_counter() + last_round <= deadline:
            rounds += 1
            round_start = time.perf_counter()
            clock.sample()
            if rounds % 2:
                setup_sample(trace, setup_samples)
                setup_rounds.append(rounds)
            sample = gate.run(cfg, work, f"untraced {rounds}")
            if sample:
                untraced.append((rounds, sample))
            if trace:
                tracer.run = rounds
                with tracer.installed():
                    sample = gate.run(cfg, work, f"traced {rounds}")
                if sample:
                    traced.append((rounds, sample))
            last_round = time.perf_counter() - round_start
        clock.sample()
    result = {
        "config": cfg.to_dict(),
        "gate": gate,
        "setup": setup_samples,
        "setup_rounds": setup_rounds,
        "untraced": untraced,
        "host": clock.samples,
        "host_kernels": workload.host_kernels,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        result.update(_trace_report(workload, cfg, tracer, traced, untraced, gate))
    return result


def _trace_report(workload, cfg, tracer, traced, untraced, gate) -> dict:
    by_run = defaultdict(list)
    for span in tracer.spans:
        by_run[span.run].append(span)
    per_run = []
    for run, sample in traced:
        spans = by_run[run]
        problems = check_self_time_sums(spans)
        summary = run_summary(spans, tracer.counts[run], cfg.threads)
        # the main thread is inside run_experiment or persist_record for the
        # whole measured wall time, up to the shims' own call overhead
        if abs(summary["main_thread_self_s"] - sample.wall_s) > 1e-2 * sample.wall_s:
            problems.append(
                f"run {run}: main-thread self times {summary['main_thread_self_s']!r} "
                f"against measured wall {sample.wall_s!r}"
            )
        if problems:
            gate.reject(f"traced {run}: " + "; ".join(problems))
            continue
        metrics = layer_metrics(summary, cfg.kind)
        metrics["experiments.persist_bytes"] = sample.persist_bytes
        per_run.append((metrics, summary["shares"]))
    layers = {
        key: _median([m[key] for m, _ in per_run]) for key in (per_run[0][0] if per_run else {})
    }
    if traced and untraced:
        layers["trace.overhead_s"] = (
            _median([s.wall_s for _, s in traced]) - _median([s.wall_s for _, s in untraced])
        )
    shares = {
        key: _median([sh.get(key, 0.0) for _, sh in per_run])
        for key in {k for _, sh in per_run for k in sh}
    }
    return {
        "layers": layers,
        "traced": [s for _, s in traced],
        "shares": shares,
        "load_checks": load_checks(workload.name, shares),
        "tracer": tracer,
    }


# ---------------------------------------------------------------- reporting


def metric_values(result: dict, trace: bool) -> tuple[dict, dict, dict]:
    """Metric values of one run, their raw medians and, for each median, its
    sample count.  Each end-to-end timing is the median over its samples of
    the sample divided by the host slowdown around its round (hostclock.py),
    i.e. seconds at the reference host's speed; ``peak_rss_mb`` and the
    per-layer values are as measured."""
    setup = result["setup"]
    raw = {key: _median(v) for key, v in setup.items()}
    counts = {key: len(v) for key, v in setup.items()}
    if trace:
        raw.update(result["layers"])
        return raw, raw, counts
    untraced = result["untraced"]
    rounds = {
        "setup_s": list(zip(result["setup_rounds"], setup["setup_s"])),
        "experiment_s": [(r, s.wall_s) for r, s in untraced],
        "cpu_s": [(r, s.cpu_s) for r, s in untraced],
    }
    values = {"peak_rss_mb": result["peak_rss_mb"]}
    for key, samples in rounds.items():
        raw[key] = _median([v for _, v in samples])
        counts[key] = len(samples)
        values[key] = _median([v / host_slowdown(result, key, r) for r, v in samples])
    return values, raw, counts


def host_slowdown(result: dict, metric: str, round_: int) -> float:
    """Host slowdown between the host-clock samples taken before and after
    round ``round_``, in the kernels and on the clock that match ``metric``."""
    kernels = SETUP_KERNELS if metric == "setup_s" else result["host_kernels"]
    clock = "cpu" if metric == "cpu_s" else "wall"
    host = result["host"]
    return slowdown(host[round_ - 1], host[round_], kernels, clock)


def missing_metrics(values: dict, spec: dict, trace: bool) -> list[str]:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return [m["name"] for m in wanted if values.get(m["name"]) is None]


def run_workload(name: str, seed: int | None, seconds: int, trace: bool) -> int:
    spec = load_spec()
    workload = WORKLOADS[name]
    seed = workload.seed if seed is None else seed
    prov = provenance(workload.config["threads"])
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        result = measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work)
    gate = result["gate"]
    values, raw, counts = metric_values(result, trace)
    gate.problems += [f"metric {m} was not measured" for m in missing_metrics(values, spec, trace)]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    error_rate = gate.failed / gate.attempted

    print(f"workload {name}: master seed {seed} (held-out seed {workload.held_out_seed}), "
          f"trials {workload.config['trials']}, threads {workload.config['threads']}")
    for key, metric in metrics.items():
        note = f"  (median of {counts[key]})" if key in counts else ""
        if not trace and key in counts:
            note += f", raw {raw[key]!r} {metric['unit']}"
        print(f"  {key:42s} {metric['value']!r} {metric['unit']}{note}")
    if not trace:
        slow = {key: _median([host_slowdown(result, key, r) for r in range(1, len(result["host"]))])
                for key in ("setup_s", "experiment_s", "cpu_s")}
        print(f"  median host slowdown against the reference ({len(result['host'])} samples): "
              + ", ".join(f"{k} {v:.4f}" for k, v in slow.items()))
    print(f"  {'error_rate':42s} {error_rate!r}  ({gate.failed} of {gate.attempted} experiments)")
    for check in result.get("load_checks", []):
        print(f"  load check {'ok' if check['ok'] else 'NOT MET'}: {check['rule']} ({check['value']})")
    for problem in gate.problems:
        print(f"  FAILED {problem}")
    print("provenance " + json.dumps(prov))

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name,
        "config": result["config"],
        "provenance": prov,
        "samples": {
            "setup": result["setup"],
            "setup_rounds": result["setup_rounds"],
            "untraced": [dict(vars(s), round=r) for r, s in result["untraced"]],
            "traced": [vars(s) for s in result.get("traced", [])],
            "host": result["host"],
        },
        "raw_medians": raw,
        "metrics": metrics,
        "error_rate": error_rate,
        "problems": gate.problems,
        "shares": result.get("shares"),
        "load_checks": result.get("load_checks"),
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(result["tracer"].to_json()))

    correct = not gate.problems
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


def smoke(work: Path) -> list[str]:
    """Run every workload at one trial through the shims and the gate: a
    warm-up, then one round (staged set-up, untraced and traced experiment).
    Returns the problems found, empty when all passed."""
    spec = load_spec()
    problems = []
    for workload in WORKLOADS.values():
        result = measure(workload, workload.seed, 0, True, work, trials=1, min_rounds=1)
        values, _, _ = metric_values(result, trace=True)
        problems += [f"{workload.name}: {p}" for p in result["gate"].problems]
        problems += [f"{workload.name}: metric {m} was not measured"
                     for m in missing_metrics(values, spec, trace=True)]
    return problems
