"""Host-speed calibration for the experiment benchmark.

The benchmark runs on shared virtual machines whose speed drifts by 10-35%
over minutes, for pure Python and BLAS alike, so two sets of runs of the same
code can disagree by more than any useful bound.  A HostClock measures that
drift.  It keeps a child interpreter that imports numpy and nothing of the
package, and on request times fixed kernels in it:

- ``py``: single-threaded numpy sorting, hashing, scatter-adds and a Python
  dict loop, the operations of the Bernoulli sampler and of set-up;
- ``blas``: one values-only ``eigvalsh`` solve of a fixed 1000x1000 matrix,
  on as many BLAS threads as the environment gives.

Each kernel runs three times per sample and reports the median, so that a
burst of contention shorter than a kernel does not pass for a host state.

A sample is taken before every round of experiments and one after the
last, so each experiment is timed between two samples of the host it ran on.  The child runs in its own process with the environment the
benchmark started with, so nothing the package does to numpy, BLAS threads
or its own caches can change what the kernels cost.

Run as a script, this file is the child: it reads one line of
space-separated kernel names per request and answers with one JSON line
``{name: [wall_s, cpu_s]}``, until its standard input closes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Median kernel times (each the median of REPEATS) on the reference host (2 vCPUs of a shared x86-64
# virtual machine, Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31, no BLAS
# thread variables set), measured over 40 samples.  A run that finds its
# kernels at exactly these times reports its timings unchanged.
REFERENCE_S = {
    "py": {"wall": 0.125, "cpu": 0.125},
    "blas": {"wall": 0.085, "cpu": 0.164},
}


# ---------------------------------------------------------------- the child


def _py_kernel() -> None:
    import numpy as np

    rng = np.random.default_rng(20240903)
    codes = rng.integers(0, 1 << 40, size=150_000, dtype=np.uint64)
    unique = np.unique(codes)
    np.isin(codes[:75_000], unique[::3])
    keys = rng.random((11_000, 50))
    np.argpartition(keys, 2, axis=1)
    acc = np.zeros((200, 200))
    np.add.at(acc, (rng.integers(0, 200, 55_000), rng.integers(0, 200, 55_000)), 1.0)
    table: dict[int, int] = {}
    for i in range(55_000):
        key = i & 4095
        table[key] = table.get(key, 0) + i


_MATRIX = None


def _blas_kernel() -> None:
    import numpy as np

    global _MATRIX
    if _MATRIX is None:
        a = np.random.default_rng(7).standard_normal((1000, 1000))
        _MATRIX = a + a.T
    np.linalg.eigvalsh(_MATRIX)


KERNELS = {"py": _py_kernel, "blas": _blas_kernel}
REPEATS = 3


def _serve() -> None:
    import numpy  # noqa: F401  (imported before the first request is timed)

    for line in sys.stdin:
        answer = {}
        for name in line.split():
            times = []
            for _ in range(REPEATS):
                t0, c0 = time.perf_counter(), time.process_time()
                KERNELS[name]()
                times.append((time.perf_counter() - t0, time.process_time() - c0))
            answer[name] = [statistics.median(column) for column in zip(*times)]
        print(json.dumps(answer), flush=True)


# ---------------------------------------------------------------- the parent


class HostClock:
    """Times ``kernels`` in a child interpreter on each ``sample()``.  Use it
    as a context manager: the child is started on entry, after one untimed
    warm-up request, and stopped and waited for on exit."""

    def __init__(self, kernels: tuple[str, ...]):
        unknown = set(kernels) - set(KERNELS)
        if unknown:
            raise ValueError(f"unknown kernels {sorted(unknown)}")
        self.kernels = tuple(kernels)
        self.samples: list[dict[str, list[float]]] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "HostClock":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        try:
            self._request()
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _request(self) -> dict[str, list[float]]:
        self._proc.stdin.write(" ".join(self.kernels) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host clock child exited with code {self._proc.wait()}")
        return json.loads(line)

    def sample(self) -> None:
        self.samples.append(self._request())

    def _stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def slowdown(before: dict, after: dict, kernels: tuple[str, ...], clock: str) -> float:
    """Host slowdown over the stretch between two samples: the mean of their
    summed ``kernels`` times on ``clock`` ("wall" or "cpu"), divided by the
    same sum on the reference host.  Above 1 when this host ran slower than
    the reference."""
    column = {"wall": 0, "cpu": 1}[clock]
    measured = sum(before[k][column] + after[k][column] for k in kernels) / 2
    return measured / sum(REFERENCE_S[k][clock] for k in kernels)


if __name__ == "__main__":
    _serve()
