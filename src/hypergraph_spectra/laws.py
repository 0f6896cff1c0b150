"""Analytic limit laws on the real line and their free additive convolution.

Every law implements one abstract interface, ``Law``: density, cdf, the
antiderivative of the cdf, Stieltjes transform, variance, support and a JSON
descriptor.  ``Law`` owns the evaluation contract: density, cdf, cdf_integral
and stieltjes convert the input to a float64 (complex128) array, reject
Im z <= 0 for stieltjes, call the kind's array-only kernel ``_density``,
``_cdf``, ``_cdf_integral`` or ``_stieltjes``, and return a Python scalar for
a 0-d input, else an array of the input's shape.  The kinds are the
semicircle and centered Gaussian families, finite empirical laws (which cover
point masses; they have no density), and lazily-solved free additive
convolutions.  ``law_from_descriptor`` is the one parser: it takes a
descriptor dict, inline JSON, a ``.json`` path or the shorthand kind:sigma2,
and raises ValueError on a malformed one.  The Gaussian cdf and Stieltjes
transform import ``scipy.special`` at their first call.

The free additive convolution of two laws is computed through the standard
pair of subordination functions: writing F_i(w) = -1/S_i(w) for the reciprocal
Cauchy transform and h_i(w) = F_i(w) - w, the second subordination function is
the fixed point of

    T(omega) = z + h_1(z + h_2(omega)),

after which S(z) = S_1(z + h_2(omega)).  Since Im h_i >= 0, T maps the upper
half plane into itself, and Belinschi and Bercovici (2007, J. Anal. Math. 101)
prove that its plain iterates converge there from any start, so no damping or
warm start is needed.  Densities are read off as Im S / pi in one solve at the
inversion offset (a module constant, 1e-9), where the Poisson smoothing bias is
negligible even at square-root edges.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Law",
    "SemicircleLaw",
    "GaussianLaw",
    "EmpiricalLaw",
    "FreeConvolutionLaw",
    "DensityGrid",
    "GridSpec",
    "ConvergenceError",
    "free_convolution_stieltjes",
    "free_additive_convolution",
    "law_from_descriptor",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)

# subordination fixed point: relative tolerance, iteration cap, and the
# imaginary offset of the density inversion
_TOL = 1e-11
_MAX_ITER = 100_000
_INVERSION_EPS = 1e-9

# cap on the atoms x points block an empirical Stieltjes transform holds at once
_STIELTJES_BLOCK = 1 << 20


class ConvergenceError(RuntimeError):
    """Subordination fixed point failed to converge.

    Carries the worst offending point and its residual for diagnosis.
    """

    def __init__(self, message: str, z: complex | None = None, residual: float | None = None):
        super().__init__(message)
        self.z = z
        self.residual = residual


class Law(ABC):
    """A probability law on the real line."""

    @staticmethod
    def _evaluate(kernel, x: np.ndarray):
        out = kernel(x)
        return out.item() if out.ndim == 0 else out

    def density(self, x):
        """Lebesgue density; a law without one raises ValueError."""
        return self._evaluate(self._density, np.asarray(x, dtype=float))

    def cdf(self, x):
        """Distribution function F(x) = P(X <= x)."""
        return self._evaluate(self._cdf, np.asarray(x, dtype=float))

    def cdf_integral(self, x):
        """Antiderivative int_{-inf}^x F(t) dt of the CDF: the metrics layer
        builds every Wasserstein-1 area from it, with no quadrature fallback."""
        return self._evaluate(self._cdf_integral, np.asarray(x, dtype=float))

    def stieltjes(self, z):
        """Stieltjes transform int dmu(t) / (t - z), for Im z > 0."""
        z = np.asarray(z, dtype=complex)
        if np.any(z.imag <= 0):
            raise ValueError("Stieltjes transforms are defined for Im z > 0 only")
        return self._evaluate(self._stieltjes, z)

    @abstractmethod
    def _density(self, x: np.ndarray): ...

    @abstractmethod
    def _cdf(self, x: np.ndarray): ...

    @abstractmethod
    def _cdf_integral(self, x: np.ndarray): ...

    @abstractmethod
    def _stieltjes(self, z: np.ndarray): ...

    @abstractmethod
    def variance(self) -> float:
        """Variance of the law."""

    @abstractmethod
    def support(self) -> tuple[float, float]:
        """Interval carrying all but a negligible (< 1e-13) sliver of mass."""

    @abstractmethod
    def descriptor(self) -> dict:
        """JSON-ready description that ``law_from_descriptor`` rebuilds."""


class SemicircleLaw(Law):
    """Semicircle law of variance sigma2, supported on [-2s, 2s]."""

    def __init__(self, sigma2: float):
        if sigma2 <= 0:
            raise ValueError(f"variance must be positive, got {sigma2}")
        self.sigma2 = float(sigma2)

    def _density(self, x):
        # sqrt(4 sigma^2 - x^2) / (2 pi sigma^2) on the support
        inside = np.clip(4.0 * self.sigma2 - x * x, 0.0, None)
        return np.sqrt(inside) / (2.0 * math.pi * self.sigma2)

    def _cdf(self, x):
        t = np.clip(x / (2.0 * math.sqrt(self.sigma2)), -1.0, 1.0)
        return 0.5 + t * np.sqrt(1.0 - t * t) / math.pi + np.arcsin(t) / math.pi

    def _stieltjes(self, z):
        # closed form (-z + sqrt(z^2 - 4 sigma^2)) / (2 sigma^2), on the branch
        # mapping the upper half plane to itself
        root = np.sqrt(z * z - 4.0 * self.sigma2)
        cand = (-z + root) / (2.0 * self.sigma2)
        return np.where(cand.imag > 0, cand, (-z - root) / (2.0 * self.sigma2))

    def variance(self) -> float:
        return self.sigma2

    def support(self) -> tuple[float, float]:
        edge = 2.0 * math.sqrt(self.sigma2)
        return (-edge, edge)

    def _cdf_integral(self, x):
        # int F = x F(x) + (4 s^2 - x^2)^{3/2} / (6 pi s^2) inside the support,
        # extended linearly (slope 1) to the right of it
        edge = 2.0 * math.sqrt(self.sigma2)
        xc = np.clip(x, -edge, edge)
        inner = xc * self._cdf(xc) + np.clip(
            4.0 * self.sigma2 - xc * xc, 0.0, None
        ) ** 1.5 / (6.0 * math.pi * self.sigma2)
        return inner + np.clip(x - edge, 0.0, None)

    def descriptor(self) -> dict:
        return {"kind": "semicircle", "sigma2": self.sigma2}

    def __repr__(self):
        return f"SemicircleLaw(sigma2={self.sigma2})"


class GaussianLaw(Law):
    """Centered Gaussian law of variance sigma2."""

    def __init__(self, sigma2: float):
        if sigma2 <= 0:
            raise ValueError(f"variance must be positive, got {sigma2}")
        self.sigma2 = float(sigma2)

    def _density(self, x):
        return np.exp(-x * x / (2.0 * self.sigma2)) / (_SQRT2PI * math.sqrt(self.sigma2))

    def _cdf(self, x):
        from scipy.special import erf  # deferred: slow to import
        return 0.5 * (1.0 + erf(x / math.sqrt(2.0 * self.sigma2)))

    def _stieltjes(self, z):
        # via the Faddeeva function, S(z) = i sqrt(pi/2) w(z / sqrt(2)) at unit
        # variance, rescaled by S_sigma(z) = S_1(z/sigma)/sigma
        from scipy.special import wofz  # deferred: slow to import
        s = math.sqrt(self.sigma2)
        return 1j * math.sqrt(math.pi / 2.0) * wofz(z / (s * math.sqrt(2.0))) / s

    def variance(self) -> float:
        return self.sigma2

    def support(self) -> tuple[float, float]:
        # +-8.5 sigma leaves < 1e-16 mass outside
        half = 8.5 * math.sqrt(self.sigma2)
        return (-half, half)

    def _cdf_integral(self, x):
        # int F = x Phi(x) + sigma^2 phi(x); the derivative telescopes back to Phi
        return x * self._cdf(x) + self.sigma2 * self._density(x)

    def descriptor(self) -> dict:
        return {"kind": "gaussian", "sigma2": self.sigma2}

    def __repr__(self):
        return f"GaussianLaw(sigma2={self.sigma2})"


class EmpiricalLaw(Law):
    """Uniform law on finitely many real atoms (with multiplicity), kept
    ascending; EmpiricalLaw([0.0]) is the point mass at zero.  On the
    eigenvalues of a spectrum it is the empirical spectral distribution."""

    def __init__(self, atoms):
        a = np.asarray(atoms, dtype=float)
        if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a)):
            raise ValueError("atoms must be a nonempty 1-d array of finite values")
        self.atoms = np.sort(a)

    def _density(self, x):
        raise ValueError(f"law {self!r} is atomic and has no Lebesgue density")

    def _cdf(self, x):
        return np.searchsorted(self.atoms, x, side="right") / self.atoms.size

    def _stieltjes(self, z):
        flat = z.ravel()
        step = max(1, _STIELTJES_BLOCK // self.atoms.size)
        out = np.empty(flat.shape, dtype=complex)
        for i in range(0, flat.size, step):
            block = flat[i : i + step]
            out[i : i + step] = np.mean(1.0 / (self.atoms[:, None] - block), axis=0)
        return out.reshape(z.shape)

    def variance(self) -> float:
        mu = float(np.mean(self.atoms))
        return float(np.mean(self.atoms**2)) - mu * mu

    def support(self) -> tuple[float, float]:
        return (float(self.atoms[0]), float(self.atoms[-1]))

    def _cdf_integral(self, x):
        prefix = np.concatenate([[0.0], np.cumsum(self.atoms)])
        pos = np.searchsorted(self.atoms, x, side="right")
        return (pos * x - prefix[pos]) / self.atoms.size

    def descriptor(self) -> dict:
        return {"kind": "empirical", "atoms": [float(a) for a in self.atoms]}

    def __repr__(self):
        return f"EmpiricalLaw({self.atoms.size} atoms)"


@dataclass
class GridSpec:
    """Target grid for a density reconstruction.

    lo/hi default to +-(2 s1 + 2 s2 + 4 sqrt(var1 + var2)), which safely
    contains the support of the convolution of the operands.
    """

    lo: float | None = None
    hi: float | None = None
    points: int = 2001

    def resolve(self, law1: Law, law2: Law) -> tuple[float, float]:
        if self.lo is not None and self.hi is not None:
            return self.lo, self.hi
        v1, v2 = law1.variance(), law2.variance()
        half = 2.0 * math.sqrt(v1) + 2.0 * math.sqrt(v2) + 4.0 * math.sqrt(v1 + v2)
        return (-half if self.lo is None else self.lo, half if self.hi is None else self.hi)


@dataclass
class DensityGrid:
    """Density values on a uniform grid, with the inversion offset used."""

    x: np.ndarray
    f: np.ndarray
    eps: float

    def mass(self) -> float:
        return float(np.trapezoid(self.f, self.x))

    def mean(self) -> float:
        return float(np.trapezoid(self.x * self.f, self.x) / self.mass())

    def variance(self) -> float:
        mu = self.mean()
        return float(np.trapezoid((self.x - mu) ** 2 * self.f, self.x) / self.mass())

    def save_csv(self, path: str | Path) -> None:
        np.savetxt(path, np.column_stack([self.x, self.f]), delimiter=",", header="x,f")


def _shift_transform(law: Law, w: np.ndarray) -> np.ndarray:
    # h(w) = F(w) - w with F = -1/S; Nevanlinna representation gives Im h >= 0,
    # but rounding can put a point on or below the real axis: it maps to nan
    inside = np.isfinite(w) & (w.imag > 0)
    if inside.all():
        return -1.0 / law.stieltjes(w) - w
    return np.where(inside, -1.0 / law.stieltjes(np.where(inside, w, 1j)) - w, np.nan)


def free_convolution_stieltjes(law1: Law, law2: Law, z) -> np.ndarray:
    """Stieltjes transform of law1 [+] law2 at points z in the upper half plane.

    The second subordination function omega is reached by plain iteration of
    T from omega = z.  Raises ConvergenceError if a point
    misses the relative tolerance ``_TOL`` within ``_MAX_ITER`` iterations, or
    if rounding carries its iterate off the upper half plane (it cannot return).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z.imag <= 0):
        raise ValueError("Stieltjes transforms are defined for Im z > 0 only")
    omega = z.copy()
    residual = np.full(z.shape, np.inf)
    active = np.ones(z.shape, dtype=bool)
    why = f"after {_MAX_ITER} iterations"
    for iteration in range(1, _MAX_ITER + 1):
        za, oa = z[active], omega[active]
        t = za + _shift_transform(law1, za + _shift_transform(law2, oa))
        lost = ~(np.isfinite(t) & (t.imag > 0))
        if lost.any():
            active[active] = lost
            why = f"iterate left the upper half plane at iteration {iteration}"
            break
        step = np.abs(t - oa)
        omega[active] = t
        residual[active] = step
        active[active] = step > _TOL * np.maximum(1.0, np.abs(oa))
        if not active.any():
            break
    if active.any():
        worst = int(np.argmax(np.where(active, residual, -np.inf)))
        raise ConvergenceError(
            f"subordination fixed point did not converge at z={z.flat[worst]} "
            f"(residual {residual.flat[worst]:.3e}; {why})",
            z=complex(z.flat[worst]),
            residual=float(residual.flat[worst]),
        )
    return law1.stieltjes(z + _shift_transform(law2, omega))


def free_additive_convolution(law1: Law, law2: Law, grid: GridSpec | None = None) -> DensityGrid:
    """Density of the free additive convolution law1 [+] law2 on a grid.

    One solve of the subordination fixed point at ``x + 1j * _INVERSION_EPS``,
    started from omega = z, and the density read off as Im S / pi.  The
    resulting mass must land within 1e-3 of 1 or a ConvergenceError is raised.

    Examples
    --------
    The semicircle family is stable with additive variance:

    >>> out = free_additive_convolution(SemicircleLaw(1.0), SemicircleLaw(1.0))
    >>> bool(abs(out.variance() - 2.0) < 1e-3)
    True
    """
    spec = grid or GridSpec()
    lo, hi = spec.resolve(law1, law2)
    x = np.linspace(lo, hi, spec.points)
    s = free_convolution_stieltjes(law1, law2, x + 1j * _INVERSION_EPS)
    f = np.maximum(s.imag / math.pi, 0.0)
    out = DensityGrid(x=x, f=f, eps=_INVERSION_EPS)
    mass = out.mass()
    if not (0.999 <= mass <= 1.001):
        raise ConvergenceError(
            f"density mass {mass:.6f} outside [0.999, 1.001]; grid [{lo}, {hi}] "
            f"with {spec.points} points may not cover the support"
        )
    return out


class FreeConvolutionLaw(Law):
    """Free additive convolution of two operand laws, evaluated on demand.

    The density grid is solved lazily and cached; the Stieltjes transform is
    always computed directly from the subordination system (no interpolation).
    """

    def __init__(self, law1: Law, law2: Law):
        self.law1 = law1
        self.law2 = law2
        self._grid: DensityGrid | None = None
        self._cumulative_values: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def grid(self) -> DensityGrid:
        if self._grid is None:
            self._grid = free_additive_convolution(self.law1, self.law2)
        return self._grid

    def _density(self, x):
        g = self.grid
        return np.interp(x, g.x, g.f, left=0.0, right=0.0)

    def _cumulative(self) -> tuple[np.ndarray, np.ndarray]:
        """The CDF on the grid and its antiderivative, both by the trapezoid
        rule and both built once; grid-resolution limited."""
        if self._cumulative_values is None:
            g = self.grid
            dx = np.diff(g.x)
            inc = np.concatenate([[0.0], np.cumsum(0.5 * dx * (g.f[1:] + g.f[:-1]))])
            cdf = np.clip(inc / inc[-1], 0.0, 1.0)
            acc = np.concatenate([[0.0], np.cumsum(0.5 * dx * (cdf[1:] + cdf[:-1]))])
            self._cumulative_values = cdf, acc
        return self._cumulative_values

    def _cdf(self, x):
        return np.interp(x, self.grid.x, self._cumulative()[0], left=0.0, right=1.0)

    def _stieltjes(self, z):
        return free_convolution_stieltjes(self.law1, self.law2, z).reshape(z.shape)

    def variance(self) -> float:
        # second free cumulants (variances) add
        return self.law1.variance() + self.law2.variance()

    def support(self) -> tuple[float, float]:
        g = self.grid
        return (float(g.x[0]), float(g.x[-1]))

    def _cdf_integral(self, x):
        g, acc = self.grid, self._cumulative()[1]
        return np.interp(x, g.x, acc, left=0.0, right=acc[-1]) + np.clip(x - g.x[-1], 0.0, None)

    def descriptor(self) -> dict:
        return {
            "kind": "free_convolution",
            "operands": [self.law1.descriptor(), self.law2.descriptor()],
        }

    def __repr__(self):
        return f"FreeConvolutionLaw({self.law1!r}, {self.law2!r})"


def law_from_descriptor(descriptor: dict | str) -> Law:
    """Build a law from its descriptor: a dict as ``Law.descriptor`` writes
    it, or a string holding inline JSON, the path of a ``.json`` file, or the
    shorthand kind:sigma2 of a semicircle or Gaussian ('semicircle:0.64';
    sigma2 defaults to 1).  A malformed descriptor raises ValueError."""
    if isinstance(descriptor, str):
        text = descriptor.strip()
        if text.startswith("{"):
            return law_from_descriptor(json.loads(text))
        path = Path(text)
        if path.suffix == ".json" and path.exists():
            return law_from_descriptor(json.loads(path.read_text()))
        kind, _, arg = text.partition(":")
        if kind not in ("semicircle", "gaussian"):
            raise ValueError(f"cannot parse law descriptor {text!r}")
        descriptor = {"kind": kind, "sigma2": float(arg or 1.0)}
    if not isinstance(descriptor, dict):
        raise ValueError(f"law descriptor must be a JSON object, got {descriptor!r}")
    kind = descriptor.get("kind")
    key = {"semicircle": "sigma2", "gaussian": "sigma2", "empirical": "atoms",
           "free_convolution": "operands"}.get(kind)
    if key is None:
        raise ValueError(f"unknown law kind {kind!r}")
    if key not in descriptor:
        raise ValueError(f"law {kind} needs the key {key!r}")
    value = descriptor[key]
    if kind == "semicircle":
        return SemicircleLaw(value)
    if kind == "gaussian":
        return GaussianLaw(value)
    if kind == "empirical":
        return EmpiricalLaw(value)
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"law free_convolution needs a list of two operands, got {value!r}")
    return FreeConvolutionLaw(law_from_descriptor(value[0]), law_from_descriptor(value[1]))
