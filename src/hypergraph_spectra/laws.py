"""Analytic limit laws on the real line and their free additive convolution.

Laws expose density / cdf / Stieltjes transform / moments behind a small class
hierarchy: semicircle and centered Gaussian families, finite empirical laws
(which cover point masses), and lazily-solved free additive convolutions.

The free additive convolution of two laws is computed through the standard
pair of subordination functions: writing F_i(w) = -1/S_i(w) for the reciprocal
Cauchy transform and h_i(w) = F_i(w) - w, the second subordination function is
the fixed point of

    T(omega) = z + h_1(z + h_2(omega)),

after which S(z) = S_1(z + h_2(omega)).  Since Im h_i >= 0 on the upper half
plane, the damped iteration can never leave it.  Densities are recovered by
evaluating S just above the real axis, continuing the fixed point down a
geometric ladder of imaginary offsets; at the final offset (the module
constant 1e-9) the Poisson smoothing bias is negligible even at square-root
edges, so no extrapolation in the offset is needed.  The damping, tolerance and
iteration cap of the fixed point are module constants as well.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import erf, wofz

__all__ = [
    "Law",
    "SemicircleLaw",
    "GaussianLaw",
    "EmpiricalLaw",
    "FreeConvolutionLaw",
    "DensityGrid",
    "GridSpec",
    "ConvergenceError",
    "catalan",
    "semicircle_density",
    "semicircle_cdf",
    "semicircle_moment",
    "stieltjes_semicircle",
    "stieltjes_gaussian",
    "free_convolution_stieltjes",
    "free_additive_convolution",
    "law_from_descriptor",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)

# subordination fixed point: damping, relative tolerance, iteration cap, and
# the final imaginary offset of the density inversion
_DAMPING = 0.5
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


def catalan(k: int) -> int:
    """k-th Catalan number C(2k, k)/(k+1), exact."""
    if k < 0:
        raise ValueError(f"Catalan index must be >= 0, got {k}")
    return math.comb(2 * k, k) // (k + 1)


def semicircle_density(sigma2: float, x) -> np.ndarray | float:
    """Semicircle density sqrt(4 sigma^2 - x^2) / (2 pi sigma^2) on [-2s, 2s]."""
    if sigma2 <= 0:
        raise ValueError(f"variance must be positive, got {sigma2}")
    x = np.asarray(x, dtype=float)
    inside = np.clip(4.0 * sigma2 - x * x, 0.0, None)
    out = np.sqrt(inside) / (2.0 * math.pi * sigma2)
    return float(out) if out.ndim == 0 else out


def semicircle_cdf(sigma2: float, x) -> np.ndarray | float:
    if sigma2 <= 0:
        raise ValueError(f"variance must be positive, got {sigma2}")
    s = math.sqrt(sigma2)
    x = np.asarray(x, dtype=float)
    t = np.clip(x / (2.0 * s), -1.0, 1.0)
    out = 0.5 + t * np.sqrt(1.0 - t * t) / math.pi + np.arcsin(t) / math.pi
    return float(out) if out.ndim == 0 else out


def semicircle_moment(sigma2: float, order: int) -> float:
    """Moment of the semicircle law: sigma^(2k) * Catalan(k) at order 2k, zero
    at odd orders."""
    if order < 0:
        raise ValueError(f"moment order must be >= 0, got {order}")
    if order % 2 == 1:
        return 0.0
    k = order // 2
    return float(sigma2**k * catalan(k))


def stieltjes_semicircle(sigma2: float, z) -> np.ndarray | complex:
    """Closed-form Stieltjes transform (-z + sqrt(z^2 - 4 sigma^2)) / (2 sigma^2),
    on the branch mapping the upper half plane to itself."""
    if sigma2 <= 0:
        raise ValueError(f"variance must be positive, got {sigma2}")
    z = np.asarray(z, dtype=complex)
    _require_upper_half(z)
    root = np.sqrt(z * z - 4.0 * sigma2)
    cand = (-z + root) / (2.0 * sigma2)
    out = np.where(cand.imag > 0, cand, (-z - root) / (2.0 * sigma2))
    return complex(out) if out.ndim == 0 else out


def stieltjes_gaussian(sigma2: float, z) -> np.ndarray | complex:
    """Stieltjes transform of the centered Gaussian, via the Faddeeva function:

        S(z) = i sqrt(pi/2) w(z / sqrt(2))       (unit variance),

    rescaled by S_sigma(z) = S_1(z/sigma)/sigma for general variance.
    """
    if sigma2 <= 0:
        raise ValueError(f"variance must be positive, got {sigma2}")
    z = np.asarray(z, dtype=complex)
    _require_upper_half(z)
    s = math.sqrt(sigma2)
    out = 1j * math.sqrt(math.pi / 2.0) * wofz(z / (s * math.sqrt(2.0))) / s
    return complex(out) if out.ndim == 0 else out


def _require_upper_half(z: np.ndarray) -> None:
    if np.any(np.asarray(z).imag <= 0):
        raise ValueError("Stieltjes transforms are defined for Im z > 0 only")


class Law(ABC):
    """A probability law on the real line."""

    def density(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def stieltjes(self, z):
        raise NotImplementedError

    def moment(self, order: int) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        return self.moment(1)

    def variance(self) -> float:
        mu = self.mean()
        return self.moment(2) - mu * mu

    def support(self) -> tuple[float, float]:
        """Interval carrying all but a negligible (< 1e-13) sliver of mass."""
        raise NotImplementedError

    @abstractmethod
    def cdf_integral(self, x):
        """Antiderivative of the CDF, int_{-inf}^x F(t) dt.

        Required of every law: the metrics layer assembles every Wasserstein-1
        area from it and has no quadrature fallback.
        """

    def descriptor(self) -> dict:
        raise NotImplementedError


class SemicircleLaw(Law):
    def __init__(self, sigma2: float):
        if sigma2 <= 0:
            raise ValueError(f"variance must be positive, got {sigma2}")
        self.sigma2 = float(sigma2)

    def density(self, x):
        return semicircle_density(self.sigma2, x)

    def cdf(self, x):
        return semicircle_cdf(self.sigma2, x)

    def stieltjes(self, z):
        return stieltjes_semicircle(self.sigma2, z)

    def moment(self, order: int) -> float:
        return semicircle_moment(self.sigma2, order)

    def support(self) -> tuple[float, float]:
        edge = 2.0 * math.sqrt(self.sigma2)
        return (-edge, edge)

    def cdf_integral(self, x):
        # int F = x F(x) + (4 s^2 - x^2)^{3/2} / (6 pi s^2) inside the support,
        # extended linearly (slope 1) to the right of it
        edge = 2.0 * math.sqrt(self.sigma2)
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, -edge, edge)
        inner = xc * semicircle_cdf(self.sigma2, xc) + np.clip(
            4.0 * self.sigma2 - xc * xc, 0.0, None
        ) ** 1.5 / (6.0 * math.pi * self.sigma2)
        out = inner + np.clip(x - edge, 0.0, None)
        return float(out) if out.ndim == 0 else out

    def descriptor(self) -> dict:
        return {"kind": "semicircle", "sigma2": self.sigma2}

    def __repr__(self):
        return f"SemicircleLaw(sigma2={self.sigma2})"


class GaussianLaw(Law):
    def __init__(self, sigma2: float):
        if sigma2 <= 0:
            raise ValueError(f"variance must be positive, got {sigma2}")
        self.sigma2 = float(sigma2)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.exp(-x * x / (2.0 * self.sigma2)) / (_SQRT2PI * math.sqrt(self.sigma2))
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.5 * (1.0 + erf(x / math.sqrt(2.0 * self.sigma2)))
        return float(out) if out.ndim == 0 else out

    def stieltjes(self, z):
        return stieltjes_gaussian(self.sigma2, z)

    def moment(self, order: int) -> float:
        if order % 2 == 1:
            return 0.0
        k = order // 2
        # (2k-1)!! = (2k)! / (2^k k!)
        double_factorial = math.factorial(2 * k) // (2**k * math.factorial(k))
        return float(self.sigma2**k) * double_factorial

    def support(self) -> tuple[float, float]:
        # +-8.5 sigma leaves < 1e-16 mass outside
        half = 8.5 * math.sqrt(self.sigma2)
        return (-half, half)

    def cdf_integral(self, x):
        # int F = x Phi(x) + sigma^2 phi(x); the derivative telescopes back to Phi
        out = np.asarray(x, dtype=float) * np.asarray(self.cdf(x)) + self.sigma2 * np.asarray(
            self.density(x)
        )
        return float(out) if out.ndim == 0 else out

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

    def density(self, x):
        raise TypeError("an atomic law has no Lebesgue density")

    def cdf(self, x):
        pos = np.searchsorted(self.atoms, np.asarray(x, dtype=float), side="right")
        out = pos / self.atoms.size
        return float(out) if np.isscalar(x) else out

    def stieltjes(self, z):
        z = np.asarray(z, dtype=complex)
        _require_upper_half(z)
        flat = z.ravel()
        step = max(1, _STIELTJES_BLOCK // self.atoms.size)
        out = np.empty(flat.shape, dtype=complex)
        for i in range(0, flat.size, step):
            block = flat[i : i + step]
            out[i : i + step] = np.mean(1.0 / (self.atoms[:, None] - block), axis=0)
        out = out.reshape(z.shape)
        return complex(out) if out.ndim == 0 else out

    def moment(self, order: int) -> float:
        return float(np.mean(self.atoms**order))

    def support(self) -> tuple[float, float]:
        return (float(self.atoms[0]), float(self.atoms[-1]))

    def cdf_integral(self, x):
        x = np.asarray(x, dtype=float)
        prefix = np.concatenate([[0.0], np.cumsum(self.atoms)])
        pos = np.searchsorted(self.atoms, x, side="right")
        out = (pos * x - prefix[pos]) / self.atoms.size
        return float(out) if out.ndim == 0 else out

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
    # h(w) = F(w) - w with F = -1/S; Nevanlinna representation gives Im h >= 0
    return -1.0 / law.stieltjes(w) - w


def free_convolution_stieltjes(
    law1: Law, law2: Law, z, omega_init: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Stieltjes transform of law1 [+] law2 at points z in the upper half plane.

    Returns (S, omega) where omega is the converged second subordination
    function, reusable as a warm start at nearby z.  Raises ConvergenceError if
    any point fails to reach the relative tolerance ``_TOL`` within
    ``_MAX_ITER`` damped iterations.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    _require_upper_half(z)
    omega = z.copy() if omega_init is None else np.array(omega_init, dtype=complex)
    active = np.ones(z.shape, dtype=bool)
    last_residual = np.zeros(z.shape)
    for _ in range(_MAX_ITER):
        za = z[active]
        oa = omega[active]
        t = za + _shift_transform(law1, za + _shift_transform(law2, oa))
        residual = np.abs(t - oa)
        omega[active] = oa + _DAMPING * (t - oa)
        last_residual[active] = residual
        still = residual > _TOL * np.maximum(1.0, np.abs(oa))
        if not still.any():
            active[active] = False
            break
        active[active] = still
    if active.any():
        worst = int(np.argmax(np.where(active, last_residual, -np.inf)))
        raise ConvergenceError(
            f"subordination fixed point did not converge at z={z.flat[worst]} "
            f"(residual {last_residual.flat[worst]:.3e} after {_MAX_ITER} iterations)",
            z=complex(z.flat[worst]),
            residual=float(last_residual.flat[worst]),
        )
    s = law1.stieltjes(z + _shift_transform(law2, omega))
    return s, omega


def _offset_ladder(eps: float) -> list[float]:
    ladder = [1.0]
    while ladder[-1] > eps:
        ladder.append(max(ladder[-1] * 0.2, eps))
    return ladder


def free_additive_convolution(law1: Law, law2: Law, grid: GridSpec | None = None) -> DensityGrid:
    """Density of the free additive convolution law1 [+] law2 on a grid.

    The subordination fixed point is continued from Im z = 1 down a geometric
    ladder of offsets to ``_INVERSION_EPS`` (warm-starting each rung from the
    last), and the density read off as Im S / pi at the final offset.  The
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
    omega = None
    s = None
    for eps in _offset_ladder(_INVERSION_EPS):
        s, omega = free_convolution_stieltjes(law1, law2, x + 1j * eps, omega_init=omega)
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

    def __init__(self, law1: Law, law2: Law, grid: GridSpec | None = None):
        self.law1 = law1
        self.law2 = law2
        self._spec = grid
        self._grid: DensityGrid | None = None
        self._cdf_values: np.ndarray | None = None

    @property
    def grid(self) -> DensityGrid:
        if self._grid is None:
            self._grid = free_additive_convolution(self.law1, self.law2, self._spec)
        return self._grid

    def density(self, x):
        g = self.grid
        out = np.interp(np.asarray(x, dtype=float), g.x, g.f, left=0.0, right=0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        g = self.grid
        if self._cdf_values is None:
            dx = np.diff(g.x)
            inc = np.concatenate([[0.0], np.cumsum(0.5 * dx * (g.f[1:] + g.f[:-1]))])
            self._cdf_values = np.clip(inc / inc[-1], 0.0, 1.0)
        out = np.interp(np.asarray(x, dtype=float), g.x, self._cdf_values, left=0.0, right=1.0)
        return float(out) if out.ndim == 0 else out

    def stieltjes(self, z):
        s, _ = free_convolution_stieltjes(self.law1, self.law2, z)
        return complex(s[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else s

    def moment(self, order: int) -> float:
        g = self.grid
        return float(np.trapezoid(g.x**order * g.f, g.x) / g.mass())

    def mean(self) -> float:
        # free convolution adds means
        return self.law1.mean() + self.law2.mean()

    def variance(self) -> float:
        # second free cumulants (variances) add
        return self.law1.variance() + self.law2.variance()

    def support(self) -> tuple[float, float]:
        g = self.grid
        return (float(g.x[0]), float(g.x[-1]))

    def cdf_integral(self, x):
        # trapezoid antiderivative of the gridded CDF; grid-resolution limited
        g = self.grid
        cdf_vals = np.asarray(self.cdf(g.x))
        dx = np.diff(g.x)
        acc = np.concatenate([[0.0], np.cumsum(0.5 * dx * (cdf_vals[1:] + cdf_vals[:-1]))])
        x = np.asarray(x, dtype=float)
        out = np.interp(x, g.x, acc, left=0.0, right=acc[-1])
        out = out + np.clip(x - g.x[-1], 0.0, None)
        return float(out) if out.ndim == 0 else out

    def descriptor(self) -> dict:
        return {
            "kind": "free_convolution",
            "operands": [self.law1.descriptor(), self.law2.descriptor()],
        }

    def __repr__(self):
        return f"FreeConvolutionLaw({self.law1!r}, {self.law2!r})"


def law_from_descriptor(descriptor: dict) -> Law:
    """Rebuild a law from its JSON descriptor."""
    kind = descriptor.get("kind")
    if kind == "semicircle":
        return SemicircleLaw(descriptor["sigma2"])
    if kind == "gaussian":
        return GaussianLaw(descriptor["sigma2"])
    if kind == "empirical":
        return EmpiricalLaw(descriptor["atoms"])
    if kind == "free_convolution":
        ops = descriptor["operands"]
        return FreeConvolutionLaw(law_from_descriptor(ops[0]), law_from_descriptor(ops[1]))
    raise ValueError(f"unknown law kind {kind!r}")
