"""Distances between probability laws and between finite spectra.

Kolmogorov-Smirnov and Wasserstein-1 are computed exactly whenever at least
one side is an empirical measure (sup over jump points, piecewise CDF-area
integration); between two analytic laws KS uses a refined grid search and W1
sums CDF-antiderivative differences between the located crossings.  Every law
carries a CDF antiderivative, so no W1 path needs quadrature.  The
bounded-Lipschitz metric is reported only as the computable upper bound
min(w1, 2 ks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .laws import EmpiricalLaw, Law

__all__ = [
    "MetricReport",
    "ks_distance",
    "w1_distance",
    "bl_upper_bound",
    "hausdorff_spectra",
    "metric_report",
]


@dataclass(frozen=True)
class MetricReport:
    """One comparison: KS, W1 and the bounded-Lipschitz upper bound."""

    ks: float
    w1: float
    bl_upper: float
    notes: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {"ks": self.ks, "w1": self.w1, "bl_upper": self.bl_upper, "notes": self.notes}
        )


def _atoms(dist: Law) -> np.ndarray | None:
    return dist.atoms if isinstance(dist, EmpiricalLaw) else None


def ks_distance(a: Law, b: Law) -> float:
    """sup_x |F_a(x) - F_b(x)|.

    Exact over jump points when either side is empirical; refined grid search
    (converged to 1e-8) when both are analytic.
    """
    atoms_a, atoms_b = _atoms(a), _atoms(b)
    if atoms_a is not None and atoms_b is not None:
        # the sup is attained on the grid; n_a n_b |F_a - F_b| is exact in
        # integers and divided once, so equal gaps give equal floats
        grid = np.union1d(atoms_a, atoms_b)
        na, nb = atoms_a.size, atoms_b.size
        cnt_a = np.searchsorted(atoms_a, grid, side="right")
        cnt_b = np.searchsorted(atoms_b, grid, side="right")
        return int(np.abs(cnt_a * nb - cnt_b * na).max()) / (na * nb)
    if atoms_a is None and atoms_b is None:
        return _ks_analytic(a, b)
    emp, law = (atoms_a, b) if atoms_a is not None else (atoms_b, a)
    n = emp.size
    flaw = law.cdf(emp)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.maximum(np.abs(flaw - upper), np.abs(flaw - lower)).max())


def _ks_analytic(a: Law, b: Law, coarse: int = 4001, tol: float = 1e-8) -> float:
    (lo_a, hi_a), (lo_b, hi_b) = a.support(), b.support()
    lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
    xs = np.linspace(lo, hi, coarse)
    gap = np.abs(a.cdf(xs) - b.cdf(xs))
    best = 0.0
    # golden-section refinement of the strongest local-maximum brackets
    interior = np.arange(1, coarse - 1)
    is_peak = (gap[interior] >= gap[interior - 1]) & (gap[interior] >= gap[interior + 1])
    peaks = interior[is_peak]
    peaks = peaks[np.argsort(gap[peaks])[::-1][:10]]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for i in peaks:
        left, right = xs[i - 1], xs[i + 1]
        while right - left > tol:
            m1 = right - invphi * (right - left)
            m2 = left + invphi * (right - left)
            g1 = abs(a.cdf(m1) - b.cdf(m1))
            g2 = abs(a.cdf(m2) - b.cdf(m2))
            if g1 < g2:
                left = m1
            else:
                right = m2
        mid = 0.5 * (left + right)
        best = max(best, abs(a.cdf(mid) - b.cdf(mid)))
    return max(best, float(gap.max()))


def w1_distance(a: Law, b: Law) -> float:
    """Wasserstein-1 distance, computed as the CDF-gap area int |F_a - F_b|.

    Exact piecewise integration between empirical measures; against an
    analytic law the area is assembled from the law's CDF antiderivative with
    the level-crossing points located by bisection.
    """
    atoms_a, atoms_b = _atoms(a), _atoms(b)
    if atoms_a is not None and atoms_b is not None:
        grid = np.union1d(atoms_a, atoms_b)
        if grid.size == 1:
            return 0.0
        fa = np.searchsorted(atoms_a, grid, side="right") / atoms_a.size
        fb = np.searchsorted(atoms_b, grid, side="right") / atoms_b.size
        return float(np.sum(np.abs(fa - fb)[:-1] * np.diff(grid)))
    if atoms_a is None and atoms_b is None:
        return _w1_analytic(a, b)
    emp, law = (atoms_a, b) if atoms_a is not None else (atoms_b, a)
    return _w1_empirical_analytic(emp, law)


def _bisect(below, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorised bisection, 80 halvings of each [lo, hi], for the points where
    the predicate below(x) turns from true (left of the point) to false."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        left = below(mid)
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def _w1_empirical_analytic(atoms: np.ndarray, law: Law) -> float:
    n = atoms.size
    lo = min(law.support()[0], float(atoms[0]))
    hi = max(law.support()[1], float(atoms[-1]))
    cuts = np.concatenate([[lo], atoms, [hi]])
    left, right = cuts[:-1], cuts[1:]
    levels = np.arange(n + 1) / n
    f_left, f_right = law.cdf(left), law.cdf(right)
    i_left, i_right = law.cdf_integral(left), law.cdf_integral(right)
    area_above = (i_right - i_left) - levels * (right - left)  # F >= level throughout
    area_below = -area_above
    crossing = (f_left < levels) & (f_right > levels)
    total = np.where(f_left >= levels, area_above, 0.0)
    total += np.where((f_right <= levels) & ~(f_left >= levels), area_below, 0.0)
    if crossing.any():
        level = levels[crossing]
        cross = _bisect(lambda x: law.cdf(x) < level, left[crossing], right[crossing])
        i_cross = law.cdf_integral(cross)
        piece = (
            levels[crossing] * (cross - left[crossing])
            - (i_cross - i_left[crossing])
            + (i_right[crossing] - i_cross)
            - levels[crossing] * (right[crossing] - cross)
        )
        total[crossing] = piece
    return float(total.sum())


def _w1_analytic(a: Law, b: Law) -> float:
    (lo_a, hi_a), (lo_b, hi_b) = a.support(), b.support()
    lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
    xs = np.linspace(lo, hi, 8001)
    gap = a.cdf(xs) - b.cdf(xs)
    sign_change = np.nonzero(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0)[0]
    breaks = [lo]
    # grid points where the gap vanishes are crossings already resolved; a run
    # of them is one piece, bounded by its first and last point
    zero = np.abs(gap) < 1e-15
    inner = zero[1:-1] & zero[:-2] & zero[2:]
    ends = zero & ~np.concatenate([[False], inner, [False]])
    breaks.extend(xs[ends].tolist())
    # locate each sign change of F_a - F_b by bisection
    sign = gap[sign_change]
    cross = _bisect(
        lambda x: (a.cdf(x) - b.cdf(x)) * sign > 0, xs[sign_change], xs[sign_change + 1]
    )
    breaks.extend(cross.tolist())
    breaks.append(hi)
    breaks.sort()
    total = 0.0
    for x0, x1 in zip(breaks[:-1], breaks[1:]):
        seg = (a.cdf_integral(x1) - a.cdf_integral(x0)) - (b.cdf_integral(x1) - b.cdf_integral(x0))
        total += abs(seg)
    return total


def bl_upper_bound(a: Law, b: Law) -> float:
    """Computable upper bound on the bounded-Lipschitz distance:
    min(w1, 2 ks).  The exact metric needs an infinite-dimensional
    optimisation; both chains d_BL <= d_W1 and d_BL <= 2 d_KS are sharp enough
    for every use in this package."""
    return metric_report(a, b).bl_upper


def metric_report(a: Law, b: Law, notes: str = "") -> MetricReport:
    ks = ks_distance(a, b)
    w1 = w1_distance(a, b)
    return MetricReport(ks=ks, w1=w1, bl_upper=min(w1, 2.0 * ks), notes=notes)


def hausdorff_spectra(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite spectra (as point sets)."""
    xs, ys = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("Hausdorff distance needs nonempty spectra")

    def one_sided(src: np.ndarray, dst: np.ndarray) -> float:
        # the nearest point of dst is one of the two neighbours of src's slot
        pos = np.searchsorted(dst, src)
        left = dst[np.maximum(pos - 1, 0)]
        right = dst[np.minimum(pos, dst.size - 1)]
        return float(np.minimum(np.abs(src - left), np.abs(src - right)).max())

    return max(one_sided(xs, ys), one_sided(ys, xs))
