"""Sampled scalar functions of the parallel radius eps.

All samplers share one recipe: sort the relevant distance values in strips,
answer every threshold with a binary search per strip, and sum the counts.
Each sample carries a resolution tolerance, delta times the interface measure at that threshold
(the cells whose half-cell uncertainty can flip the count), which consumers
must fold into their error estimates. A VolumeSamples is just that: the
radii, the values, delta and the tolerances (and, for a renewal difference,
whether it interpolated and its jumps at the gate radii).

The renewal differences (h, phi, the Gatzouras difference, the curvature
residual) evaluate f(eps / r_i) through the scaling identities; on
lattice-aligned geometric grids the lookup is an exact index shift,
otherwise a monotone interpolant is used and the samples are flagged. That interpolant (_pchip) is the
piecewise cubic Hermite scheme of Fritsch & Butland, written here with the
float operations of scipy's PchipInterpolator, so it gives the same bits
without loading scipy.interpolate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResolutionError
from .grids import MAX_CELLS, DistanceField, Grid
from .ifs import IFS

_COUNT_STRIP = 1 << 20  # values sorted at a time when the samplers count them


@dataclass
class VolumeSamples:
    eps: np.ndarray
    values: np.ndarray
    delta: float
    tolerance: np.ndarray | None = None
    interpolated: bool = False
    # right-limit increments at indicator-gate radii: value just above eps[i]
    # is values[i] + upper_jumps[i] (renewal differences are discontinuous
    # exactly at r_i * cutoff and quadratures must not interpolate across)
    upper_jumps: np.ndarray | None = None

    def __post_init__(self):
        self.eps = np.asarray(self.eps, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.eps.ndim != 1 or self.eps.shape != self.values.shape:
            raise ConfigError("eps and values must be equal-length 1d arrays")
        if np.any(np.diff(self.eps) <= 0) or np.any(self.eps <= 0):
            raise ConfigError("eps grid must be strictly increasing and positive")
        if self.tolerance is None:
            self.tolerance = np.zeros_like(self.values)


@dataclass(frozen=True)
class EpsGrid:
    """Geometric eps grid, optionally aligned to a lattice base.

    With alignment, each ratio r of the IFS satisfies -ln r = k * base for an
    integer k, and the grid step is base/m, so eps/r lives exactly k*m slots
    up the grid.
    """

    eps: np.ndarray
    log_step: float

    def shift_for_ratio(self, r: float) -> int | None:
        """Index shift s with eps[i]/r = eps[i+s], or None if off-grid."""
        s = -math.log(r) / self.log_step
        s_round = round(s)
        if abs(s - s_round) < 1e-9:
            return int(s_round)
        return None


def make_eps_grid(
    delta: float,
    top: float,
    points_per_decade: int = 64,
    lattice_base: float | None = None,
) -> EpsGrid:
    """Geometric grid from 4*delta up to top (top included exactly)."""
    lo = 4.0 * delta
    if top <= lo:
        raise ConfigError(f"eps grid is empty: top {top:g} <= floor {lo:g}")
    step = math.log(10.0) / points_per_decade
    if lattice_base is not None:
        m = max(1, round(lattice_base / step))
        step = lattice_base / m
    span = math.log(top / lo) / step  # the node count is checked in float, before any allocation
    if not span + 1 <= MAX_CELLS:
        raise ResolutionError(f"eps grid of {span + 1:.6g} nodes exceeds the cap of {MAX_CELLS}")
    n = math.floor(span)
    eps = top * np.exp(-step * np.arange(n, -1, -1))
    return EpsGrid(eps=eps, log_step=step)


def _count_values(vals: np.ndarray, eps: np.ndarray, delta: float, dim: int):
    """(# values <= eps, delta^dim * # values within one cell diagonal of eps) per threshold.

    The counts are sums over strips of _COUNT_STRIP values, each sorted on
    its own, so no sorted copy of all values is ever held.
    """
    w = 0.75 * delta * math.sqrt(dim)
    below = np.zeros(eps.shape, dtype=np.intp)
    near = np.zeros(eps.shape, dtype=np.intp)
    for c in range(0, vals.size, _COUNT_STRIP):
        strip = np.sort(vals[c : c + _COUNT_STRIP]).astype(float, copy=False)
        below += np.searchsorted(strip, eps, side="right")
        near += np.searchsorted(strip, eps + w, side="right")
        near -= np.searchsorted(strip, eps - w, side="left")
    return below, near * delta**dim


def sample_inner_volume(inner: DistanceField, grid: EpsGrid, extra_area: float = 0.0) -> VolumeSamples:
    """V(U, eps): volume of the inner eps-collar of U on the eps grid, from inner = inner_distance(U).

    U's cells are exactly those where inner is positive. extra_area is added
    to every sample; tilings pass the residual-mask area here (sub-cell tiles
    sit entirely within any sampled eps of their own boundary).
    """
    vals = inner.values[inner.values > 0]
    if not vals.size:
        raise ConfigError("inner volume of an empty region")
    below, tol = _count_values(vals, grid.eps, inner.spacing, inner.dim)
    values = below * inner.spacing**inner.dim + extra_area
    return VolumeSamples(grid.eps, values, inner.spacing, tol)


def sample_restricted_volume(F_field: DistanceField, A: Grid, grid: EpsGrid) -> VolumeSamples:
    """lambda_d(F_eps intersect A) from the attractor's distance field."""
    vals = F_field.sample_cells(A, A.occupancy)
    below, tol = _count_values(vals, grid.eps, A.spacing, A.dim)
    values = below * A.cell_volume
    return VolumeSamples(grid.eps, values, A.spacing, tol)


def sample_parallel_volume(F_field: DistanceField, grid: EpsGrid) -> VolumeSamples:
    """lambda_d(F_eps) over the whole field (bbox must fully contain F_top)."""
    d = F_field.dim
    if F_field.border_min() <= grid.eps[-1]:
        raise ConfigError("parallel set reaches the bbox at the top eps; enlarge the padding")
    below, tol = _count_values(F_field.values.ravel(), grid.eps, F_field.spacing, d)
    values = below * F_field.spacing**d
    return VolumeSamples(grid.eps, values, F_field.spacing, tol)


def _pchip_end(h0, h1, m0, m1) -> np.ndarray:
    """One-sided three-point end slope, set to 0 or 3 * m0 where it would break monotonicity."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, d))


def _pchip(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Monotone piecewise cubic Hermite interpolant of y's columns at t, NaN outside [x[0], x[-1]].

    The float operations are scipy's PchipInterpolator(x, y,
    extrapolate=False)(t), in its order, so every result has the same bits:
    node slopes from the weighted harmonic mean of the adjacent secants (0
    where a secant is 0 or the secants change sign), the one-sided end rule
    (linear with two nodes), the Hermite coefficients per interval and
    their evaluation c3 + c2 s + c1 s^2 + c0 s^3, summed in that order,
    with intervals closed on the left and the last one also on the right.
    """
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ConfigError("interpolated samples must be finite")
    h = np.diff(x)[:, None]
    m = np.diff(y, axis=0) / h
    if x.size == 2:
        slope = np.concatenate([m, m])
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        sign = np.sign(m)
        flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        slope = np.concatenate([
            _pchip_end(h[0], h[1], m[0], m[1])[None], inner, _pchip_end(h[-1], h[-2], m[-1], m[-2])[None],
        ])
    cubic = (slope[:-1] + slope[1:] - 2 * m) / h
    c0, c1, c2, c3 = cubic / h, (m - slope[:-1]) / h - cubic, slope[:-1], y[:-1]
    i = np.where(t == x[-1], x.size - 2, np.searchsorted(x, t, side="right") - 1)
    inside = (t >= x[0]) & (t <= x[-1])
    i = np.where(inside, i, 0)
    s = (t - x[i])[:, None]
    z = s * s
    out = 0.0 + c3[i] + c2[i] * s + c1[i] * z + c0[i] * (z * s)
    out[~inside] = np.nan
    return out


def _lookup_scaled(samples: VolumeSamples, grid: EpsGrid, ratios) -> tuple[np.ndarray, np.ndarray, bool]:
    """Rows f(eps/r) and tolerance(eps/r) on the grid, one per ratio r, and whether any is interpolated.

    A ratio on the grid is an index shift. The off-grid ratios share one
    monotone interpolant of the values and tolerances together, evaluated at
    all their targets in one call; its columns are, to the bit, the
    interpolants of each on its own. Thresholds above the sampled top reuse
    the top sample (all sampled functions are constant beyond their
    saturation radius by construction; callers gate with indicators before
    that matters).
    """
    n = samples.eps.size
    scaled = np.empty((len(ratios), n))
    scaled_tol = np.empty((len(ratios), n))
    off = []
    for i, r in enumerate(ratios):
        shift = grid.shift_for_ratio(r)
        if shift is None:
            off.append(i)
            continue
        idx = np.minimum(np.arange(n) + shift, n - 1)
        scaled[i], scaled_tol[i] = samples.values[idx], samples.tolerance[idx]
    if off:
        both = np.column_stack([samples.values, samples.tolerance])
        target = np.concatenate([np.minimum(samples.eps / ratios[i], samples.eps[-1]) for i in off])
        out = _pchip(samples.eps, both, target).reshape(len(off), n, 2)
        scaled[off], scaled_tol[off] = out[..., 0], out[..., 1]
    return scaled, scaled_tol, bool(off)


def renewal_difference(
    samples: VolumeSamples,
    ifs: IFS,
    cutoff: float,
    grid: EpsGrid,
    weight_exponent: int | float,
) -> VolumeSamples:
    """f(eps) - sum_i 1{eps <= r_i * cutoff} r_i^w f(eps / r_i).

    The common shape of the tube-function difference (w = d, cutoff = g),
    the restricted-volume difference (w = d, cutoff = g_tilde), the
    Gatzouras difference (w = d, cutoff = the grid's top node a) and the
    curvature residual (w = k, the same cutoff). A term is exactly 0.0
    outside its gate.
    """
    if samples.eps.shape != grid.eps.shape or not np.allclose(samples.eps, grid.eps):
        raise ConfigError("samples must live on the provided eps grid")
    values = samples.values.copy()
    tol = samples.tolerance.copy()
    jumps = np.zeros_like(values)
    ratios = [m.ratio for m in ifs.maps]
    all_scaled, all_scaled_tol, interpolated = _lookup_scaled(samples, grid, ratios)
    for r, scaled, scaled_tol in zip(ratios, all_scaled, all_scaled_tol):
        gate = grid.eps <= r * cutoff + 1e-12 * cutoff
        w = r**weight_exponent
        values = values - np.where(gate, w * scaled, 0.0)
        tol = tol + np.where(gate, w * scaled_tol, 0.0)
        # the subtracted term switches off just above its gate radius; record
        # the jump when that radius sits on the grid
        if gate.any():
            last = int(np.nonzero(gate)[0][-1])
            if abs(grid.eps[last] - r * cutoff) <= 1e-9 * cutoff:
                jumps[last] += w * scaled[last]
    return VolumeSamples(grid.eps, values, samples.delta, tol, interpolated, upper_jumps=jumps)


def h_function(V_T: VolumeSamples, ifs: IFS, g: float, grid: EpsGrid) -> VolumeSamples:
    """Tube-function renewal difference of the tiling's union set."""
    return renewal_difference(V_T, ifs, g, grid, ifs.ambient_dim)


def phi_function(F_on_O: VolumeSamples, ifs: IFS, g_tilde: float, grid: EpsGrid) -> VolumeSamples:
    """Renewal difference of lambda_d(F_eps intersect O), cutoff at g_tilde."""
    return renewal_difference(F_on_O, ifs, g_tilde, grid, ifs.ambient_dim)


def gatzouras_rd(F_vols: VolumeSamples, ifs: IFS, grid: EpsGrid) -> VolumeSamples:
    """lambda_d(F_eps) - sum_i 1{eps <= r_i a} lambda_d((S_i F)_eps) via scaling, a = grid.eps[-1].

    Any a > 0 gives the same content integral; a node puts the lattice gate radii r_i a on nodes.
    """
    d = ifs.ambient_dim
    if np.sum(ifs.ratios**d) >= 1.0 - 1e-12:
        raise ConfigError("full-dimensional attractor: the content difference is degenerate")
    return renewal_difference(F_vols, ifs, float(grid.eps[-1]), grid, d)
