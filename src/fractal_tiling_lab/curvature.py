"""Fractal curvature estimators for ambient dimension d <= 2.

k = d-1 is half the boundary measure of the parallel set; k = 0 is the
Gauss-Bonnet turning of the polygonized boundary divided by 2 pi, localized
to a mask by attributing each exterior angle to the cell containing its
vertex. All boundaries are traversed with the parallel set on the left, so
a disk contributes +1 and a hole -1; the inner parallel sets of a region
(defined through the complement's parallel sets) then give -1 per eroded
core, e.g. C_0(G_-eps) = -1 for a square generator with eps below its
inradius. Quadratures run over the finite interval only; no tail terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PreconditionError
from .grids import DistanceField, Grid, inner_distance
from .ifs import IFS
from .levelsets import LevelSetExtractor
from .volumes import EpsGrid
from .contents import ContentResult, log_trapezoid, power_fit, require_checks, _head_integral


@dataclass
class CurvatureSamples:
    eps: np.ndarray
    k: int
    values: np.ndarray
    variation_values: np.ndarray
    delta: float
    region_tag: str = ""
    tolerance: np.ndarray | None = None
    interpolated: bool = False

    def __post_init__(self):
        self.eps = np.asarray(self.eps, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.variation_values = np.asarray(self.variation_values, dtype=float)
        if self.tolerance is None:
            self.tolerance = np.zeros_like(self.values)
        if np.any(self.variation_values + 1e-12 < np.abs(self.values)):
            raise ConfigError("variation must dominate the signed values")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("eps,value,variation,k,region_tag\n")
            for e, v, w in zip(self.eps, self.values, self.variation_values):
                fh.write(f"{e!r},{v!r},{w!r},{self.k},{self.region_tag}\n")


def measure_profiles(
    field: DistanceField,
    eps: np.ndarray,
    mask=None,
    extractor: LevelSetExtractor | None = None,
):
    """(length, signed turning, |turning|) of {field = eps} per threshold."""
    ex = extractor or LevelSetExtractor(field)
    out = np.zeros((eps.size, 3))
    for i in range(eps.size):
        out[i] = ex.measure(float(eps[i]), mask)
    return out[:, 0], out[:, 1], out[:, 2]


def sample_curvature(
    field: DistanceField,
    k: int,
    grid: EpsGrid,
    mask=None,
    region_tag: str = "",
    extractor: LevelSetExtractor | None = None,
) -> CurvatureSamples:
    """Curvature samples C_k(., mask) along the eps grid.

    `field` is the distance field whose sublevel sets are the parallel sets
    under study: d(., F) for outer parallel sets of an attractor, the
    complement distance of a region for inner parallel sets. d=1 supports
    k=0 only (half the boundary-point count in the mask).
    """
    d = field.dim
    if not (0 <= k <= d - 1):
        raise ConfigError(f"curvature order k={k} out of range for d={d}")
    if d == 1:
        values = _count_boundary_1d(field, grid.eps, mask)
        return CurvatureSamples(grid.eps, 0, values, np.abs(values), field.spacing, region_tag)
    lengths, turns, abs_turns = measure_profiles(field, grid.eps, mask, extractor)
    if k == d - 1:
        vals = 0.5 * lengths
        var = vals.copy()
    else:
        vals = turns / (2 * math.pi)
        var = abs_turns / (2 * math.pi)
    return CurvatureSamples(grid.eps, k, vals, var, field.spacing, region_tag)


def _count_boundary_1d(field: DistanceField, eps: np.ndarray, mask) -> np.ndarray:
    f = field.values
    if f[0] <= eps.max() or f[-1] <= eps.max():
        raise ConfigError("1d parallel set touches the grid boundary")
    mask_arr = mask.occupancy if isinstance(mask, Grid) else mask
    out = np.zeros(eps.size)
    for i, e in enumerate(eps):
        ind = f <= e
        flips = np.nonzero(ind[1:] != ind[:-1])[0]
        if mask_arr is not None:
            keep = mask_arr[flips] | mask_arr[flips + 1]
            flips = flips[keep]
        out[i] = 0.5 * flips.size
    return out


def inner_curvature_samples(
    region: Grid, k: int, grid: EpsGrid, region_tag: str = "",
    extractor: LevelSetExtractor | None = None,
) -> CurvatureSamples:
    """C_k of the inner parallel sets of a region (complement-distance field)."""
    field = inner_distance(region)
    if region.dim == 1:
        # components of the eroded core, one +1 each
        vals = np.zeros(grid.eps.size)
        f = field.values
        for i, e in enumerate(grid.eps):
            core = f > e
            vals[i] = np.count_nonzero(core[1:] & ~core[:-1]) + (1 if core[0] else 0)
        return CurvatureSamples(grid.eps, 0, vals, np.abs(vals), region.spacing, region_tag)
    return sample_curvature(field, k, grid, None, region_tag, extractor)


# ---------------------------------------------------------------------------
# generator formulas


def _variation_exponent_gate(samples: CurvatureSamples, D: float, k: int, gamma_min: float):
    eps, var = samples.eps, samples.variation_values
    if not np.any(var > 0):
        return math.inf  # degenerate: trivially summable
    fit = power_fit(eps, var, decades=1.5)
    if fit is None:
        raise PreconditionError("variation samples too sparse to fit the exponent")
    b = fit[1]
    if b < (k - D) + gamma_min:
        raise PreconditionError(
            f"curvature-variation exponent {b:.4f} is below k - D + {gamma_min:g} "
            f"= {k - D + gamma_min:.4f}: renewal hypothesis violated"
        )
    return b


def _curvature_quadrature(
    samples: CurvatureSamples, D: float, eta: float, k: int, d: int, top: float,
    method_tag: str, lattice_note: str,
) -> ContentResult:
    sel = samples.eps <= top * (1 + 1e-12)
    if sel.sum() < 8:
        raise ConfigError("too few curvature samples below the integration top")
    eps = samples.eps[sel]
    vals = samples.values[sel]
    var = samples.variation_values[sel]
    p = D - k - 1.0
    integral, quad_err = log_trapezoid(eps, eps**p * vals)
    head = 0.0
    head_err = 0.0
    if k == d - 1 and np.all(vals[eps <= eps[0] * 10] >= 0):
        fit = power_fit(eps, vals)
        if fit is not None and fit[1] > k - D:
            head = _head_integral(eps[0], *fit[:2], p)
            head_err = 0.5 * head
    else:
        # signed orders get no head value; bound the cutoff by the variation envelope
        fit = power_fit(eps, var)
        if fit is not None and fit[1] > k - D:
            head_err = _head_integral(eps[0], *fit[:2], p)
    value = (integral + head) / eta
    err = (2.0 * quad_err + head_err) / eta
    return ContentResult(
        value, D, method_tag, samples.delta, err, lattice_note,
        {"k": k, "head": head / eta},
    )


def generator_curvature(
    G_samples: CurvatureSamples, D: float, eta: float, k: int, d: int, g: float,
    gamma_min: float = 0.02, lattice_note: str = "",
) -> ContentResult:
    """Average k-th fractal curvature of a tiling from its generator's cores.

    (1/eta) * integral_0^g eps^(D-k-1) C_k(G_-eps) d(eps); finite interval,
    no tail. Refuses when the variation exponent violates the renewal bound.
    """
    b = _variation_exponent_gate(G_samples, D, k, gamma_min)
    res = _curvature_quadrature(G_samples, D, eta, k, d, g, "generator_integral", lattice_note)
    res.extra["fitted_variation_exponent"] = b
    return res


def relative_generator_curvature(
    FG_samples: CurvatureSamples, D: float, eta: float, k: int, d: int, g_tilde: float,
    checks=(), gamma_min: float = 0.02, lattice_note: str = "",
) -> ContentResult:
    """Average k-th fractal curvature of the attractor from C_k(F_eps, G).

    (1/eta) * integral_0^g~ eps^(D-k-1) C_k(F_eps, G) d(eps), valid under the
    projection condition and a curvature-null boundary of O; both arrive as
    CheckReports and any failure refuses the computation by name.
    """
    require_checks(checks)
    b = _variation_exponent_gate(FG_samples, D, k, gamma_min)
    res = _curvature_quadrature(
        FG_samples, D, eta, k, d, g_tilde, "relative_generator", lattice_note
    )
    res.extra["fitted_variation_exponent"] = b
    return res


def direct_fractal_curvature(
    samples: CurvatureSamples, D: float, k: int,
    window: tuple[float, float] | None = None,
    lattice_base: float | None = None,
    lattice_note: str = "",
) -> tuple[ContentResult, ContentResult]:
    """Direct (limit, average) scaled-curvature estimates over an eps window."""
    eps = samples.eps
    if window is None:
        window = (eps[0], eps[-1] * 0.9)
    lo, hi = window
    sel = (eps >= lo) & (eps <= hi)
    if sel.sum() < 16:
        raise ConfigError("curvature window contains too few samples")
    e = eps[sel]
    scaled = e ** (D - k) * samples.values[sel]
    win_used = (float(e[0]), float(e[-1]))
    if lattice_base is not None:
        span = math.log(e[-1] / e[0])
        periods = int(math.floor(span / lattice_base))
        if periods >= 1:
            cut = e >= e[-1] * math.exp(-periods * lattice_base) * (1 - 1e-9)
            if cut.sum() >= 16:
                e, scaled = e[cut], scaled[cut]
                win_used = (float(e[0]), float(e[-1]))
    avg = float(np.mean(scaled))
    avg_err = abs(avg - float(np.mean(scaled[::2])))
    average = ContentResult(
        avg, D, "direct_average", samples.delta, avg_err, lattice_note,
        {"k": k, "window": win_used},
    )
    if lattice_base is not None:
        band_sel = e <= e[0] * math.exp(lattice_base) * (1 + 1e-9)
        band = scaled[band_sel] if band_sel.sum() >= 4 else scaled
        bmin, bmax = float(band.min()), float(band.max())
        limit = ContentResult(
            0.5 * (bmin + bmax), D, "direct_limit", samples.delta,
            0.5 * (bmax - bmin), lattice_note,
            {"k": k, "band": (bmin, bmax), "window": win_used,
             "note": "lattice system: oscillation band, not a limit"},
        )
    else:
        osc = 0.5 * float(scaled.max() - scaled.min())
        limit = ContentResult(
            float(np.mean(scaled)), D, "direct_limit", samples.delta, osc,
            lattice_note, {"k": k, "window": win_used},
        )
    return limit, average


def cbc_exponent_check(
    var_samples: CurvatureSamples, D: float, k: int, gamma_min: float = 0.02
) -> tuple[float, bool]:
    """Least-squares slope of log variation against log eps on the lower half-window.

    Passes when the slope stays at or above k - D + gamma_min; identically
    zero variation passes with an infinite-slope sentinel.
    """
    eps, var = var_samples.eps, var_samples.variation_values
    if not np.any(var > 0):
        return math.inf, True
    mid = math.sqrt(eps[0] * eps[-1])
    sel = (eps <= mid) & (var > 0)
    if sel.sum() < 4:
        sel = var > 0
    slope = float(np.polyfit(np.log(eps[sel]), np.log(var[sel]), 1)[0])
    return slope, slope >= (k - D) + gamma_min


def curvature_renewal_difference(
    samples: CurvatureSamples, ifs: IFS, grid: EpsGrid
) -> CurvatureSamples:
    """f(eps) - sum_i r_i^k f(eps / r_i) for curvature samples of a union set.

    Both sides vanish above the generator inradius, so no explicit indicator
    is needed; lookups beyond the sampled top clamp to the top sample.
    """
    if not np.allclose(samples.eps, grid.eps):
        raise ConfigError("samples must live on the provided eps grid")
    n = samples.eps.size
    values = samples.values.copy()
    var = samples.variation_values.copy()
    interpolated = samples.interpolated
    for m in ifs.maps:
        shift = grid.shift_for_ratio(m.ratio)
        if shift is None:
            raise ConfigError("curvature renewal needs a lattice-aligned eps grid")
        idx = np.minimum(np.arange(n) + shift, n - 1)
        w = m.ratio**samples.k
        values = values - w * samples.values[idx]
        var = var + w * samples.variation_values[idx]
    return CurvatureSamples(
        grid.eps, samples.k, values, np.maximum(var, np.abs(values)),
        samples.delta, samples.region_tag, None, interpolated,
    )
