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
from .levelsets import LevelSetExtractor
from .volumes import EpsGrid
from .contents import (
    GAMMA_MIN, ContentResult, power_fit, power_head, renewal_integral, require_checks,
    _direct_estimates,
)


@dataclass
class CurvatureSamples:
    eps: np.ndarray
    k: int
    values: np.ndarray
    variation_values: np.ndarray
    delta: float
    region_tag: str = ""

    def __post_init__(self):
        self.eps = np.asarray(self.eps, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.variation_values = np.asarray(self.variation_values, dtype=float)
        if np.any(self.variation_values + 1e-12 < np.abs(self.values)):
            raise ConfigError("variation must dominate the signed values")


def check_order(k: int, d: int) -> None:
    """Refuse a curvature order outside 0 <= k <= d-1, with one message for every caller."""
    if not 0 <= k <= d - 1:
        raise ConfigError(f"curvature order k={k} out of range for d={d}")


def samples_from_profile(k: int, d: int, delta: float, profile, region_tag: str = "") -> CurvatureSamples:
    """C_k samples from the (eps, length, turning, |turning|) profile that profile() returns.

    The one map from k to values and variation: k = d-1 is half the length
    (in d=1 half the boundary-point count), its own variation; k = 0 < d-1
    is turning / 2 pi, with variation |turning| / 2 pi. profile() runs only
    once k has passed check_order, so a refused order builds nothing.
    """
    check_order(k, d)
    eps, lengths, turns, abs_turns = profile()
    if k == d - 1:
        values = 0.5 * lengths
        return CurvatureSamples(eps, k, values, values.copy(), delta, region_tag)
    return CurvatureSamples(
        eps, k, turns / (2 * math.pi), abs_turns / (2 * math.pi), delta, region_tag
    )


def measure_profiles(
    field: DistanceField,
    eps: np.ndarray,
    mask=None,
    extractor: LevelSetExtractor | None = None,
):
    """(length, signed turning, |turning|) of {field = eps} per threshold.

    In d=1 the length counts the boundary points in the mask; no turning.
    """
    if field.dim == 1:
        return _boundary_points_1d(field, eps, mask), np.zeros(eps.size), np.zeros(eps.size)
    ex = extractor or LevelSetExtractor(field)
    ex.index(eps)
    out = np.zeros((eps.size, 3))
    for i in range(eps.size):
        out[i] = ex.measure(float(eps[i]), mask)
    return out[:, 0], out[:, 1], out[:, 2]


def measure_mask_profiles(field: DistanceField, eps: np.ndarray, masks, extractor: LevelSetExtractor | None):
    """measure_profiles(field, eps, mask, extractor) for each mask in masks.

    In d=2 each threshold is extracted, matched and measured once for all
    masks (LevelSetExtractor.measure_masks); extractor is used there only.
    """
    if field.dim == 1:
        return [measure_profiles(field, eps, m) for m in masks]
    extractor.index(eps)
    out = np.zeros((len(masks), eps.size, 3))
    for i in range(eps.size):
        out[:, i] = extractor.measure_masks(extractor.extract(float(eps[i])), masks)
    return [(o[:, 0], o[:, 1], o[:, 2]) for o in out]


def check_border_1d(field: DistanceField, eps: np.ndarray) -> None:
    """Refuse a 1-d parallel set that reaches the field's border below the top eps."""
    if field.dim == 1 and field.values[[0, -1]].min() <= eps.max():
        raise ConfigError("1d parallel set touches the grid boundary")


def _boundary_points_1d(field: DistanceField, eps: np.ndarray, mask) -> np.ndarray:
    """Neighbour pairs with one cell in {field <= eps} (lo <= eps < hi), at least one in the mask."""
    f = field.values.astype(float)
    lo, hi = np.minimum(f[:-1], f[1:]), np.maximum(f[:-1], f[1:])
    if mask is not None:
        m = mask.occupancy if isinstance(mask, Grid) else mask
        lo, hi = lo[m[:-1] | m[1:]], hi[m[:-1] | m[1:]]
    below = np.searchsorted(np.sort(lo), eps, side="right")
    return (below - np.searchsorted(np.sort(hi), eps, side="right")).astype(float)


def sample_curvature(
    field: DistanceField,
    k: int,
    grid: EpsGrid,
    mask=None,
    region_tag: str = "",
) -> CurvatureSamples:
    """Curvature samples C_k(., mask) along the eps grid.

    `field` is the distance field whose sublevel sets are the parallel sets
    under study: d(., F) for outer parallel sets of an attractor, the
    complement distance of a region for inner parallel sets (d=1: outer
    fields only, k=0 only: half the boundary-point count in the mask).
    """

    def profile():
        check_border_1d(field, grid.eps)
        return grid.eps, *measure_profiles(field, grid.eps, mask)

    return samples_from_profile(k, field.dim, field.spacing, profile, region_tag)


def inner_curvature_samples(region: Grid, k: int, grid: EpsGrid, region_tag: str = "") -> CurvatureSamples:
    """C_k of the inner parallel sets of a region (complement-distance field).

    In d=1 each core counts +1 (two boundary points): eps grids start above
    the one-cell value that the raster border, counted as complement, gets.
    """
    return samples_from_profile(
        k, region.dim, region.spacing,
        lambda: (grid.eps, *measure_profiles(inner_distance(region), grid.eps)),
        region_tag,
    )


# ---------------------------------------------------------------------------
# generator formulas


def _variation_exponent_gate(samples: CurvatureSamples, D: float, k: int):
    eps, var = samples.eps, samples.variation_values
    if not np.any(var > 0):
        return math.inf  # degenerate: trivially summable
    fit = power_fit(eps, var, decades=1.5)
    if fit is None:
        raise PreconditionError("variation samples too sparse to fit the exponent")
    b = fit[1]
    if b < (k - D) + GAMMA_MIN:
        raise PreconditionError(
            f"curvature-variation exponent {b:.4f} is below k - D + {GAMMA_MIN:g} "
            f"= {k - D + GAMMA_MIN:.4f}: renewal hypothesis violated"
        )
    return b


def _curvature_quadrature(
    samples: CurvatureSamples, D: float, eta: float, k: int, d: int, top: float,
    method_tag: str, lattice_note: str,
) -> ContentResult:
    b = _variation_exponent_gate(samples, D, k)
    sel = samples.eps <= top * (1 + 1e-12)
    if sel.sum() < 8:
        raise PreconditionError("too few curvature samples below the integration top")
    eps, vals, var = samples.eps[sel], samples.values[sel], samples.variation_values[sel]
    p = D - k - 1.0
    integral, quad_err, _ = renewal_integral(eps, vals, p)
    if k == d - 1 and np.all(vals[eps <= eps[0] * 10] >= 0):
        head = power_head(eps, vals, p)
        head_err = 0.5 * head
    else:
        # signed orders get no head value; bound the cutoff by the variation envelope
        head, head_err = 0.0, power_head(eps, var, p)
    value = (integral + head) / eta
    err = (2.0 * quad_err + head_err) / eta
    return ContentResult(
        value, D, method_tag, samples.delta, err, lattice_note,
        {"k": k, "head": head / eta, "fitted_variation_exponent": b},
    )


def generator_curvature(
    G_samples: CurvatureSamples, D: float, eta: float, k: int, d: int, g: float,
    lattice_note: str = "",
) -> ContentResult:
    """Average k-th fractal curvature of a tiling from its generator's cores.

    (1/eta) * integral_0^g eps^(D-k-1) C_k(G_-eps) d(eps); finite interval,
    no tail. Refuses when the variation exponent violates the renewal bound.
    """
    return _curvature_quadrature(
        G_samples, D, eta, k, d, g, "generator_integral", lattice_note
    )


def relative_generator_curvature(
    FG_samples: CurvatureSamples, D: float, eta: float, k: int, d: int, g_tilde: float,
    checks=(), lattice_note: str = "",
) -> ContentResult:
    """Average k-th fractal curvature of the attractor from C_k(F_eps, G).

    (1/eta) * integral_0^g~ eps^(D-k-1) C_k(F_eps, G) d(eps), valid under the
    projection condition and a curvature-null boundary of O; both arrive as
    CheckReports and any failure refuses the computation by name.
    """
    require_checks(checks)
    return _curvature_quadrature(
        FG_samples, D, eta, k, d, g_tilde, "relative_generator", lattice_note
    )


def direct_fractal_curvature(
    samples: CurvatureSamples, D: float, k: int,
    window: tuple[float, float],
    lattice_base: float | None = None,
    lattice_note: str = "",
) -> tuple[ContentResult, ContentResult]:
    """Direct (limit, average) scaled-curvature estimates: direct_content's
    scaled window at order k, with zero tolerance and no span rule."""
    return _direct_estimates(
        samples, np.zeros_like(samples.values), D, k, window, lattice_base, lattice_note,
        "lattice system: oscillation band, not a limit", {"k": k},
    )
