"""Minkowski contents: generator formulas, closed forms, direct estimators.

Every method returns a ContentResult carrying the method tag, the dimension
used, the working resolution and an error estimate that folds together
quadrature density sensitivity, the extrapolated head below the smallest
sample, and the propagated raster tolerances. Tails above the (relative)
inradius are always closed-form, never sampled: beyond saturation the
volume functions are exactly constant and the integrals have elementary
antiderivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, PreconditionError
from .volumes import VolumeSamples

GAMMA_MIN = 0.02  # renewal-hypothesis margin of the tube and curvature-variation exponents
DIRECT_MIN_DECADES = 1.5  # least span of a direct content window

METHODS = (
    "generator_integral",
    "tiling_via_h",
    "monophase",
    "pluriphase",
    "gatzouras",
    "relative_generator",
    "direct_limit",
    "direct_average",
    "s_content",
)


@dataclass
class ContentResult:
    value: float
    s: float
    method: str
    resolution: float | None
    error_estimate: float
    lattice_note: str = ""
    extra: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method tag {self.method!r}")
        if not math.isfinite(self.value):
            raise ConfigError("content value must be finite")
        if self.error_estimate < 0:
            raise ConfigError("error estimate must be nonnegative")

    def to_dict(self) -> dict:
        out = {
            "value": self.value,
            "s": self.s,
            "method": self.method,
            "resolution": self.resolution,
            "error_estimate": self.error_estimate,
            "lattice_note": self.lattice_note,
        }
        out.update({k: v for k, v in self.extra.items()})
        return out


@dataclass(frozen=True)
class MonophaseData:
    """Polynomial inner tube volume: V(G, eps) = sum_k kappa[k] eps^(d-k)."""

    kappa: tuple[float, ...]
    g: float

    def validate(self, d: int) -> None:
        if len(self.kappa) != d:
            raise ConfigError(f"monophase data needs {d} coefficients for d={d}")
        if self.kappa[d - 1] <= 0:
            raise ConfigError("the leading (surface-area) coefficient must be positive")
        eps = np.linspace(self.g * 1e-6, self.g, 512)
        if (self.reconstruct(eps, d) < -1e-12).any():
            raise ConfigError("monophase coefficients give a negative tube volume")

    def reconstruct(self, eps: np.ndarray, d: int) -> np.ndarray:
        out = np.zeros_like(np.asarray(eps, dtype=float))
        for k, kap in enumerate(self.kappa):
            out += kap * np.asarray(eps, float) ** (d - k)
        return out


@dataclass(frozen=True)
class PluriphaseData:
    """Piecewise polynomial tube volume with breakpoints 0 < e_1 < ... < e_m = g.

    kappa_matrix has shape (m, d+1): row l covers (e_{l-1}, e_l] with
    V = sum_{k=0..d} kappa[l,k] eps^(d-k); the k=d column is the constant
    term, which must vanish on the first phase (V -> 0 at 0). Disjoint
    unions of polytopes need that constant once a component saturates.
    """

    breakpoints: tuple[float, ...]
    kappa_matrix: np.ndarray

    def validate(self, d: int) -> None:
        br = np.asarray(self.breakpoints, dtype=float)
        km = np.asarray(self.kappa_matrix, dtype=float)
        if br.ndim != 1 or (np.diff(br) <= 0).any() or br[0] <= 0:
            raise ConfigError("breakpoints must be strictly increasing and positive")
        if km.shape != (br.size, d + 1):
            raise ConfigError(f"kappa matrix must be ({br.size}, {d + 1})")
        if abs(km[0, d]) > 1e-12:
            raise ConfigError("the first phase may not carry a constant term")
        for l in range(br.size - 1):
            e = br[l]
            left = sum(km[l, k] * e ** (d - k) for k in range(d + 1))
            right = sum(km[l + 1, k] * e ** (d - k) for k in range(d + 1))
            if abs(left - right) > 1e-9 * max(1.0, abs(left)):
                raise ConfigError(f"tube volume discontinuous at breakpoint {e}")

    @property
    def g(self) -> float:
        return float(self.breakpoints[-1])


# ---------------------------------------------------------------------------
# quadrature helpers


def renewal_integral(eps: np.ndarray, vals: np.ndarray, p: float, tol=None, jumps=None):
    """(integral of eps^p vals d(eps), its half-density delta, integral of eps^p tol or 0.0)
    by trapezoid in ln(eps). jumps are the right-limit increments at the nodes: renewal
    differences jump at their gate radii and each interval uses the branch valid on it."""
    def trapezoid(upper, lower, u):
        return float(np.sum(0.5 * (upper[:-1] + lower[1:]) * np.diff(u)))

    u = np.log(eps)
    weight = eps**p
    wl = weight * vals * eps
    wu = wl if jumps is None else weight * (vals + jumps) * eps
    full = trapezoid(wu, wl, u)
    # half-density reference anchored at the top node: both cover the same interval
    idx = np.arange(u.size - 1, -1, -2)[::-1]
    half = trapezoid(wu[idx], wl[idx], u[idx])
    if tol is None:
        return full, abs(full - half), 0.0
    wt = weight * tol * eps
    return full, abs(full - half), trapezoid(wt, wt, u)


def power_fit(eps: np.ndarray, vals: np.ndarray, decades: float = 1.0):
    """Fit vals ~ a * eps^b over the lowest `decades`; None if too few positive points."""
    mask = (eps <= eps[0] * 10.0**decades) & (vals > 0)
    if mask.sum() < 4:
        return None
    b, lna = np.polyfit(np.log(eps[mask]), np.log(vals[mask]), 1)
    return math.exp(lna), float(b)


def power_head(eps: np.ndarray, vals: np.ndarray, p: float, decades: float = 1.0) -> float:
    """integral_0^eps[0] of eps^p a eps^b d(eps) for the power fit a eps^b of vals;
    0.0 without a fit or when q = p + b + 1 <= 0 makes it diverge."""
    fit = power_fit(eps, vals, decades)
    if fit is None:
        return 0.0
    a, b = fit
    q = p + b + 1.0
    return a * eps[0] ** q / q if q > 0 else 0.0


def require_checks(checks) -> None:
    """Refuse, naming the check, when any structural check report failed."""
    for rep in checks:
        if getattr(rep, "verdict", "pass") == "fail":
            raise PreconditionError(f"structural check {rep.name!r} failed: {rep.witness}")


def _restrict(samples: VolumeSamples, top: float, lo: float = 0.0):
    sel = (samples.eps <= top * (1.0 + 1e-12)) & (samples.eps >= lo)
    if sel.sum() < 8:
        raise PreconditionError("too few samples below the integration top")
    jumps = samples.upper_jumps[sel] if samples.upper_jumps is not None else None
    return samples.eps[sel], samples.values[sel], samples.tolerance[sel], jumps


def _difference_cutoff(samples: VolumeSamples, d: int) -> float:
    """Integration floor for renewal-difference integrands.

    Differences of two raster volumes taken at scales eps and eps/r do not
    cancel their half-cell errors; against the eps^(D-d-1) weight the d=1
    error integral is delta-independent unless the floor grows in cell
    units. Single-scale integrands keep the grid floor.
    """
    return (64.0 if d == 1 else 4.0) * samples.delta


# ---------------------------------------------------------------------------
# generator formulas


def generator_content(
    V_G: VolumeSamples, D: float, eta: float, d: int, g: float, lattice_note: str = "",
) -> ContentResult:
    """Average content of a tiling from its generator's tube volume alone.

    (1/eta) * [ integral_0^g eps^(D-d-1) V(G,eps) d(eps) + V(G,g) g^(D-d)/(d-D) ],
    with the head below the smallest sample extrapolated by a power-law fit.
    Requires the empirical tube exponent to exceed d - D + GAMMA_MIN; a
    shallower exponent means the generator boundary is too fat for the
    renewal argument and the method refuses.
    """
    if D >= d:
        raise PreconditionError("generator formula undefined for full-dimensional sets (D >= d)")
    eps, vals, tol, _ = _restrict(V_G, g)
    fit = power_fit(eps, vals)
    if fit is None:
        raise PreconditionError("tube volume vanishes on the smallest decade; cannot fit exponent")
    b = fit[1]
    if b < (d - D) + GAMMA_MIN:
        raise PreconditionError(
            f"tube-volume exponent {b:.4f} is below d - D + {GAMMA_MIN:g} = "
            f"{d - D + GAMMA_MIN:.4f}: the generator boundary is too large for "
            "the renewal hypothesis",
        )
    p = D - d - 1.0
    integral, quad_err, tol_int = renewal_integral(eps, vals, p, tol)
    head = power_head(eps, vals, p)
    tail = vals[-1] * eps[-1] ** (D - d) / (d - D)
    value = (integral + head + tail) / eta
    qerr = (2.0 * quad_err + 0.1 * head) / eta
    err = qerr + tol_int / eta
    return ContentResult(
        value, D, "generator_integral", V_G.delta, err, lattice_note,
        {"head": head / eta, "tail": tail / eta, "fitted_exponent": b,
         "quadrature_error": qerr},
    )


def tiling_content_via_h(
    h: VolumeSamples, D: float, eta: float, d: int, g: float, lattice_note: str = "",
) -> ContentResult:
    """Average content of a tiling from the renewal difference of its union set."""
    if D >= d:
        raise PreconditionError("formula undefined for D >= d")
    eps, vals, tol, jumps = _restrict(h, g, lo=_difference_cutoff(h, d))
    p = D - d - 1.0
    integral, quad_err, tol_int = renewal_integral(eps, vals, p, tol, jumps)
    head = power_head(eps, vals, p, decades=1.5)
    value = (integral + head) / eta
    err = (2.0 * quad_err + 0.2 * head + tol_int) / eta
    return ContentResult(
        value, D, "tiling_via_h", h.delta, err, lattice_note,
        {"head": head / eta, "interpolated": h.interpolated},
    )


def monophase_content(m: MonophaseData, D: float, eta: float, d: int) -> ContentResult:
    """Closed form for a polynomial tube volume; exact arithmetic, no quadrature."""
    if not (d - 1 < D < d):
        raise PreconditionError(f"monophase formula needs D in (d-1, d), got D={D}")
    m.validate(d)
    total = sum(
        (d - k) / (D - k) * m.kappa[k] * m.g ** (D - k) for k in range(d)
    )
    value = total / ((d - D) * eta)
    return ContentResult(value, D, "monophase", None, 0.0, "", {"g": m.g})


def pluriphase_content(p: PluriphaseData, D: float, eta: float, d: int) -> ContentResult:
    """Closed form for a piecewise polynomial tube volume.

    Interior breakpoints contribute jump terms (kappa^l_k - kappa^(l+1)_k)
    e_l^(D-k) / (D-k); the last phase contributes the monophase-shaped final
    term, whose k=d coefficient cancels exactly against the tail.
    """
    if not (d - 1 < D < d):
        raise PreconditionError(f"pluriphase formula needs D in (d-1, d), got D={D}")
    p.validate(d)
    br = np.asarray(p.breakpoints, dtype=float)
    km = np.asarray(p.kappa_matrix, dtype=float)
    mph = br.size
    g = p.g
    total = 0.0
    for k in range(d + 1):
        jumps = sum(
            (km[l, k] - km[l + 1, k]) * br[l] ** (D - k) for l in range(mph - 1)
        )
        total += jumps / (D - k)
    for k in range(d):
        total += (d - k) / ((d - D) * (D - k)) * km[-1, k] * g ** (D - k)
    value = total / eta
    return ContentResult(value, D, "pluriphase", None, 0.0, "", {"g": g})


def gatzouras_content(
    R_d: VolumeSamples, D: float, eta: float, d: int, lattice_note: str = "",
) -> ContentResult:
    """Average content of the attractor from the parallel-volume difference.

    (1/eta) * integral_0^a eps^(D-d-1) R_d(eps) d(eps) with a = R_d's top
    sample, the cutoff R_d was taken with (volumes.gatzouras_rd). Below the smallest
    sample R_d is the (signed) overlap deficit of the pieces' parallel sets;
    its magnitude is extrapolated by a power fit and entered as value when
    the sign is consistent, as error otherwise.
    """
    eps, vals, tol, jumps = _restrict(R_d, R_d.eps[-1], lo=_difference_cutoff(R_d, d))
    p = D - d - 1.0
    integral, quad_err, tol_int = renewal_integral(eps, vals, p, tol, jumps)
    head = head_err = 0.0
    mag = power_head(eps, np.abs(vals), p)
    if mag > 0:
        low = vals[eps <= eps[0] * 10]
        signs = np.sign(low[low != 0])
        if np.all(signs == signs[0]):
            head, head_err = float(signs[0]) * mag, 0.5 * mag
        else:
            head_err = mag
    value = (integral + head) / eta
    err = (2.0 * quad_err + head_err + tol_int) / eta
    if value <= 0 and value + err <= 0:
        raise PreconditionError(
            f"content difference integrated to {value:.3e} <= 0: the content is "
            "strictly positive, so the resolution is insufficient"
        )
    return ContentResult(
        value, D, "gatzouras", R_d.delta, err, lattice_note,
        {"normalization": float(R_d.eps[-1]), "head": head / eta},
    )


def relative_generator_content(
    F_on_Gamma: VolumeSamples, D: float, eta: float, d: int,
    g_tilde: float, lambda_Gamma: float,
    checks=(), lattice_note: str = "",
) -> ContentResult:
    """Content of the attractor from its parallel volume inside Gamma = O - Phi(O).

    (1/eta) * [ integral_0^g~ eps^(D-d-1) lambda(F_eps ^ Gamma) d(eps)
                + lambda(Gamma) g~^(D-d) / (d-D) ].
    Refuses when D = d or when a provided structural check failed.
    """
    require_checks(checks)
    if D >= d:
        raise PreconditionError(
            "the restricted generator formula provably fails for full-dimensional sets"
        )
    eps, vals, tol, _ = _restrict(F_on_Gamma, g_tilde)
    p = D - d - 1.0
    integral, quad_err, tol_int = renewal_integral(eps, vals, p, tol)
    head = power_head(eps, vals, p)
    tail = lambda_Gamma * eps[-1] ** (D - d) / (d - D)
    value = (integral + head + tail) / eta
    err = (2.0 * quad_err + 0.5 * head + tol_int) / eta
    return ContentResult(
        value, D, "relative_generator", F_on_Gamma.delta, err, lattice_note,
        {"head": head / eta, "tail": tail / eta, "g_tilde": g_tilde},
    )


def s_content(
    boundary_samples: VolumeSamples, D: float, eta: float, d: int,
    g_tilde: float, checks=(), lattice_note: str = "",
) -> ContentResult:
    """Content via the surface areas of the parallel-set boundaries inside G.

    (1/((d-D) eta)) * integral_0^g~ eps^(D-d) H^{d-1}(bd F_eps ^ G) d(eps).
    """
    require_checks(checks)
    if D >= d:
        raise PreconditionError("surface formula needs D < d")
    eps, vals, tol, _ = _restrict(boundary_samples, g_tilde)
    p = D - d
    integral, quad_err, tol_int = renewal_integral(eps, vals, p, tol)
    head = power_head(eps, vals, p)
    norm = (d - D) * eta
    value = (integral + head) / norm
    err = (2.0 * quad_err + 0.5 * head + tol_int) / norm
    return ContentResult(
        value, D, "s_content", boundary_samples.delta, err, lattice_note,
        {"head": head / norm},
    )


# ---------------------------------------------------------------------------
# direct estimators


def direct_content(
    samples: VolumeSamples, D: float, d: int,
    window: tuple[float, float],
    lattice_base: float | None = None,
    lattice_note: str = "",
) -> tuple[ContentResult, ContentResult]:
    """Direct (limit, average) content estimates: the scaled window at order d
    (C_d is the volume) with the raster tolerance. Refuses under DIRECT_MIN_DECADES."""
    lo, hi = window
    if hi / lo < 10.0**DIRECT_MIN_DECADES:
        raise PreconditionError(
            f"direct window ({lo:.4g}, {hi:.4g}) spans {math.log10(hi / lo):.2f} "
            f"decades, under {DIRECT_MIN_DECADES}"
        )
    return _direct_estimates(
        samples, samples.tolerance, D, d, window, lattice_base, lattice_note,
        "lattice system: oscillation band over one period, not a limit", {},
    )


def _direct_estimates(
    samples, tolerance: np.ndarray, D: float, order: int,
    window: tuple[float, float], lattice_base: float | None, lattice_note: str,
    band_note: str, extra: dict,
) -> tuple[ContentResult, ContentResult]:
    """(limit, average) of eps^(D-order) * samples.values over the window.

    The limit estimate is the mean with the oscillation amplitude as its
    error; for lattice systems the window's lowest period is reported as a
    band instead. The average is the logarithmic Cesaro mean, cut down to a
    whole number of periods when 16 samples remain, with the density
    sensitivity of the mean plus the scaled tolerance as its error.
    """
    eps = samples.eps
    sel = (eps >= window[0]) & (eps <= window[1])
    if sel.sum() < 16:
        raise PreconditionError("direct window contains too few samples")
    e = eps[sel]
    scaled = e ** (D - order) * samples.values[sel]
    tol = e ** (D - order) * tolerance[sel]
    if lattice_base is not None:
        # the slack keeps a span of exactly P periods from rounding down to P - 1
        periods = int(math.floor(math.log(e[-1] / e[0]) / lattice_base * (1 + 1e-9)))
        if periods >= 1:
            cut = e >= e[-1] * math.exp(-periods * lattice_base) * (1 - 1e-9)
            if cut.sum() >= 16:
                e, scaled, tol = e[cut], scaled[cut], tol[cut]
    win_used = (float(e[0]), float(e[-1]))
    avg_val = float(np.mean(scaled))
    avg_err = abs(avg_val - float(np.mean(scaled[::2]))) + float(np.mean(tol))
    average = ContentResult(
        avg_val, D, "direct_average", samples.delta, avg_err, lattice_note,
        {**extra, "window": win_used},
    )
    if lattice_base is not None:
        band_sel = e <= e[0] * math.exp(lattice_base) * (1 + 1e-9)
        band = scaled[band_sel] if band_sel.sum() >= 4 else scaled
        bmin, bmax = float(band.min()), float(band.max())
        value, err = 0.5 * (bmin + bmax), 0.5 * (bmax - bmin)
        extra = {**extra, "band": (bmin, bmax), "window": win_used, "note": band_note}
    else:
        value, err = avg_val, 0.5 * float(scaled.max() - scaled.min())
        extra = {**extra, "window": win_used}
    limit = ContentResult(value, D, "direct_limit", samples.delta, err, lattice_note, extra)
    return limit, average
