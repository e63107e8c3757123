"""Exact content of a 1-d tiling whose generator is a union of gaps.

For G = union of intervals of lengths L_j, V(G, eps) = sum_j min(2 eps, L_j)
is piecewise linear with breakpoints at the half-lengths, so the library's
pluriphase closed form gives the tiling's (average) Minkowski content
exactly. `self_test()` must pass before the oracle is trusted: on the single
Cantor gap it has to reproduce the preset's independent closed form.
"""

from __future__ import annotations

import math

import numpy as np


def gap_content(gaps, D: float, eta: float) -> float:
    from fractal_tiling_lab.contents import PluriphaseData, pluriphase_content

    lengths = np.sort(np.asarray(gaps, dtype=float))
    half = lengths / 2
    breaks = np.unique(half)
    rows, prev = [], 0.0
    for e in breaks:
        saturated = half <= prev
        rows.append([2.0 * np.count_nonzero(~saturated), float(lengths[saturated].sum())])
        prev = e
    data = PluriphaseData(tuple(float(b) for b in breaks), np.array(rows))
    return pluriphase_content(data, D, eta, 1).value


def self_test() -> tuple[bool, float]:
    """(passed, relative error) of the oracle on the Cantor generator (gap 1/3)."""
    from fractal_tiling_lab.presets import CANTOR_CONTENT_CLOSED_FORM, D_CANTOR

    got = gap_content([1 / 3], D_CANTOR, math.log(3))
    rel = abs(got - CANTOR_CONTENT_CLOSED_FORM) / CANTOR_CONTENT_CLOSED_FORM
    return bool(rel <= 1e-12), float(rel)
