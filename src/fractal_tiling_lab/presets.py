"""Preset catalog: the worked configurations with their expected values.

Each expected value carries a provenance tag: TRIVIAL (closed form),
DERIVED (computed by the recorded independent oracle; the oracle lives in
the test suite next to the assertion), or reference values taken from the
literature on these constructions. Scenes describe an IFS, a feasible open
set, a working resolution and the eps-grid density.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError
from .grids import ConvexPolygon, IntervalUnion, Region
from .ifs import IFS, Similarity, _is_number

SQ3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Scene:
    ifs: IFS
    region: Region | str  # "central" builds the central open set
    delta: float
    f_bbox: tuple  # invariant box containing the attractor
    eps_per_decade: int = 64
    name: str = ""

    def validate(self):
        """The one scene rule, for presets, scene files, the --delta /
        --eps-per-decade flags and scenes built in Python."""
        d = self.ifs.ambient_dim
        if not isinstance(self.region, (Region, str)):
            raise ConfigError("region must be a Region or 'central'")
        if isinstance(self.region, str) and self.region != "central":
            raise ConfigError(f"unknown region spec {self.region!r}")
        if isinstance(self.region, Region) and self.region.dim != d:
            raise ConfigError(f"the region is {self.region.dim}-d but the maps are {d}-d")
        # f_bbox must hold the attractor, so each map's fixed point
        box = np.asarray(self.f_bbox, dtype=object).tolist()  # nested lists of the entries as given
        if not (isinstance(box, list) and len(box) == 2 and all(
            isinstance(c, list) and len(c) == d and all(map(_is_number, c)) for c in box
        )):
            raise ConfigError(f"f_bbox must be two corners [lo, hi] of dimension {d}, the maps' dimension")
        box = np.asarray(box, dtype=float)
        lo, hi = box
        if not np.all(lo < hi):
            raise ConfigError(f"f_bbox {box.tolist()} must have lo < hi on every axis")
        # halves cannot overflow: hi - lo is a float iff hi / 2 - lo / 2 <= max / 2
        if not np.all(hi / 2 - lo / 2 <= np.finfo(float).max / 2):
            raise ConfigError(f"f_bbox {box.tolist()} is too wide: its width hi - lo passes the float range")
        # the diagonal's sum of squares is 0 iff that of min(hi - lo, 1) is, which cannot overflow
        if not np.linalg.norm(np.minimum(hi - lo, 1.0)) > 0:
            raise ConfigError(f"f_bbox {box.tolist()} is too small: the length of its diagonal underflows to 0")
        for i, p in enumerate(m.fixed_point() for m in self.ifs.maps):
            if np.any((lo / 2 - p / 2 > 5e-10 * (hi - lo)) | (p / 2 - hi / 2 > 5e-10 * (hi - lo))):
                raise ConfigError(f"f_bbox {box.tolist()} does not hold map {i}'s fixed point {p.tolist()}")
        delta, ppd = self.delta, self.eps_per_decade
        if not (_is_number(delta) and delta > 0):
            raise ConfigError(f"delta must be a positive finite number, got {delta!r}")
        integer = isinstance(ppd, numbers.Integral) and not isinstance(ppd, bool)
        if not (integer and ppd > 0):
            raise ConfigError(f"eps_per_decade must be a positive integer, got {ppd!r}")
        if not _is_number(ppd):
            raise ConfigError(f"eps_per_decade must be an integer that a float holds, got {ppd!r}")


@dataclass(frozen=True)
class Preset:
    name: str
    scene: Scene
    expected: dict = dc_field(default_factory=dict)


def translation_map(ratio: float, offset) -> Similarity:
    offset = np.atleast_1d(np.asarray(offset, dtype=float))
    return Similarity(ratio, np.eye(offset.size), offset)


def cantor_ifs() -> IFS:
    return IFS((translation_map(1 / 3, [0.0]), translation_map(1 / 3, [2 / 3])), 1)


def cantor_pair_ifs() -> IFS:
    """Ratios 1/2 and 1/4 (lattice with base ln 2, dimension log2 of the golden ratio)."""
    return IFS((translation_map(0.5, [0.0]), translation_map(0.25, [0.75])), 1)


def carpet_ifs() -> IFS:
    maps = [
        translation_map(1 / 3, [ix / 3, iy / 3])
        for ix in range(3)
        for iy in range(3)
        if not (ix == 1 and iy == 1)
    ]
    return IFS(tuple(maps), 2)


def koch_ifs() -> IFS:
    """Two-map Koch curve from (0,0) to (1,0), peak at (1/2, sqrt(3)/6).

    Both maps have ratio 1/sqrt(3) and orthogonal parts that are
    reflections composed with +-30 degree rotations.
    """
    r = 1 / SQ3
    q1 = np.array([[SQ3 / 2, 0.5], [0.5, -SQ3 / 2]])
    q2 = np.array([[SQ3 / 2, -0.5], [-0.5, -SQ3 / 2]])
    return IFS(
        (
            Similarity(r, q1, np.array([0.0, 0.0])),
            Similarity(r, q2, np.array([0.5, SQ3 / 6])),
        ),
        2,
    )


def gasket_ifs() -> IFS:
    vs = [(0.0, 0.0), (1.0, 0.0), (0.5, SQ3 / 2)]
    return IFS(tuple(translation_map(0.5, [v[0] / 2, v[1] / 2]) for v in vs), 2)


def unit_square() -> ConvexPolygon:
    return ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def koch_hull() -> ConvexPolygon:
    return ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQ3 / 6]]))


def gasket_triangle() -> ConvexPolygon:
    return ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQ3 / 2]]))


D_CANTOR = math.log(2) / math.log(3)
D_CARPET = math.log(8) / math.log(3)
D_KOCH = math.log(4) / math.log(3)
D_GASKET = math.log(3) / math.log(2)

# exact antiderivative of the Cantor generator integral:
# (1/ln3) [ (2/D) 6^-D + 6^(1-D) / (3 (1-D)) ]
CANTOR_CONTENT_CLOSED_FORM = (1 / math.log(3)) * (
    (2 / D_CANTOR) * 6.0**-D_CANTOR
    + 6.0 ** (1 - D_CANTOR) / (3 * (1 - D_CANTOR))
)


def _build_presets() -> dict[str, Preset]:
    presets = {}
    presets["cantor"] = Preset(
        "cantor",
        Scene(cantor_ifs(), IntervalUnion(((0.0, 1.0),)), 2.0**-16, ([-0.0], [1.0]), name="cantor"),
        expected={
            "D": {"value": D_CANTOR, "tag": "TRIVIAL", "oracle": "ln2/ln3"},
            "eta": {"value": math.log(3), "tag": "TRIVIAL", "oracle": "2*(1/2)*ln3"},
            "lattice_base": {"value": math.log(3), "tag": "TRIVIAL"},
            "g": {"value": 1 / 6, "tag": "TRIVIAL"},
            "g_tilde": {"value": 1 / 6, "tag": "TRIVIAL", "oracle": "deepest point 1/2"},
            "content": {
                "value": CANTOR_CONTENT_CLOSED_FORM,
                "tag": "DERIVED",
                "oracle": "exact antiderivative of the generator integral (V(G,eps)=2eps)",
            },
        },
    )
    presets["cantor_pair"] = Preset(
        "cantor_pair",
        Scene(cantor_pair_ifs(), IntervalUnion(((0.0, 1.0),)), 2.0**-16, ([0.0], [1.0]), name="cantor_pair"),
        expected={
            "D": {"value": math.log(2 / (math.sqrt(5) - 1), 2), "tag": "DERIVED",
                  "oracle": "bisection on x + x^2 = 1, x = (1/2)^D"},
            "lattice_base": {"value": math.log(2), "tag": "TRIVIAL"},
        },
    )
    presets["carpet"] = Preset(
        "carpet",
        Scene(carpet_ifs(), unit_square(), 2.0**-11, ([0.0, 0.0], [1.0, 1.0]), name="carpet"),
        expected={
            "D": {"value": D_CARPET, "tag": "TRIVIAL", "oracle": "ln8/ln3"},
            "eta": {"value": math.log(3), "tag": "TRIVIAL"},
            "lattice_base": {"value": math.log(3), "tag": "TRIVIAL"},
            "g": {"value": 1 / 6, "tag": "TRIVIAL", "oracle": "middle square side 1/3"},
            "g_tilde": {"value": 1 / 6, "tag": "TRIVIAL", "oracle": "center to middle-square boundary"},
            "monophase": {"value": (1 / math.log(3)) * (1 / (2 - D_CARPET)) * (
                (2 / D_CARPET) * (-4) * (1 / 6) ** D_CARPET
                + (1 / (D_CARPET - 1)) * (4 / 3) * (1 / 6) ** (D_CARPET - 1)
            ), "tag": "DERIVED", "oracle": "closed form with kappa1=4/3, kappa0=-4, g=1/6"},
        },
    )
    presets["koch"] = Preset(
        "koch",
        Scene(koch_ifs(), koch_hull(), 2.0**-11, ([-0.01, -0.01], [1.01, SQ3 / 6 + 0.01]), name="koch"),
        expected={
            "D": {"value": D_KOCH, "tag": "TRIVIAL", "oracle": "2 maps ratio 3^-1/2"},
            "eta": {"value": math.log(3) / 2, "tag": "TRIVIAL"},
            "lattice_base": {"value": math.log(3) / 2, "tag": "TRIVIAL"},
            "compatible": {"value": False, "tag": "TRIVIAL",
                           "oracle": "triangle sides leave the curve"},
        },
    )
    presets["gasket"] = Preset(
        "gasket",
        Scene(gasket_ifs(), gasket_triangle(), 2.0**-10, ([0.0, 0.0], [1.0, SQ3 / 2]), name="gasket"),
        expected={
            "D": {"value": D_GASKET, "tag": "TRIVIAL", "oracle": "ln3/ln2"},
            "eta": {"value": math.log(2), "tag": "TRIVIAL"},
        },
    )
    return presets


PRESETS = _build_presets()


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
