"""Minkowski contents and fractal curvatures of self-similar sets and tilings."""

from .errors import ConfigError, FtlError, PreconditionError, ResolutionError
from .ifs import (
    IFS,
    DimensionData,
    Similarity,
    Word,
    dimension_data,
    eta,
    is_lattice,
    load_ifs,
    similarity_dimension,
)
from .grids import (
    ConvexPolygon,
    DistanceField,
    Grid,
    IntervalUnion,
    PolygonUnion,
    distance_transform,
    inner_distance,
    inner_parallel_volume,
    inradius,
    parallel_volume,
    rasterize,
)
from .levelsets import (
    LevelSetExtractor,
    euler_and_turning,
    euler_characteristic,
)
from .tiling import TilingData, attractor_raster, build_tiling, central_open_set, relative_inradius
from .volumes import (
    EpsGrid,
    VolumeSamples,
    gatzouras_rd,
    h_function,
    make_eps_grid,
    phi_function,
    sample_inner_volume,
    sample_parallel_volume,
    sample_restricted_volume,
)
from .contents import (
    ContentResult,
    MonophaseData,
    PluriphaseData,
    direct_content,
    gatzouras_content,
    generator_content,
    monophase_content,
    pluriphase_content,
    relative_generator_content,
    s_content,
    tiling_content_via_h,
)
from .curvature import (
    CurvatureSamples,
    direct_fractal_curvature,
    generator_curvature,
    inner_curvature_samples,
    relative_generator_curvature,
    sample_curvature,
)
from .conditions import (
    CheckReport,
    check_boundary_null,
    check_compatibility,
    check_osc,
    check_projection,
    check_strong,
)
from .pipeline import SceneBundle, get_bundle
from .presets import PRESETS, Preset, Scene, get_preset

__version__ = "0.1.0"
