"""Each zero-argument SceneBundle product is declared once with pipeline._product.

The product is built on first access and memoized in the bundle's _cache
under its own name, so a second access returns the very same object. Each
distance field is built once per bundle: G's inner field by the tiling,
the coarse bound on g~, field_small and the tile union's inner field.
"""

from dataclasses import replace

import pytest

from fractal_tiling_lab import grids, pipeline
from fractal_tiling_lab.presets import get_preset

PRODUCTS = (
    "dim_data", "tiling", "F_tight", "field_small", "g_tilde",
    "grid_G", "grid_rel", "grid_F", "grid_curv", "grid_curv_G",
    "V_G", "V_T", "h", "F_on_O", "F_on_Gamma", "F_volumes", "R_d",
    "eps_boundary_null", "field_extractor", "surface_samples",
)


def fresh_bundle(preset: str, delta: float) -> pipeline.SceneBundle:
    return pipeline.SceneBundle(replace(get_preset(preset).scene, delta=delta))


def assert_built_once(bundle: pipeline.SceneBundle, name: str):
    first = getattr(bundle, name)
    assert getattr(bundle, name) is first
    assert bundle._cache[name] is first


@pytest.fixture(scope="module")
def cantor():
    return fresh_bundle("cantor", 2.0**-10)


def test_every_declared_product_is_listed():
    declared = {
        name for name, attr in vars(pipeline.SceneBundle).items()
        if isinstance(attr, property) and hasattr(attr.fget, "__wrapped__")
    }
    assert declared == set(PRODUCTS)


@pytest.mark.parametrize("name", [p for p in PRODUCTS if p != "field_extractor"])
def test_second_access_reads_the_memo(cantor, name):
    assert_built_once(cantor, name)


def test_field_extractor_is_built_once():
    # level sets are 2-d only
    assert_built_once(fresh_bundle("carpet", 2.0**-7), "field_extractor")


def test_bundle_paths_never_build_the_corner_minima():
    # the extractor's _fmin is built only when read, for the benchmark's
    # tracer; every table and check indexes its thresholds and sweeps
    b = fresh_bundle("carpet", 2.0**-8)
    b.content_table()
    b.checks()
    b.curvature_table(0)
    b.curvature_table(1)
    assert "_fmin" not in vars(b.field_extractor)


@pytest.mark.parametrize("preset, delta", [("carpet", 2.0**-8), ("cantor", 2.0**-10)])
def test_each_distance_field_built_once(preset, delta, monkeypatch):
    b = fresh_bundle(preset, delta)
    calls = []
    edt = grids._edt
    monkeypatch.setattr(grids, "_edt", lambda *a, **kw: calls.append(a[0].shape) or edt(*a, **kw))
    b.content_table()
    b.checks()
    for k in range(b.d):
        b.curvature_table(k)
    assert len(calls) == 4, calls
