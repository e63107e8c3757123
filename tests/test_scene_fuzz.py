"""A scene fuzzer for the CLI: every mutant scene document is run or refused.

Each example takes one of the five presets' scene documents at a coarse
delta (2^-7 or 2^-6), applies one or two mutations (a dropped key, a value
of the wrong type, dim 3, a ratio outside (0, 1), overlapping maps, a
shrunk or reversed f_bbox, a delta past MAX_CELLS, the "central" region)
and runs it through cli.main. Only a return code may come back: an
exception that escapes main fails the example, and a nonzero code must come
with one typed message on stderr, or (exit 2 of content and curvature) with
JSON rows that are all refused, each with its reason. The examples are
derandomized, so the run is the same each time.
"""

import contextlib
import copy
import io
import json
import math
import re
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from fractal_tiling_lab import pipeline
from fractal_tiling_lab.cli import main
from fractal_tiling_lab.grids import IntervalUnion
from fractal_tiling_lab.presets import PRESETS

TYPED = re.compile(r"(precondition failed|configuration error|error): \S")
# values of every JSON type, numbers out of range and non-finite ones among them,
# with an int past the float range (10**400) and one whose eps grid, as
# eps_per_decade, is past the cell cap (10**20)
ODD_VALUES = ("x", "", True, None, [], {}, 0, -1, 1.5, 1e300, math.nan, math.inf, [0.5],
              [[0.0, 1.0]], {"type": "polygon"}, 10**400, 10**20)


def scene_document(name: str, delta: float) -> dict:
    """The preset's scene as a scene file holds it, at the given delta."""
    scene = PRESETS[name].scene
    maps = [{"ratio": m.ratio, "matrix": m.orthogonal_part.tolist(), "translation": m.translation.tolist()}
            for m in scene.ifs.maps]
    region = scene.region
    if isinstance(region, IntervalUnion):
        region_doc = {"type": "intervals", "intervals": [list(iv) for iv in region.intervals]}
    else:
        region_doc = {"type": "polygon", "vertices": region.vertices.tolist()}
    return {"name": name, "ifs": {"dim": scene.ifs.ambient_dim, "maps": maps}, "region": region_doc,
            "delta": delta, "f_bbox": [[float(x) for x in c] for c in scene.f_bbox]}


def paths(node, at=()):
    """Every path (a tuple of keys and indices) into a JSON document, the root first."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from paths(value, at + (key,))


def parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def mutate(doc: dict, draw) -> None:
    """Apply one drawn mutation to doc in place."""
    op = draw(st.sampled_from(["drop", "swap", "dim3", "ratio", "overlap", "shrink", "fine", "central"]))
    maps = doc.get("ifs", {}).get("maps") if isinstance(doc.get("ifs"), dict) else None
    maps = maps if isinstance(maps, list) and all(isinstance(m, dict) for m in maps) and maps else None
    if op == "drop":
        keys = [p for p in paths(doc) if p and isinstance(parent(doc, p), dict)]
        path = draw(st.sampled_from(keys))
        del parent(doc, path)[path[-1]]
    elif op == "swap":
        path = draw(st.sampled_from([p for p in paths(doc) if p]))
        parent(doc, path)[path[-1]] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    elif op == "dim3" and isinstance(doc.get("ifs"), dict):
        doc["ifs"]["dim"] = 3
        if draw(st.booleans()):
            for m in maps or ():
                if isinstance(m.get("translation"), list):
                    m["translation"] = m["translation"] + [0.0]
                m.pop("matrix", None)
            if isinstance(doc.get("f_bbox"), list):
                doc["f_bbox"] = [c + [0.0] if isinstance(c, list) else c for c in doc["f_bbox"]]
    elif op == "ratio" and maps:
        m = draw(st.sampled_from(maps))
        m["ratio"] = draw(st.sampled_from([0, 0.0, -0.0, 1, 1.0 + 1e-12, 1.5, -0.5, -1e-300, 1e6]))
    elif op == "overlap" and maps:
        i, j = draw(st.integers(0, len(maps) - 1)), draw(st.integers(0, len(maps) - 1))
        if draw(st.booleans()):
            maps[j] = copy.deepcopy(maps[i])
        else:
            maps.append(copy.deepcopy(maps[i]))
    elif op == "shrink" and isinstance(doc.get("f_bbox"), list) and len(doc["f_bbox"]) == 2:
        lo, hi = doc["f_bbox"]
        factor = draw(st.sampled_from([0.9, 0.5, 0.1, 0.0, -1.0]))
        if all(isinstance(c, list) and all(isinstance(x, float) for x in c) for c in (lo, hi)):
            doc["f_bbox"][1] = [a + factor * (b - a) for a, b in zip(lo, hi)]
    elif op == "fine":
        # past MAX_CELLS on every preset's box: refused by the cell count
        doc["delta"] = draw(st.sampled_from([1e-9, 2.0**-40, 1e-300, 5e-324]))
    elif op == "central":
        doc["region"] = "central"


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(PRESETS)), delta=st.sampled_from([2.0**-7, 2.0**-6]),
       command=st.sampled_from([["dim"], ["check"], ["content"], ["curvature", "-k", "0"],
                                ["curvature", "-k", "1"]]),
       data=st.data())
def test_mutant_scenes_exit_with_a_code(tmp_path_factory, name, delta, command, data):
    doc = scene_document(name, delta)
    for _ in range(data.draw(st.integers(1, 2))):
        mutate(doc, data.draw)
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(pipeline, "_BUNDLES", {}), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main([*command, "--scene", str(path), "--format", "json"])
    assert code in (0, 1, 2, 3)
    if code == 2 and not err.getvalue():
        # content or curvature with every row refused: each refusal names its reason
        rows = json.loads(out.getvalue())["rows"]
        assert rows and all(isinstance(r["refused"], str) and r["refused"] for r in rows.values())
    elif code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and TYPED.match(lines[0]), err.getvalue()
