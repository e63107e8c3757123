import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fractal_tiling_lab import grids, pipeline, tiling
from fractal_tiling_lab.cli import build_parser, load_scene, main
from fractal_tiling_lab.errors import ConfigError, ResolutionError
from fractal_tiling_lab.grids import ConvexPolygon
from fractal_tiling_lab.pipeline import get_bundle
from fractal_tiling_lab.presets import get_preset
from fractal_tiling_lab.tiling import central_open_set


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# Cantor with O reaching past the attractor: the projection check fails
OVERHANG_SCENE = {
    "name": "cantor_overhang",
    "ifs": {
        "dim": 1,
        "maps": [
            {"ratio": 1 / 3, "translation": [0.0]},
            {"ratio": 1 / 3, "translation": [2 / 3]},
        ],
    },
    "region": {"type": "intervals", "intervals": [[-0.6, 1.0]]},
    "delta": 2.0**-13,
    "f_bbox": [[0.0], [1.0]],
}


class TestDim:
    def test_carpet(self, capsys):
        code, out = run(capsys, "dim", "--preset", "carpet", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"]["D"]["value"] == pytest.approx(1.892789, abs=1e-6)
        assert doc["rows"]["eta"]["value"] == pytest.approx(math.log(3), abs=1e-9)
        assert doc["rows"]["lattice"]["value"] is True

    def test_cantor(self, capsys):
        code, out = run(capsys, "dim", "--preset", "cantor", "--format", "json")
        doc = json.loads(out)
        assert doc["rows"]["D"]["value"] == pytest.approx(0.630930, abs=1e-6)

    def test_nonlattice_scene_file(self, capsys, tmp_path):
        scene = {
            "name": "halfthird",
            "ifs": {
                "dim": 1,
                "maps": [
                    {"ratio": 0.5, "translation": [0.0]},
                    {"ratio": 1 / 3, "translation": [2 / 3]},
                ],
            },
            "region": {"type": "intervals", "intervals": [[0.0, 1.0]]},
            "delta": 2.0**-12,
            "f_bbox": [[0.0], [1.0]],
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        code, out = run(capsys, "dim", "--scene", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"]["lattice"]["value"] is False


class TestContent:
    def test_carpet_rows_agree(self, capsys, carpet_bundle):
        code, out = run(
            capsys, "content", "--preset", "carpet", "--format", "json",
            "--methods", "generator_integral,relative_generator,direct_average",
        )
        assert code == 0
        doc = json.loads(out)
        rows = doc["rows"]
        assert all("value" in rows[m] for m in rows)
        assert all(rel <= 0.03 for rel in doc["pairwise_relative_difference"].values())
        assert doc["checks"]["compatible"]["verdict"] == "pass"

    def test_koch_generator_marked_not_applicable(self, capsys, koch_bundle):
        code, out = run(
            capsys, "content", "--preset", "koch", "--format", "json",
            "--methods", "generator_integral,relative_generator,direct_average",
        )
        assert code == 0
        doc = json.loads(out)
        assert "not applicable" in doc["rows"]["generator_integral"]["note"]
        assert "generator_integral" not in " ".join(doc["pairwise_relative_difference"])

    def test_cantor_band_on_limit_row(self, capsys, cantor_bundle):
        code, out = run(
            capsys, "content", "--preset", "cantor", "--format", "json",
            "--methods", "direct_limit,direct_average",
        )
        doc = json.loads(out)
        assert "band" in doc["rows"]["direct_limit"]
        band = doc["rows"]["direct_limit"]["band"]
        assert band[1] > band[0]

    def test_refusal_exit_code(self, capsys, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(OVERHANG_SCENE))
        code, out = run(capsys, "content", "--scene", str(path), "--format", "json",
                        "--methods", "relative_generator")
        assert code == 2
        doc = json.loads(out)
        assert "refused" in doc["rows"]["relative_generator"]

    def test_carpet_short_direct_window_refuses_only_direct_rows(self, capsys):
        # at 2^-9 the compatible carpet's direct window is capped at g~ and
        # spans 1.33 decades: the direct rows are refused, the rest print
        code, out = run(capsys, "content", "--preset", "carpet", "--delta", str(2.0**-9),
                        "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        for m in ("direct_limit", "direct_average"):
            assert "1.33 decades, under 1.5" in rows[m]["refused"]
        assert all("value" in r for m, r in rows.items() if not m.startswith("direct"))

    def test_too_few_samples_refuses_the_row_not_the_command(self, capsys):
        # at 2^-9 cantor_pair's d = 1 tiling_via_h floor, 64 delta, equals g = 1/8
        code, out = run(capsys, "content", "--preset", "cantor_pair", "--delta", str(2.0**-9),
                        "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows["tiling_via_h"]["refused"] == "too few samples below the integration top"
        assert all("value" in r for m, r in rows.items() if m != "tiling_via_h")

    def test_config_error_exit_code(self, capsys):
        assert main(["dim", "--preset", "nosuch"]) == 3
        assert main(["dim"]) == 3


class TestCheckCommand:
    def test_carpet_all_pass(self, capsys, carpet_bundle):
        code, out = run(capsys, "check", "--preset", "carpet", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for name in ("osc", "strong", "compatible", "projection"):
            assert doc["rows"][name]["verdict"] == "pass"

    def test_koch_compatibility_fails(self, capsys, koch_bundle):
        code, out = run(capsys, "check", "--preset", "koch", "--format", "json")
        doc = json.loads(out)
        assert doc["rows"]["compatible"]["verdict"] == "fail"
        assert doc["rows"]["projection"]["verdict"] == "pass"


class TestCurvatureCommand:
    def test_carpet_k1(self, capsys, carpet_bundle):
        code, out = run(capsys, "curvature", "--preset", "carpet", "-k", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        gen = doc["rows"]["generator_integral"]["value"]
        rel = doc["rows"]["relative_generator"]["value"]
        assert abs(gen - rel) / abs(gen) <= 0.05

    def test_1d_default_order_is_zero(self, capsys, cantor_bundle):
        code, out = run(capsys, "curvature", "--preset", "cantor", "--format", "json")
        assert code == 0
        assert json.loads(out)["k"] == 0
        assert run(capsys, "curvature", "--preset", "cantor", "-k", "0", "--format", "json") == (0, out)

    def test_refused_check_keeps_the_other_rows(self, capsys, tmp_path):
        # a failed check refuses relative_generator alone: the generator and
        # direct rows still print, with the lattice note, and the exit is 0
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(OVERHANG_SCENE))
        code, out = run(capsys, "curvature", "--scene", str(path), "-k", "0", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert "projection" in rows["relative_generator"]["refused"]
        for m in ("generator_integral", "direct_limit", "direct_average"):
            assert "value" in rows[m]
            assert rows[m]["lattice_note"].startswith("lattice")

    def test_too_few_direct_samples_refuse_only_the_direct_rows(self, capsys):
        code, out = run(capsys, "curvature", "--preset", "cantor_pair", "--delta", str(2.0**-9),
                        "-k", "0", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        for m in ("direct_limit", "direct_average"):
            assert rows[m]["refused"] == "direct window contains too few samples"
        for m in ("generator_integral", "relative_generator"):
            assert "value" in rows[m]

    def test_order_out_of_range_refused_before_any_product(self, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        for preset, k in (("cantor", "1"), ("cantor", "-1"), ("carpet", "2")):
            assert main(["curvature", "--preset", preset, "-k", k, "--format", "json"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"curvature order k={k} out of range" in captured.err
        assert pipeline._BUNDLES == {}


class TestRenderAndDeterminism:
    def test_render_outputs(self, capsys, tmp_path, cantor_bundle):
        code, _ = run(capsys, "render", "--preset", "cantor", "--out", str(tmp_path))
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert "cantor_G.pgm" in names
        assert "cantor_Gamma.pgm" in names
        assert "cantor_tiles.pgm" in names
        assert any(n.startswith("cantor_Feps") for n in names)

    def test_render_svg_for_2d(self, capsys, tmp_path, gasket_bundle):
        code, _ = run(capsys, "render", "--preset", "gasket", "--out", str(tmp_path))
        assert code == 0
        svg = tmp_path / "gasket_contour.svg"
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_byte_identical_json(self, capsys, tmp_path, cantor_bundle):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(capsys, "content", "--preset", "cantor", "--out", str(a), "--format", "json",
            "--methods", "generator_integral,direct_average")
        run(capsys, "content", "--preset", "cantor", "--out", str(b), "--format", "json",
            "--methods", "generator_integral,direct_average")
        fa = (a / "content_cantor.json").read_bytes()
        fb = (b / "content_cantor.json").read_bytes()
        assert fa == fb

    def test_presets_listing(self, capsys):
        code, out = run(capsys, "presets", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert {"cantor", "carpet", "koch", "gasket"} <= set(doc["rows"])
        for preset in doc["rows"].values():
            for item in preset["expected"].values():
                assert item["tag"] in ("TRIVIAL", "DERIVED")

    def test_table_format_runs(self, capsys, cantor_bundle):
        code, out = run(capsys, "dim", "--preset", "cantor", "--format", "table")
        assert code == 0
        assert "D" in out


CANTOR_MAPS = [{"ratio": 1 / 3, "translation": [0.0]}, {"ratio": 1 / 3, "translation": [2 / 3]}]
PAIR_MAPS = [{"ratio": 0.5, "translation": [0.0]}, {"ratio": 0.25, "translation": [0.75]}]


def unnamed_scene(tmp_path, fname, maps, region=None):
    """A 1-d scene file without a name, so it loads as "scene"."""
    doc = {
        "ifs": {"dim": 1, "maps": maps},
        "region": region or {"type": "intervals", "intervals": [[0.0, 1.0]]},
        "delta": 2.0**-10,
        "f_bbox": [[0.0], [1.0]],
    }
    path = tmp_path / fname
    path.write_text(json.dumps(doc))
    return str(path)


def cli_bundle(*argv):
    return get_bundle(load_scene(build_parser().parse_args(list(argv))))


class TestBundleCache:
    """get_bundle keys bundles by scene content, not by scene name."""

    def test_unnamed_scenes_get_their_own_bundles(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        golden_D = math.log(2 / (math.sqrt(5) - 1), 2)
        for fname, maps, D in (("cantor.json", CANTOR_MAPS, math.log(2) / math.log(3)),
                               ("pair.json", PAIR_MAPS, golden_D)):
            path = unnamed_scene(tmp_path, fname, maps)
            code, out = run(capsys, "dim", "--scene", path, "--format", "json")
            assert code == 0
            doc = json.loads(out)
            assert doc["scene"] == "scene"
            assert doc["rows"]["D"]["value"] == pytest.approx(D, abs=1e-9)

    def test_eps_per_decade_is_part_of_the_key(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        path = unnamed_scene(tmp_path, "cantor.json", CANTOR_MAPS)
        b64 = cli_bundle("content", "--scene", path)
        b16 = cli_bundle("content", "--scene", path, "--eps-per-decade", "16")
        assert b16 is not b64
        assert (b64.scene.eps_per_decade, b16.scene.eps_per_decade) == (64, 16)
        assert cli_bundle("content", "--scene", path) is b64

    def test_cli_reuses_the_preset_bundle(self, cantor_bundle):
        assert cli_bundle("content", "--preset", "cantor") is cantor_bundle
        assert get_bundle(replace(cantor_bundle.scene, name="renamed")) is cantor_bundle

    def test_one_bundle_across_commands(self, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        for argv in (["dim"], ["check"], ["curvature", "-k", "0"]):
            main(argv + ["--preset", "cantor", "--delta", repr(2.0**-10), "--format", "json"])
        capsys.readouterr()
        assert len(pipeline._BUNDLES) == 1


# Scene files with region "central": a preset's maps at a coarse delta, with
# its f_bbox except for cantor, whose box is widened to [-1/2, 3/2] so that
# the working box reaches the two neighbour copies at x - 2 and x + 2.
# (preset, delta, f_bbox, neighbor_count, SHA-256 of V_c's grid)
CENTRAL_SCENES = [
    ("cantor", 2.0**-10, [[-0.5], [1.5]], 2,
     "791ee43afa80354a767e0422d2bf3c0dcfc159a706ef89f619788eac5762a527"),
    ("gasket", 2.0**-8, None, 22, "b03c1fd0e4b73d1433298f8962f0dfdf8b6a0fc57e9a6df179dd830f9ef0d5ab"),
    ("koch", 2.0**-8, None, 12, "745683741349b9127194502e29a351d58de442399a52d388f12bd6a38c18377e"),
    ("carpet", 2.0**-7, None, 24, "52184182257235f91ac14181dd169641be25f2076103cf6e0045cfd5de11e87e"),
]


def central_scene(tmp_path, name, delta, f_bbox):
    scene = get_preset(name).scene
    maps = [{"ratio": m.ratio, "matrix": m.orthogonal_part.tolist(), "translation": m.translation.tolist()}
            for m in scene.ifs.maps]
    doc = {
        "name": f"{name}_central",
        "ifs": {"dim": scene.ifs.ambient_dim, "maps": maps},
        "region": "central",
        "delta": delta,
        "f_bbox": f_bbox or [list(c) for c in scene.f_bbox],
    }
    path = tmp_path / f"{name}_central.json"
    path.write_text(json.dumps(doc))
    return str(path)


def grid_digest(g) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(g.origin, dtype=float).tobytes())
    h.update(np.float64(g.spacing).tobytes())
    h.update(str(g.occupancy.shape).encode())
    h.update(np.ascontiguousarray(g.occupancy).tobytes())
    return h.hexdigest()


class TestCentralScenes:
    """A "central" scene runs end to end on the central open set V_c."""

    @pytest.mark.parametrize("name, delta, f_bbox, neighbors, digest", CENTRAL_SCENES,
                             ids=[c[0] for c in CENTRAL_SCENES])
    def test_check_and_content_on_vc(self, capsys, tmp_path, monkeypatch, name, delta, f_bbox,
                                     neighbors, digest):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        built = []
        monkeypatch.setattr(pipeline, "central_open_set",
                            lambda *a: built.append(central_open_set(*a)) or built[-1])
        path = central_scene(tmp_path, name, delta, f_bbox)
        for cmd in ("check", "content"):
            code, out = run(capsys, cmd, "--scene", path, "--format", "json")
            assert code == 0
            assert json.loads(out)["scene"] == f"{name}_central"
        b = cli_bundle("content", "--scene", path)
        assert len(built) == 1 and b.O is built[0].grid
        assert built[0].neighbor_count == neighbors
        assert grid_digest(b.O) == digest

    def test_no_neighbour_copy_refused(self, capsys, tmp_path, monkeypatch):
        # cantor with its own f_bbox [0, 1]: the working box [-0.3, 1.3] holds
        # neither neighbour copy, and V_c would be the whole box
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        path = central_scene(tmp_path, "cantor", 2.0**-10, None)
        for cmd in ("check", "content"):
            assert main([cmd, "--scene", path, "--format", "json"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "configuration error: the central open set's working box [-0.3] to [1.3] "
                "reaches no neighbour copy of the attractor; widen f_bbox\n")


class TestRegionTypes:
    def test_halfspaces_region_refused(self, capsys, tmp_path):
        region = {"type": "halfspaces", "normals": [[1.0], [-1.0]], "offsets": [1.0, 0.0]}
        path = unnamed_scene(tmp_path, "half.json", CANTOR_MAPS, region)
        for cmd in ("dim", "check", "content"):
            assert main([cmd, "--scene", path, "--format", "json"]) == 3
            assert "unknown region type 'halfspaces'" in capsys.readouterr().err

    def test_polygons_region_with_a_clockwise_piece(self, capsys, tmp_path):
        # the unit square as two halves, the left one given clockwise: ConvexPolygon
        # reverses it, PolygonUnion.bbox is the square's, and no cell centre lies on
        # x = 1/2, so the raster, and every check row, is the carpet preset's
        left_cw = [[0.0, 0.0], [0.0, 1.0], [0.5, 1.0], [0.5, 0.0]]
        right_ccw = [[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]]
        assert ConvexPolygon(np.array(left_cw)).vertices.tolist() == left_cw[::-1]
        path = tmp_path / "halves.json"
        path.write_text(json.dumps({"ifs": {"dim": 2, "maps": CARPET_MAPS},
                                    "region": {"type": "polygons", "vertices": [left_cw, right_ccw]},
                                    "delta": 2.0**-7, "f_bbox": [[0.0, 0.0], [1.0, 1.0]]}))
        code, out = run(capsys, "check", "--scene", str(path), "--format", "json")
        assert code == 0
        preset_code, preset_out = run(capsys, "check", "--preset", "carpet", "--delta", repr(2.0**-7),
                                      "--format", "json")
        assert preset_code == 0
        assert json.loads(out)["rows"] == json.loads(preset_out)["rows"]

    def test_preset_scene_file(self, capsys, tmp_path):
        # a scene file may name a preset, as the README documents
        path = tmp_path / "preset.json"
        path.write_text(json.dumps({"preset": "cantor_pair"}))
        for cmd in ("dim", "check"):
            by_file = run(capsys, cmd, "--scene", str(path), "--delta", repr(2.0**-10), "--format", "json")
            by_flag = run(capsys, cmd, "--preset", "cantor_pair", "--delta", repr(2.0**-10), "--format", "json")
            assert by_file == by_flag and by_file[0] == 0


KOCH_MAPS = [
    {"ratio": 3**-0.5, "angle": 30.0, "reflect": True, "translation": [0.0, 0.0]},
    {"ratio": 3**-0.5, "angle": -30.0, "reflect": True, "translation": [0.5, 3**0.5 / 6]},
]
CARPET_MAPS = [{"ratio": 1 / 3, "translation": [i / 3, j / 3]}
               for i in range(3) for j in range(3) if (i, j) != (1, 1)]
BIG = 10**400  # a JSON integer that no float holds


class TestSceneFileValidation:
    """A faulty scene file is refused with exit 3 before any product is built."""

    @pytest.mark.parametrize("text, named", [
        (json.dumps({"region": {"type": "intervals", "intervals": [[0.0, 1.0]]},
                     "f_bbox": [[0.0], [1.0]]}), "missing key 'ifs'"),
        ('{"ifs": {"dim": 1, "maps": [', "is not readable JSON"),
        (json.dumps({"ifs": {"dim": 2, "maps": KOCH_MAPS},
                     "region": {"type": "intervals", "intervals": [[0.0, 1.0]]},
                     "f_bbox": [[0.0, 0.0], [1.0, 0.3]]}), "the region is 1-d but the maps are 2-d"),
        (json.dumps({"ifs": {"dim": 1, "maps": CANTOR_MAPS},
                     "region": {"type": "intervals", "intervals": [[0.0, 1.0]]},
                     "f_bbox": [[0.0, 0.0], [1.0, 1.0]]}), "f_bbox must be two corners [lo, hi] of dimension 1"),
        # shoelace area 0.75; the intersection of its edges' half-planes has area 0.137
        (json.dumps({"ifs": {"dim": 2, "maps": CARPET_MAPS},
                     "region": {"type": "polygon", "vertices": [[0, 0], [1, 0], [0.5, 0.2], [1, 1], [0, 1]]},
                     "f_bbox": [[0.0, 0.0], [1.0, 1.0]]}), "do not bound a convex polygon"),
        # a finite translation far past f_bbox, whose image boxes overflowed the cell indices
        (json.dumps({"ifs": {"dim": 1, "maps": [CANTOR_MAPS[0], dict(CANTOR_MAPS[1], translation=[1e300])]},
                     "region": {"type": "intervals", "intervals": [[0.0, 1.0]]},
                     "f_bbox": [[0.0], [1.0]]}), "f_bbox [[0.0], [1.0]] does not hold map 1's fixed point [1.4999999999999998e+300]"),
        # a box of no width, on which the central open set's attractor raster divided by zero
        (json.dumps({"ifs": {"dim": 1, "maps": CANTOR_MAPS}, "region": "central", "delta": 1e-300,
                     "f_bbox": [[0.0], [0.0]]}), "f_bbox [[0.0], [0.0]] must have lo < hi on every axis"),
        # a one-point attractor in a box one subnormal wide: the attractor raster's
        # stopping ratio divided by the box diagonal, whose norm underflows to 0
        (json.dumps({"ifs": {"dim": 1, "maps": [{"ratio": 1 / 3, "translation": [0]},
                                                 {"ratio": 0.25, "translation": [0]}]},
                     "region": "central", "delta": 5e-324, "f_bbox": [[0], [5e-324]]}),
         "f_bbox [[0.0], [5e-324]] is too small: the length of its diagonal underflows to 0"),
    ], ids=["no_ifs_key", "not_json", "intervals_region_2d_maps", "2d_f_bbox_1d_maps", "non_convex_polygon",
            "fixed_point_off_f_bbox", "f_bbox_without_width", "one_point_subnormal_box"])
    def test_refused_with_exit_3(self, capsys, tmp_path, monkeypatch, text, named):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        path = tmp_path / "scene.json"
        path.write_text(text)
        assert main(["content", "--scene", str(path), "--format", "json"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and named in err
        assert pipeline._BUNDLES == {}

    def test_overlapping_maps_refused_with_exit_3(self, capsys, tmp_path, monkeypatch):
        # sum r_i = 1.2: the generator is empty at any resolution, so no tiling exists
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        maps = [{"ratio": 0.6, "translation": [0.0]}, {"ratio": 0.6, "translation": [0.4]}]
        path = unnamed_scene(tmp_path, "overlap.json", maps)
        assert main(["content", "--scene", path, "--format", "json"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: empty generator: the maps overlap")
        assert "(sum r_i^d = 1.2)" in err

    @pytest.mark.parametrize("value, shown", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
    ], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_translation_refused(self, capsys, tmp_path, monkeypatch, value, shown):
        # json writes and reads these as NaN, Infinity and -Infinity
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        path = unnamed_scene(tmp_path, "bad.json", [dict(CANTOR_MAPS[0], translation=[value]), CANTOR_MAPS[1]])
        assert main(["content", "--scene", path, "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: translation must be finite, got [{shown}]\n"
        assert pipeline._BUNDLES == {}

    @pytest.mark.parametrize("dim, maps, extra, named", [
        (2, [dict(KOCH_MAPS[0], rotation=90), KOCH_MAPS[1]], {}, "ifs map 0: unknown key 'rotation'"),
        (1, [dict(CANTOR_MAPS[0], ratio="0.3333333333333333"), CANTOR_MAPS[1]], {},
         "ifs map 0: 'ratio' must be a finite number, got '0.3333333333333333'"),
        (1, [dict(CANTOR_MAPS[0], ratio=True), CANTOR_MAPS[1]], {},
         "ifs map 0: 'ratio' must be a finite number, got True"),
        (1, [CANTOR_MAPS[0], dict(CANTOR_MAPS[1], translation=["0.5"])], {},
         "ifs map 1: 'translation' must be a list of 1 numbers, got ['0.5']"),
        (2, [dict(KOCH_MAPS[0], angle="30"), KOCH_MAPS[1]], {},
         "ifs map 0: 'angle' must be a finite number, got '30'"),
        (2, [dict(KOCH_MAPS[0], reflect="no"), KOCH_MAPS[1]], {},
         "ifs map 0: 'reflect' must be true or false, got 'no'"),
        (2, [{"ratio": 3**-0.5, "reflect": True, "translation": [0.0, 0.0]}, KOCH_MAPS[1]], {},
         "ifs map 0: 'reflect' needs 'angle'"),
        (2.7, KOCH_MAPS, {}, "ifs: 'dim' must be the integer 1 or 2, got 2.7"),
        (1, CANTOR_MAPS, {"scale": 2}, "ifs: unknown key 'scale'"),
    ], ids=["rotation_key", "ratio_string", "ratio_bool", "translation_string", "angle_string",
            "reflect_string", "reflect_without_angle", "dim_float", "unknown_ifs_key"])
    def test_ifs_value_refused(self, capsys, tmp_path, monkeypatch, dim, maps, extra, named):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        d = len(maps[-1]["translation"])
        region = ({"type": "intervals", "intervals": [[0.0, 1.0]]} if d == 1 else
                  {"type": "polygon", "vertices": [[0, 0], [1, 0], [0.5, 0.3]]})
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"ifs": {"dim": dim, "maps": maps, **extra}, "region": region,
                                    "f_bbox": [[0.0] * d, [1.0] * d]}))
        assert main(["content", "--scene", str(path), "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {named}\n"
        assert pipeline._BUNDLES == {}

    TRIANGLE = [[0, 0], [1, 0], [0.5, 0.3]]

    @pytest.mark.parametrize("region, named", [
        ({"type": "intervals", "intervals": [["0", 1.0]]},
         "the 'intervals' region: 'intervals' entry ['0', 1.0] is not a pair of finite numbers"),
        ({"type": "intervals", "intervals": [[0.0, True]]},
         "the 'intervals' region: 'intervals' entry [0.0, True] is not a pair of finite numbers"),
        ({"type": "intervals", "intervals": [[math.nan, 1.0]]},
         "the 'intervals' region: 'intervals' entry [nan, 1.0] is not a pair of finite numbers"),
        ({"type": "intervals", "intervals": [["0", True]], "extra": 5},
         "the 'intervals' region: unknown key 'extra'"),
        ({"type": "intervals", "intervals": [[1.0, 0.0], [0.0, 1.0]]},
         "interval (1.0, 0.0) is empty or reversed: need left end < right end"),
        ({"type": "intervals", "intervals": [[0.5, 0.5]]},
         "interval (0.5, 0.5) is empty or reversed: need left end < right end"),
        ({"type": "polygon", "vertices": [[0, 0], [1, "0"], [0.5, 0.3]]},
         "the 'polygon' region: 'vertices' entry [1, '0'] is not a pair of finite numbers"),
        ({"type": "polygon", "vertices": [[0, 0], [1, 0], [0.5, True]]},
         "the 'polygon' region: 'vertices' entry [0.5, True] is not a pair of finite numbers"),
        ({"type": "polygon", "vertices": [[0, 0], [1, 0], [math.nan, 0.3]]},
         "the 'polygon' region: 'vertices' entry [nan, 0.3] is not a pair of finite numbers"),
        ({"type": "polygon", "vertices": TRIANGLE, "closed": True},
         "the 'polygon' region: unknown key 'closed'"),
        ({"type": "polygons", "vertices": [TRIANGLE, [[0, 0], ["1", 0], [0.5, 0.3]]]},
         "the 'polygons' region: 'vertices' entry ['1', 0] is not a pair of finite numbers"),
        ({"type": "polygons", "vertices": []},
         "the 'polygons' region: 'vertices' must be a non-empty list, got []"),
    ], ids=["intervals_string", "intervals_bool", "intervals_nan", "intervals_unknown_key",
            "intervals_reversed", "intervals_empty",
            "polygon_string", "polygon_bool", "polygon_nan", "polygon_unknown_key",
            "polygons_string", "polygons_empty"])
    def test_region_value_refused(self, capsys, tmp_path, monkeypatch, region, named):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        maps, d = (CANTOR_MAPS, 1) if region["type"] == "intervals" else (KOCH_MAPS, 2)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"ifs": {"dim": d, "maps": maps}, "region": region,
                                    "f_bbox": [[0.0] * d, [1.0] * d]}))
        for cmd in ("dim", "content"):
            assert main([cmd, "--scene", str(path), "--format", "json"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"configuration error: {named}\n"
        assert pipeline._BUNDLES == {}

    @pytest.mark.parametrize("path, value, named", [
        (("delta",), BIG, "delta must be a positive finite number, got 1000"),
        (("f_bbox", 1), [BIG], "f_bbox must be two corners [lo, hi] of dimension 1"),
        (("ifs", "maps", 0, "ratio"), BIG, "ifs map 0: 'ratio' must be a finite number, got 1000"),
        (("ifs", "maps", 0, "translation"), [BIG], "ifs map 0: 'translation' must be a list of 1 numbers, got [1000"),
        (("eps_per_decade",), BIG, "eps_per_decade must be an integer that a float holds, got 1000"),
        (("ifs", "maps", 0, "matrix"), [[BIG]], "ifs map 0: 'matrix' must be 1 lists of 1 numbers, got [[1000"),
        (("region", "intervals", 0), [0.0, BIG], "the 'intervals' region: 'intervals' entry [0.0, 1000"),
    ], ids=["delta", "f_bbox", "ratio", "translation", "eps_per_decade", "matrix", "intervals"])
    def test_integer_past_the_float_range_refused(self, capsys, tmp_path, monkeypatch, path, value, named):
        # json reads 1 followed by 400 zeros as an int, which float() overflows on
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        doc = {"ifs": {"dim": 1, "maps": [dict(m) for m in CANTOR_MAPS]},
               "region": {"type": "intervals", "intervals": [[0.0, 1.0]]}, "delta": 2.0**-8,
               "f_bbox": [[0.0], [1.0]]}
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        for cmd in ("dim", "content"):
            assert main([cmd, "--scene", str(scene), "--format", "json"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"configuration error: {named}")
        assert pipeline._BUNDLES == {}

    def test_eps_grid_past_the_cell_cap_refused(self, capsys, tmp_path, monkeypatch):
        # 10^20 points per decade: the grid's node count is refused before np.arange allocates it
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"ifs": {"dim": 1, "maps": CANTOR_MAPS},
                                    "region": {"type": "intervals", "intervals": [[0.0, 1.0]]},
                                    "delta": 2.0**-8, "f_bbox": [[0.0], [1.0]], "eps_per_decade": 10**20}))
        assert main(["content", "--scene", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eps grid of ")
        assert captured.err.endswith(f" nodes exceeds the cap of {grids.MAX_CELLS}\n")


class TestSceneRuleInPython:
    """A scene built in Python meets the scene file's rule: SceneBundle refuses
    it with a ConfigError before any product is built."""

    @pytest.mark.parametrize("change, named", [
        ({"f_bbox": ([1.0], [0.0])}, "f_bbox [[1.0], [0.0]] must have lo < hi on every axis"),
        ({"f_bbox": ([0.0], [0.5])}, "f_bbox [[0.0], [0.5]] does not hold map 1's fixed point [0.999"),
        ({"region": get_preset("carpet").scene.region}, "the region is 2-d but the maps are 1-d"),
        # numpy would read the string as 1.0, and the infinite corner would serve a grid of inf cells
        ({"f_bbox": ([0.0], ["1"])}, "f_bbox must be two corners [lo, hi] of dimension 1"),
        ({"f_bbox": ([0.0], [math.inf])}, "f_bbox must be two corners [lo, hi] of dimension 1"),
        ({"f_bbox": ([0.0], [10**400])}, "f_bbox must be two corners [lo, hi] of dimension 1"),
    ], ids=["reversed_f_bbox", "fixed_point_off_f_bbox", "region_of_another_dimension",
            "f_bbox_string", "f_bbox_inf", "f_bbox_past_the_float_range"])
    def test_refused_by_the_bundle(self, monkeypatch, change, named):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        scene = replace(get_preset("cantor").scene, **change)
        with pytest.raises(ConfigError) as info:
            pipeline.SceneBundle(scene)
        assert str(info.value).startswith(named)
        with pytest.raises(ConfigError):
            get_bundle(scene)
        assert pipeline._BUNDLES == {}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFBboxPastTheFloatRange:
    """A finite f_bbox whose width, or whose cell count at delta, passes the float
    range is refused from finite comparisons, before any subtraction or division
    could overflow."""

    WIDE = ([-1e308], [1e308])  # hi - lo is past the float range: no f_bbox at all
    LONG = ([0.0], [1.7e308])  # a float width, but (hi - lo) / delta is past the float range
    EDGE = ([-1.7976931348623157e308], [1.0])  # lo less the fixed points' margin of 1e-9 (hi - lo) is past it

    def test_width_refused_in_python(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        with pytest.raises(ConfigError, match=r"f_bbox \[\[-1e\+308\], \[1e\+308\]\] is too wide"):
            pipeline.SceneBundle(replace(get_preset("cantor").scene, f_bbox=self.WIDE))

    def test_cells_refused_in_python(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        bundle = pipeline.SceneBundle(replace(get_preset("cantor").scene, f_bbox=self.LONG, delta=2.0**-6))
        with pytest.raises(ResolutionError, match=f"grid of inf cells exceeds the cap of {grids.MAX_CELLS}"):
            bundle.F_tight

    @pytest.mark.parametrize("box, code, named", [
        (WIDE, 3, "configuration error: f_bbox [[-1e+308], [1e+308]] is too wide"),
        (LONG, 1, f"error: grid of inf cells exceeds the cap of {grids.MAX_CELLS}"),
        (EDGE, 1, f"error: grid of inf cells exceeds the cap of {grids.MAX_CELLS}"),
    ], ids=["width", "cells", "corner_at_the_float_max"])
    def test_refused_by_the_cli(self, capsys, tmp_path, monkeypatch, box, code, named):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"ifs": {"dim": 1, "maps": CANTOR_MAPS},
                                    "region": {"type": "intervals", "intervals": [[0.0, 1.0]]},
                                    "delta": 2.0**-6, "f_bbox": [list(c) for c in box]}))
        assert main(["content", "--scene", str(path), "--format", "json"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(named) and captured.err.count("\n") == 1


class TestTableRows:
    def test_rows_are_json_and_the_cli_prints_them(self, capsys, cantor_bundle):
        for argv, rows in ((["content"], cantor_bundle.content_table()),
                           (["curvature", "-k", "0"], cantor_bundle.curvature_table(0))):
            code, out = run(capsys, *argv, "--preset", "cantor", "--format", "json")
            assert code == 0
            assert json.loads(json.dumps(rows)) == json.loads(out)["rows"]


class TestResolutionValues:
    """delta and eps_per_decade follow one rule (Scene.validate) whether they come
    from a flag, a scene file or a preset: exit 3, typed, before any bundle."""

    @pytest.mark.parametrize("argv, named", [
        (["content", "--delta", "0"], "delta must be a positive finite number, got 0.0"),
        (["content", "--delta", "-0.001"], "delta must be a positive finite number, got -0.001"),
        (["dim", "--delta", "nan"], "delta must be a positive finite number, got nan"),
        (["check", "--delta", "inf"], "delta must be a positive finite number, got inf"),
        (["content", "--eps-per-decade", "0"], "eps_per_decade must be a positive integer, got 0"),
        (["content", "--eps-per-decade", "-5"], "eps_per_decade must be a positive integer, got -5"),
    ], ids=["delta_0", "delta_negative", "delta_nan", "delta_inf", "ppd_0", "ppd_negative"])
    def test_bad_flag_refused(self, capsys, monkeypatch, argv, named):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        assert main(argv + ["--preset", "cantor", "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {named}\n"
        assert pipeline._BUNDLES == {}

    @pytest.mark.parametrize("key, value, named", [
        ("delta", "0.001", "delta must be a positive finite number, got '0.001'"),
        ("delta", True, "delta must be a positive finite number, got True"),
        ("eps_per_decade", 1.5, "eps_per_decade must be a positive integer, got 1.5"),
        ("eps_per_decade", 0, "eps_per_decade must be a positive integer, got 0"),
    ], ids=["delta_string", "delta_bool", "ppd_float", "ppd_0"])
    def test_bad_scene_file_value_refused(self, capsys, tmp_path, monkeypatch, key, value, named):
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(dict(OVERHANG_SCENE, **{key: value})))
        # the file's own value is refused even when a flag would replace it
        flag = ["--delta", "0.001"] if key == "delta" else ["--eps-per-decade", "16"]
        for extra in ([], flag):
            assert main(["content", "--scene", str(path), "--format", "json", *extra]) == 3
            assert capsys.readouterr().err == f"configuration error: {named}\n"
        assert pipeline._BUNDLES == {}

    def test_delta_past_the_cell_cap_refused_by_count(self, capsys):
        # O's raster, 1e300 cells, would overflow an int cast; the count is checked in float
        assert main(["content", "--preset", "cantor", "--delta", "1e-300", "--format", "json"]) == 1
        assert capsys.readouterr().err == "error: grid of 1e+300 cells exceeds the cap of 134217728\n"


class TestOscImagesOffGrid:
    def test_image_beyond_O_grid_fails(self, capsys, tmp_path, monkeypatch):
        # O = [0, 1/2]^2: S_2 sends it to [0, 1/6] x [2/3, 5/6], wholly past O's
        # grid, where the images sampled on that grid never look
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        doc = {"ifs": {"dim": 2, "maps": CARPET_MAPS},
               "region": {"type": "polygon", "vertices": [[0, 0], [0.5, 0], [0.5, 0.5], [0, 0.5]]},
               "delta": 2.0**-7, "f_bbox": [[0.0, 0.0], [1.0, 1.0]]}
        path = tmp_path / "half_square.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "check", "--scene", str(path), "--format", "json")
        osc = json.loads(out)["rows"]["osc"]
        assert osc["verdict"] == "fail"
        assert osc["witness"]["map"] == 2 and osc["witness"]["reason"] == "S_i O leaves O's grid"
        assert osc["witness"]["image"][1] > 0.5 + 2.0**-7


# SHA-256 of the --format json output and the exit code of content, curvature
# -k 0 and -k 1, recorded before the generator-type formulas shared
# renewal_integral and power_head; koch at 2^-8 pins both exponent refusals
# (the generator's tube volume, and -k 1's curvature variation)
GOLDEN = {
    ("cantor", None, "content"): ("7869f499ddc47a8ac59fb8f2e0ec77528106f3dc52a6bdec98146011a9a83b14", 0),
    ("cantor", None, "k0"): ("15e8b094920694abaff648b60648de7dca5a398da2c8781613bccb9bf87be873", 0),
    ("cantor", None, "check"): ("c53f6c86a45c894f4a328929ab603b068dfe8c373f43be458480a0d6933f84e5", 0),
    ("cantor_pair", None, "content"): ("2f986cf6b962bfb68e5ef6c067384c544cbbe5353e9dbdab542421c0956d95ba", 0),
    ("cantor_pair", None, "k0"): ("ab9841e80cf3264ab1dcd96ec1b03ea5eeddf364ed3cc706bb7928404a95f57e", 0),
    ("cantor_pair", None, "check"): ("c651131017cb811069d45010525cc1316ff2ab389bb7f32315d9ad5ce40640ae", 0),
    ("gasket", 2.0**-9, "content"): ("7c3d9f3f39c2eee75ee61a661b2c726986ffa3d46a09d49afd14e3866c81c147", 0),
    ("gasket", 2.0**-9, "k0"): ("54daa65276e4285a45b177e8b45db38dea1351815e77660834718f0d609c0fc9", 0),
    ("gasket", 2.0**-9, "k1"): ("daa14538cfc6758b10c725ef607f6d3422b4a3432c9528cb92a1cdb6f874b6b6", 0),
    ("gasket", 2.0**-9, "check"): ("3af179d84c420942443d809506307aa444a6c72655eaf639897c248e9e95e202", 0),
    ("koch", 2.0**-8, "content"): ("b54378fe4c53b8eaca34858db802714bf238822df61c183e1ca544101f90a6e0", 0),
    ("koch", 2.0**-8, "k0"): ("ff76a5254376afe7d3e124d40933113690805b52b737d38f02fa8efb3a7973f2", 0),
    ("koch", 2.0**-8, "k1"): ("17f3edc62ee05d3c34fc38ce3bdb7f9ee56fe91df26dc17fb91a03f13b0bca47", 2),
    ("koch", 2.0**-8, "check"): ("fbe24d3e25764c4dbac20d98447e24fc4bd2ff70469b51098acc442c44268777", 0),
    ("carpet", 2.0**-9, "content"): ("c82b6035f31f7619dd6836322b1e2bbf7148388a19b27fc301866aa5c53830ac", 0),
    ("carpet", 2.0**-9, "k0"): ("d93c29cd63f5edab45fbbdaba376b8613b82d43c324578fa8dbe331c31134b58", 0),
    ("carpet", 2.0**-9, "k1"): ("22bc65e720a6e55bd42d145b262deea1e48c0647010de899877ed8b56a759a2e", 0),
    ("carpet", 2.0**-9, "check"): ("c47d86d7dba46d46ce412da213caf636140a3f4bf42dba32921aa4eb719c5add", 0),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("preset,delta,command", list(GOLDEN))
    def test_json_output_and_exit_code(self, capsys, preset, delta, command):
        argv = [command] if command in ("content", "check") else ["curvature", "-k", command[1]]
        argv += ["--preset", preset, "--format", "json"]
        if delta is not None:
            argv += ["--delta", repr(delta)]
        code, out = run(capsys, *argv)
        assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN[preset, delta, command]


# SHA-256 of the table and csv output of content --preset cantor_pair --delta 2^-10
TEXT_FORMATS = {
    "table": "07a8d15b549ee12f62703fa619546d4125a4b4a8c109d18a2d2f8d4c75c4f007",
    "csv": "4ed9d45d7cdcd3d633bc51f81f3e9849fa95ae7a81cbe8bc3366e975f258cf15",
}
# the same of curvature -k 1 --preset koch --delta 2^-8, which exits 2 with four
# refused rows: the REFUSED lines of both formats
REFUSED_TEXT_FORMATS = {
    "table": "0ac88e577bcbdb697154dbb93c32bb75f5cee407d5b49e2d51c3410fd3536018",
    "csv": "b959db1a55f2d5e7d3c272859aa7c302d59ccb6855fb54322507526bb1273655",
}


class TestTextFormats:
    @pytest.mark.parametrize("fmt", list(TEXT_FORMATS))
    def test_content_output_bytes(self, capsys, fmt):
        code, out = run(capsys, "content", "--preset", "cantor_pair", "--delta", repr(2.0**-10), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TEXT_FORMATS[fmt]

    @pytest.mark.parametrize("fmt", list(REFUSED_TEXT_FORMATS))
    def test_refused_rows_output_bytes(self, capsys, fmt):
        code, out = run(capsys, "curvature", "-k", "1", "--preset", "koch", "--delta", repr(2.0**-8), "--format", fmt)
        assert code == 2
        assert hashlib.sha256(out.encode()).hexdigest() == REFUSED_TEXT_FORMATS[fmt]

    def test_csv_row_that_is_not_a_dict(self, capsys, tmp_path, cantor_bundle):
        # render's one row is its list of files
        code, out = run(capsys, "render", "--preset", "cantor", "--format", "csv", "--out", str(tmp_path))
        assert code == 0
        names = ["cantor_Feps0.pgm", "cantor_Feps1.pgm", "cantor_Feps2.pgm", "cantor_G.pgm", "cantor_Gamma.pgm",
                 "cantor_tiles.pgm"]
        assert out == f"key,value,error,details\nfiles,{names},,\n"


class TestTilesOnlyForTheRowsThatReadThem:
    """curvature and check build no tile; content grows the word tree and
    rasterizes the tile union once per bundle, for its tiling_via_h row."""

    @pytest.mark.parametrize("preset,delta", list(dict.fromkeys((p, d) for p, d, _ in GOLDEN)))
    def test_tile_builds_per_command(self, capsys, monkeypatch, preset, delta):
        calls = dict.fromkeys(("words_up_to_ratio", "rasterize_tiles"), 0)

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(tiling, name, counting(name, getattr(tiling, name)))
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        flags = ["--preset", preset, "--format", "json"]
        if delta is not None:
            flags += ["--delta", repr(delta)]
        assert main(["curvature", "-k", "0", *flags]) == 0
        assert main(["check", *flags]) == 0
        assert calls == {"words_up_to_ratio": 0, "rasterize_tiles": 0}
        assert main(["content", *flags]) == 0
        assert calls == {"words_up_to_ratio": 1, "rasterize_tiles": 1}
        assert len(pipeline._BUNDLES) == 1
        capsys.readouterr()
