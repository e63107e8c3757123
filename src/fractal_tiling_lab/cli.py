"""Batch front-end: fractal-tiling-lab <dim|content|curvature|check|render|presets>.

Exit codes: 0 on success, 2 when a requested formula's preconditions fail,
3 on configuration errors. All JSON output is key-sorted so identical
scenes produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import curvature as curvmod
from .errors import ConfigError, FtlError, PreconditionError
from .grids import ConvexPolygon, Grid, IntervalUnion, PolygonUnion, Region
from .ifs import _check_keys, _is_number, load_ifs
from .levelsets import LevelSetExtractor
from .pipeline import CONTENT_METHODS, SceneBundle, get_bundle
from .presets import PRESETS, Scene, get_preset


def _region_from_json(doc) -> Region | str:
    if doc == "central":
        return "central"
    kind = doc.get("type") if isinstance(doc, dict) else None
    if kind not in ("intervals", "polygon", "polygons"):
        raise ConfigError(f"unknown region type {kind!r}")
    key = "intervals" if kind == "intervals" else "vertices"
    where = f"the {kind!r} region"
    _check_keys(doc, ("type", key), ("type", key), where)

    def listed(parts) -> list:
        if not isinstance(parts, list) or not parts:
            raise ConfigError(f"{where}: {key!r} must be a non-empty list, got {parts!r}")
        return parts

    def pairs(parts) -> list:
        for p in listed(parts):
            if not (isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))):
                raise ConfigError(f"{where}: {key!r} entry {p!r} is not a pair of finite numbers")
        return parts

    if kind == "intervals":
        return IntervalUnion(tuple((float(a), float(b)) for a, b in pairs(doc[key])))
    if kind == "polygon":
        return ConvexPolygon(np.asarray(pairs(doc[key]), dtype=float))
    return PolygonUnion(tuple(ConvexPolygon(np.asarray(pairs(v), float)) for v in listed(doc[key])))


SCENE_KEYS = ("ifs", "region", "f_bbox", "delta", "eps_per_decade", "name")


def _scene_from_json(doc) -> Scene:
    """The scene a scene file describes: its keys and their JSON types are
    checked, then the scene rule (Scene.validate), before any flag replaces a value."""
    _check_keys(doc, SCENE_KEYS, SCENE_KEYS[:3], "scene file")
    ifs = load_ifs(doc["ifs"])
    region = _region_from_json(doc["region"])
    name = doc.get("name", "scene")
    if not isinstance(name, str):
        raise ConfigError(f"scene file: name must be a string, got {name!r}")
    scene = Scene(ifs, region, doc.get("delta", 2.0**-9), doc["f_bbox"],
                  doc.get("eps_per_decade", 64), name)
    scene.validate()
    return scene


def load_scene(args) -> Scene:
    """The scene of --scene or --preset, with --delta and --eps-per-decade applied."""
    if args.scene:
        try:
            doc = json.loads(Path(args.scene).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"scene file {args.scene!r} is not readable JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("a scene file holds one JSON object")
        if "preset" in doc:
            if set(doc) != {"preset"} or not isinstance(doc["preset"], str):
                raise ConfigError("a preset scene file holds only the key 'preset', a name")
            scene = get_preset(doc["preset"]).scene
        else:
            scene = _scene_from_json(doc)
    elif args.preset:
        scene = get_preset(args.preset).scene
    else:
        raise ConfigError("pass --preset NAME or --scene FILE")
    if args.delta is not None:
        scene = replace(scene, delta=args.delta)
    if args.eps_per_decade is not None:
        scene = replace(scene, eps_per_decade=args.eps_per_decade)
    return scene


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, default=_json_default)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{doc['command']}_{doc['scene']}.json").write_text(text + "\n", encoding="utf-8")
    if args.format == "json":
        print(text)
    elif args.format == "table":
        _print_table(doc)
    elif args.format == "csv":
        _print_csv(doc)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _print_table(doc: dict) -> None:
    print(f"# {doc['command']} {doc['scene']} (delta={doc.get('delta')})")
    for key, row in doc["rows"].items():
        if isinstance(row, dict) and "refused" in row:
            print(f"{key:24s} REFUSED: {row['refused']}")
        elif isinstance(row, dict):
            val = row.get("value")
            err = row.get("error_estimate", "")
            extra = {k: v for k, v in row.items() if k in ("verdict", "band", "k", "window")}
            print(f"{key:24s} {val!s:24s} +-{err!s:12s} {extra if extra else ''}")
        else:
            print(f"{key:24s} {row}")


def _print_csv(doc: dict) -> None:
    print("key,value,error,details")
    for key, row in doc["rows"].items():
        if isinstance(row, dict) and "refused" in row:
            print(f"{key},,,REFUSED: {row['refused']}")
        elif isinstance(row, dict):
            print(f"{key},{row.get('value', '')},{row.get('error_estimate', '')},")
        else:
            print(f"{key},{row},,")


def cmd_dim(args) -> int:
    scene = load_scene(args)
    bundle = get_bundle(scene)
    dd = bundle.dim_data
    doc = {
        "command": "dim",
        "scene": scene.name,
        "delta": bundle.delta,
        "rows": {
            "D": {"value": dd.D},
            "eta": {"value": dd.eta},
            "lattice": {"value": dd.lattice, "verdict": dd.note},
            "lattice_base": {"value": dd.lattice_base},
        },
    }
    _emit(doc, args)
    return 0


def cmd_content(args) -> int:
    scene = load_scene(args)
    bundle = get_bundle(scene)
    methods = args.methods.split(",") if args.methods else list(CONTENT_METHODS)
    rows = bundle.content_table(methods)
    all_refused = all("refused" in r for r in rows.values())
    tiling_only = set()
    if not bundle.checks()["compatible"].passed:
        # the tiling's own content is well defined but does not estimate the
        # set's content without a compatible tiling
        for m in ("generator_integral", "tiling_via_h"):
            if "value" in rows.get(m, {}):
                rows[m]["note"] = "not applicable to the set (no compatible tiling); tiling content only"
                tiling_only.add(m)
    values = {
        m: r["value"] for m, r in rows.items()
        if "value" in r and m != "direct_limit" and m not in tiling_only
    }
    agreement = {}
    names = sorted(values)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            denom = 0.5 * (abs(values[a]) + abs(values[b]))
            rel = abs(values[a] - values[b]) / denom if denom else 0.0
            agreement[f"{a}~{b}"] = round(rel, 6)
    doc = {
        "command": "content",
        "scene": scene.name,
        "delta": bundle.delta,
        "checks": {k: v.to_dict() for k, v in bundle.checks().items()},
        "rows": rows,
        "pairwise_relative_difference": agreement,
    }
    _emit(doc, args)
    return 2 if all_refused else 0


def cmd_curvature(args) -> int:
    scene = load_scene(args)
    d = scene.ifs.ambient_dim
    k = d - 1 if args.k is None else args.k
    curvmod.check_order(k, d)  # refuse before any bundle is built
    bundle = get_bundle(scene)
    rows = bundle.curvature_table(k)
    doc = {"command": "curvature", "scene": scene.name, "delta": bundle.delta, "k": k, "rows": rows}
    _emit(doc, args)
    return 2 if all("refused" in r for r in rows.values()) else 0


def cmd_check(args) -> int:
    scene = load_scene(args)
    bundle = get_bundle(scene)
    reports = bundle.checks()
    doc = {
        "command": "check",
        "scene": scene.name,
        "delta": bundle.delta,
        "rows": {k: v.to_dict() for k, v in reports.items()},
    }
    _emit(doc, args)
    return 0


def cmd_render(args) -> int:
    scene = load_scene(args)
    bundle = get_bundle(scene)
    name = scene.name
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    t = bundle.tiling
    t.G.to_pgm(outdir / f"{name}_G.pgm")
    t.Gamma.to_pgm(outdir / f"{name}_Gamma.pgm")
    t.tile_union.to_pgm(outdir / f"{name}_tiles.pgm")
    manifest = dict(t.manifest(), g_tilde=bundle.g_tilde)
    (outdir / f"{name}_tiling.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, default=_json_default) + "\n",
        encoding="utf-8",
    )
    field = bundle.field_small
    eps_list = [8 * bundle.delta, bundle.g_tilde / 2, bundle.g_tilde]
    made = []
    for i, eps in enumerate(eps_list):
        layer = Grid(field.origin, field.spacing, field.values <= eps)
        layer.to_pgm(outdir / f"{name}_Feps{i}.pgm")
        made.append(f"{name}_Feps{i}.pgm")
    if bundle.d == 2:
        _render_svg(bundle, eps_list[1], outdir / f"{name}_contour.svg")
        made.append(f"{name}_contour.svg")
    doc = {
        "command": "render",
        "scene": name,
        "delta": bundle.delta,
        "rows": {"files": made + [f"{name}_G.pgm", f"{name}_Gamma.pgm", f"{name}_tiles.pgm"]},
    }
    _emit(doc, args)
    return 0


def _render_svg(bundle: SceneBundle, eps: float, path: Path) -> None:
    # the whole contour: the bundle's extractor sees only O's window
    ls = LevelSetExtractor(bundle.field_small).extract(eps)
    lo = bundle.field_small.origin
    scale = 1000.0
    lines = []
    for p, q in zip(ls.p_in, ls.p_out):
        x1, y1 = (p - lo) * scale
        x2, y2 = (q - lo) * scale
        lines.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            'stroke="black" stroke-width="0.7"/>'
        )
    n = np.array(bundle.field_small.extents) * scale * bundle.delta
    body = "\n".join(lines)
    path.write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {n[0]:.0f} {n[1]:.0f}">\n'
        f"{body}\n</svg>\n",
        encoding="utf-8",
    )


def cmd_presets(args) -> int:
    rows = {}
    for name, preset in sorted(PRESETS.items()):
        rows[name] = {
            "delta": preset.scene.delta,
            "dim": preset.scene.ifs.ambient_dim,
            "maps": preset.scene.ifs.n,
            "expected": preset.expected,
        }
    _emit({"command": "presets", "scene": "catalog", "rows": rows}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fractal-tiling-lab")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd, fn in (
        ("dim", cmd_dim),
        ("content", cmd_content),
        ("curvature", cmd_curvature),
        ("check", cmd_check),
        ("render", cmd_render),
        ("presets", cmd_presets),
    ):
        p = sub.add_parser(cmd)
        p.add_argument("--scene", help="scene JSON file")
        p.add_argument("--preset", help="preset name")
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--eps-per-decade", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        if cmd == "content":
            p.add_argument("--methods", default=None, help="comma-separated method tags")
        if cmd == "curvature":
            p.add_argument("-k", type=int, default=None, help="curvature order (default d - 1)")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except FtlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
