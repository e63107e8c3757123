"""Start-up cost: importing the package loads only what every command needs."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from fractal_tiling_lab import grids

SRC = Path(__file__).resolve().parents[1] / "src"
# scipy.ndimage's __init__ loads scipy.special and, through scipy._lib's
# array API support, numpy.f2py, numpy.testing and more: about 0.3 s of every
# command's start-up for two compiled functions
HEAVY = ("scipy.ndimage", "scipy.special", "numpy.f2py")


def run_fresh(code: str) -> str:
    """Stdout of code run in a fresh interpreter with the package importable."""
    prelude = "import sys; sys.path.insert(0, sys.argv[1]); "
    out = subprocess.run([sys.executable, "-c", prelude + code, str(SRC)], capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # scipy.interpolate pulls in scipy.optimize, scipy.linalg and
    # scipy.sparse, about a third of a command's fixed cost; the renewal
    # differences use the package's own interpolant instead
    code = (
        "import fractal_tiling_lab, fractal_tiling_lab.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))"
    )
    assert run_fresh(code).strip() == "[]"


def test_cli_import_leaves_scipy_ndimage_unloaded():
    code = f"import fractal_tiling_lab, fractal_tiling_lab.cli; print([m for m in {HEAVY!r} if m in sys.modules])"
    assert run_fresh(code).strip() == "[]"


def test_check_commands_run_both_kernels_without_scipy_ndimage():
    # whole checks take the EDTs and count contour components; no code path
    # may bring the ndimage package back lazily. Every kernel call goes
    # through grids._load_ndimage_kernel, so a loader that wraps what it
    # loads counts them all. Gasket's boundary collar lies inside every
    # F_eps, so its check passes by containment and counts no component;
    # koch's level sets reach its collar, so koch's check runs the label kernel
    code = f"""
import contextlib, io, json, types
from fractal_tiling_lab import cli, conditions, grids, levelsets
calls = {{"edt": 0, "label": 0, "components": 0}}
def counted(key, fn):
    def wrapped(*args):
        calls[key] += 1
        return fn(*args)
    return wrapped
load = grids._load_ndimage_kernel
def counting_load(name):
    kernel = load(name)
    if name == "_nd_image":
        return types.SimpleNamespace(euclidean_feature_transform=counted("edt", kernel.euclidean_feature_transform))
    return types.SimpleNamespace(_label=counted("label", kernel._label))
grids._load_ndimage_kernel = levelsets._load_ndimage_kernel = counting_load
conditions.contour_components = counted("components", conditions.contour_components)
out = {{}}
for preset in ("gasket", "koch"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["check", "--preset", preset, "--delta", repr(2.0**-7)])
    out[preset] = dict(calls, code=code)
print(json.dumps(dict(out, loaded=[m for m in {HEAVY!r} if m in sys.modules])))
"""
    out = json.loads(run_fresh(code).splitlines()[-1])
    assert out["gasket"] == {"code": 0, "edt": out["gasket"]["edt"], "label": 0, "components": 0}
    assert out["gasket"]["edt"] > 0
    assert out["koch"]["code"] == 0 and out["koch"]["edt"] > out["gasket"]["edt"]
    # the counts run on from gasket's: koch counts 12 components, one label each
    assert out["koch"]["components"] == 12 and out["koch"]["label"] == 12
    assert out["loaded"] == []


def test_2d_commands_leave_numpy_ma_unloaded():
    # np.unique, np.isin and np.union1d import numpy.ma on first use (about
    # 15 ms); the level-set index and the image stamps sort and compare
    # instead. Each command builds its own bundle, so each runs its whole path
    code = f"""
import contextlib, io, json
from fractal_tiling_lab import cli, pipeline
out = []
for preset in ("carpet", "koch"):
    for command in (["content"], ["curvature", "-k", "1"], ["check"]):
        pipeline._BUNDLES.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(command + ["--preset", preset, "--delta", repr(2.0**-7)])
        out.append([preset, command[0], code, "numpy.ma" in sys.modules])
print(json.dumps(out))
"""
    out = json.loads(run_fresh(code).splitlines()[-1])
    # curvature exits 2 at this delta: its rows are refused, after the level sets ran
    assert [row[2] for row in out] == [0, 2, 0] * 2
    assert [row for row in out if row[3]] == []


def test_1d_content_loads_no_scipy():
    # a 1-d command takes its distances in numpy and counts no contour
    # components, so it loads neither kernel and no scipy module at all
    code = """
import contextlib, io
from fractal_tiling_lab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["content", "--preset", "cantor"])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    assert run_fresh(code).splitlines()[-1] == "0 []"


def test_missing_kernel_file_named(monkeypatch, tmp_path):
    import scipy

    # scipy's package directory without its compiled ndimage modules
    spec = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(grids.importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError) as info:
        grids._load_ndimage_kernel.__wrapped__("_nd_image")  # past the loader's cache
    assert str(info.value) == (
        f"scipy's compiled _nd_image is missing from {tmp_path / 'ndimage'} (scipy {scipy.__version__})")
