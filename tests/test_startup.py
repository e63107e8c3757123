"""Start-up cost: importing the package loads only what every command needs."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # scipy.interpolate pulls in scipy.optimize, scipy.linalg and
    # scipy.sparse, about a third of a command's fixed cost; the renewal
    # differences use the package's own interpolant instead
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import fractal_tiling_lab, fractal_tiling_lab.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
