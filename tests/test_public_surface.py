"""Every name the package exports has a user outside the tests.

A name exported from fractal_tiling_lab/__init__.py must be referenced in
src/ (outside its own definition and __init__.py), in bench/ or in demos/.
A reference is the name as a whole word, so bench/tracer.py's wrapping of
a function by its name counts. The paper's acceptance-only names are kept
by KEEP, each with its reason.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "fractal_tiling_lab"

KEEP = {
    "curvature_renewal_difference": (
        "the paper's curvature renewal identity, asserted by "
        "test_acceptance.py::test_criterion_07_renewal_residuals"
    ),
}


def exported_names() -> list[str]:
    tree = ast.parse((PKG / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def user_text() -> dict[str, tuple[list[str], dict[str, range]]]:
    """Per file: its lines, and the line range of each top-level definition."""
    files = [p for p in PKG.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").rglob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    out = {}
    for path in files:
        text = path.read_text(encoding="utf-8")
        spans = {
            node.name: range(node.lineno - 1, node.end_lineno)
            for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        out[str(path.relative_to(ROOT))] = (text.splitlines(), spans)
    return out


def has_user(name: str, files) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    for lines, spans in files.values():
        own = spans.get(name, range(0))
        if any(word.search(line) for i, line in enumerate(lines) if i not in own):
            return True
    return False


FILES = user_text()


def test_keep_list_names_are_exported():
    assert set(KEEP) <= set(exported_names())


@pytest.mark.parametrize("name", sorted(set(exported_names()) - set(KEEP)))
def test_export_has_a_user(name):
    assert has_user(name, FILES), f"{name} is exported but nothing in src/, bench/ or demos/ uses it"
