"""Every definition in src/ has a user outside the tests.

Every top-level function or class and every non-dunder method of a class
in src/fractal_tiling_lab/ must be referenced in src/ (outside its own
body and __init__.py), in bench/ or in demos/. A reference to a function
or class is its name as a whole word outside a def or class line, so
bench/tracer.py's wrapping of a function by its name counts; a reference to
a class member is an attribute access `.name`, so a local variable of the
same name does not count, and a plain (undecorated) method counts only
when called, `.name(`. That match is by name only: a common name (a
method called `index`, a product called `phi`) can be matched by an
unrelated attribute, so a pass is necessary, not sufficient. Each exported
name is checked too.
The definitions that only tests compare against are kept by KEEP, each
with its reason.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "fractal_tiling_lab"

KEEP = {
    "Region.contains": (
        "tests compare against it: test_raster.py's point-wise reference for rasterize"
    ),
    "WordTree.from_words": (
        "tests compare against it: test_tile_raster.py builds reference word trees "
        "from explicit word lists"
    ),
    "Word.extend": (
        "tests compare against it: test_tile_raster.py composes reference tile maps "
        "one letter at a time"
    ),
    "Word.ratio": (
        "tests compare against it: test_ifs.py's reference for a word's ratio "
        "(multiplicities, the product of its letters' ratios)"
    ),
    "Word.map": (
        "tests compare against it: test_ifs.py's and test_tile_raster.py's reference "
        "for a word's composed map"
    ),
}


def exported_names() -> list[str]:
    tree = ast.parse((PKG / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def definitions() -> dict[str, tuple[str, str, range]]:
    """{label: (file, name, its own lines, kind)} for every top-level def and
    class and every non-dunder method in src/; a method's label is
    Class.method. kind is how a user names it (see has_user)."""
    out = {}
    for path in sorted(PKG.glob("*.py")):
        if path.name == "__init__.py":
            continue
        rel = str(path.relative_to(ROOT))
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out[node.name] = (rel, node.name, range(node.lineno - 1, node.end_lineno), "name")
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not re.fullmatch(r"__\w+__", sub.name):
                        own = range(sub.lineno - 1, sub.end_lineno)
                        kind = "attribute" if sub.decorator_list else "call"
                        out[f"{node.name}.{sub.name}"] = (rel, sub.name, own, kind)
    return out


def user_text() -> dict[str, list[str]]:
    """The lines of every file whose references count as users."""
    files = [p for p in PKG.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").rglob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8").splitlines() for p in files}


USE = {"name": r"\b{}\b", "attribute": r"\.{}\b", "call": r"\.{}\("}


def has_user(
    name: str, files, own_file: str | None = None, own: range = range(0), kind: str = "name",
) -> bool:
    """Whether a line outside the definition's own body names it: as a whole
    word (kind "name"), as an attribute `.name` (a decorated class member) or
    as a call `.name(` (a plain method); a def or class line of the same name
    elsewhere (an override) is not a user."""
    word = re.compile(USE[kind].format(re.escape(name)))
    define = re.compile(rf"^\s*(def|class) {re.escape(name)}\b")
    return any(
        word.search(line) and not define.match(line)
        for path, lines in files.items()
        for i, line in enumerate(lines)
        if not (path == own_file and i in own)
    )


FILES = user_text()
DEFINITIONS = definitions()


def test_keep_list_names_are_definitions_without_users():
    for label in KEEP:
        assert label in DEFINITIONS, f"{label} is kept but not defined in src/"
        own_file, name, own, kind = DEFINITIONS[label]
        assert not has_user(name, FILES, own_file, own, kind), (
            f"{label} has a user now: drop it from KEEP")


@pytest.mark.parametrize("name", sorted(set(exported_names()) - set(KEEP)))
def test_export_has_a_user(name):
    own_file, _, own, _ = DEFINITIONS.get(name, (None, name, range(0), "name"))
    assert has_user(name, FILES, own_file, own), (
        f"{name} is exported but nothing in src/, bench/ or demos/ uses it")


@pytest.mark.parametrize("label", sorted(set(DEFINITIONS) - set(KEEP)))
def test_definition_has_a_user(label):
    own_file, name, own, kind = DEFINITIONS[label]
    assert has_user(name, FILES, own_file, own, kind), (
        f"{label} ({own_file}) has no user in src/, bench/ or demos/ outside its own body")
