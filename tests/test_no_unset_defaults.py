"""Every default in the library is a value some caller overrides.

A parameter with a default that no call in src/, bench/ or demos/ ever
sets is an option nothing exercises: the one value in use belongs in a
named constant, and the code paths for other values are dead. Calls in
tests/ do not count, since an option that only its own tests set has no
user. The defaults that only tests set and that stay are kept by KEEP,
each with its reason. This test scans the package with ast and names each
other such parameter.

A call sets a parameter when it passes it, by keyword or by position, as
anything but the default's own literal (`a=1.0` against `a: float = 1.0`
sets nothing). Calls are matched by name: a function's or method's own
name, or for __init__ its class's name or a subclass's. Two functions of
one name therefore share their callers, and the scan errs towards "set".
A `*` splat of a tuple the calling function builds counts its items; any
other `*` splat sets every positional parameter. A `**` splat sets every
parameter, except that a function handing its own `**kwargs` on sets only
the keywords its callers put into them.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fractal_tiling_lab"
CALLER_DIRS = ("src", "bench", "demos")
ALL = "*"  # a `**` splat of unknown keywords

KEEP = {
    "curvature.sample_curvature(mask)": (
        "test_curvature.py samples C_k restricted to a region against the bundle's "
        "profiles; the function goes with ROADMAP item 9"
    ),
    "curvature.sample_curvature(region_tag)": (
        "as sample_curvature(mask): the tag names the restricted region in those tests"
    ),
    "curvature.inner_curvature_samples(region_tag)": (
        "the tile-union cores of the renewal tests are tagged T_core; the function "
        "goes with ROADMAP item 9"
    ),
    "levelsets.euler_and_turning(extractor)": (
        "the Gauss-Bonnet self-tests (test_curvature.py, test_acceptance.py) pass "
        "the bundle's extractor instead of building one per threshold"
    ),
}


@functools.cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _walk(tree: ast.AST):
    """Yield (node, enclosing function or None, enclosing class or None)."""
    stack = [(tree, None, None)]
    while stack:
        node, func, cls = stack.pop()
        yield node, func, cls
        for child in ast.iter_child_nodes(node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, node, None))
            elif isinstance(node, ast.ClassDef):
                stack.append((child, func, node))
            else:
                stack.append((child, func, cls))


def _same_literal(a: ast.AST, b: ast.AST) -> bool:
    try:
        return ast.literal_eval(a) == ast.literal_eval(b)
    except ValueError:
        return False


class Definition:
    def __init__(self, module: str, node, cls):
        self.node = node
        self.label = f"{module}.{cls.name + '.' if cls else ''}{node.name}"
        self.class_name = cls.name if cls is not None else None
        a = node.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):]
        self.defaults = {p.arg: d for p, d in zip(defaulted, a.defaults)}
        self.defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        if cls is not None and "staticmethod" not in decorators:
            positional = positional[1:]  # self / cls
        self.positional = [p.arg for p in positional]
        self.named = set(self.positional) | {p.arg for p in a.kwonlyargs}
        self.kwarg = a.kwarg.arg if a.kwarg else None

    def sets(self, args, star, keywords, splat) -> set:
        """Parameters one call sets; splat holds the keyword names of its `**` splats."""
        if ALL in splat:
            return {ALL}
        out = set(splat)
        if star:
            out.update(self.positional)
        passed = list(zip(self.positional, args)) + list(keywords.items())
        for name, value in passed:
            if name not in self.defaults or not _same_literal(value, self.defaults[name]):
                out.add(name)
        return out


def _definitions() -> tuple[list[Definition], dict[str, list[Definition]]]:
    """Package functions, and for each call name the functions it may reach."""
    defs, bases = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node, _, cls in _walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(Definition(path.stem, node, cls))

    def with_subclasses(name):
        out = {name}
        for sub, parents in bases.items():
            if name in parents:
                out |= with_subclasses(sub)
        return out

    by_name: dict[str, list[Definition]] = {}
    for d in defs:
        init = d.node.name == "__init__" and d.class_name is not None
        for name in with_subclasses(d.class_name) if init else {d.node.name}:
            by_name.setdefault(name, []).append(d)
    return defs, by_name


def _tuples_built(func) -> dict[str, list[ast.AST]]:
    """Items of the tuples a function assigns to a plain name."""
    if func is None:
        return {}
    return {
        node.targets[0].id: node.value.elts
        for node in ast.walk(func)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Tuple)
    }


def _calls():
    """(callee name, positional args, unknown * splat?, keywords, `**` splats) of every call.

    A `**` splat is ALL, or the enclosing package function's node when it
    hands on that function's own **kwargs.
    """
    out = []
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            in_package = PACKAGE in path.parents
            for node, func, _ in _walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name is None:
                    continue
                args, star = [], False
                for a in node.args:
                    if not isinstance(a, ast.Starred):
                        args.append(a)
                        continue
                    built = _tuples_built(func)
                    if isinstance(a.value, ast.Name) and a.value.id in built:
                        args += built[a.value.id]
                    else:
                        star = True
                keywords = {k.arg: k.value for k in node.keywords if k.arg is not None}
                splat = []
                for k in node.keywords:
                    if k.arg is None:
                        own = (in_package and func is not None and func.args.kwarg is not None
                               and isinstance(k.value, ast.Name) and k.value.id == func.args.kwarg.arg)
                        splat.append(func if own else ALL)
                out.append((name, args, star, keywords, splat))
    return out


def never_set_defaults() -> list[str]:
    defs, by_name = _definitions()
    label_of = {id(d.node): d.label for d in defs}
    calls = _calls()
    # keywords each **kwargs parameter receives, to a fixed point (forwarding chains)
    received: dict[str, set] = {d.label: set() for d in defs}

    def splat_keys(splat):
        return set().union(*({ALL} if s == ALL else received[label_of[id(s)]] for s in splat))

    changed = True
    while changed:
        changed = False
        for name, _, _, keywords, splat in calls:
            for d in by_name.get(name, ()):
                extra = (set(keywords) - d.named) | splat_keys(splat)
                if d.kwarg is not None and not extra <= received[d.label]:
                    received[d.label] |= extra
                    changed = True
    set_by_calls: dict[str, set] = {d.label: set() for d in defs}
    for name, args, star, keywords, splat in calls:
        for d in by_name.get(name, ()):
            set_by_calls[d.label] |= d.sets(args, star, keywords, splat_keys(splat))
    return [
        f"{d.label}({p})"
        for d in defs if ALL not in set_by_calls[d.label]
        for p in d.defaults if p not in set_by_calls[d.label]
    ]


def test_every_default_is_set_by_some_caller():
    unset = [u for u in never_set_defaults() if u not in KEEP]
    assert not unset, (
        f"{len(unset)} parameter defaults are never set by any call in "
        f"{', '.join(CALLER_DIRS)}; make each a named constant:\n  " + "\n  ".join(unset)
    )


def test_keep_list_entries_are_defaults_without_callers():
    unset = set(never_set_defaults())
    stale = [k for k in KEEP if k not in unset]
    assert not stale, "kept but no longer a default that only tests set: " + ", ".join(stale)
