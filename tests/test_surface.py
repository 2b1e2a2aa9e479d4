"""Every top-level name in the package, every public method of
LaurentPoly and every parameter default has a reader outside the tests.

A function, class, method or constant that only tests call is surface
kept for the tests' sake; reference code of that kind lives under tests/.
Each top-level name of src/awlab passes if another top-level statement of
the package reads it, and each public LaurentPoly method if the package
reads that attribute outside the method itself; either also passes if
perfbench/, tools/ or the README's Library example names it.  perfbench
names the functions it spans as strings, so those files are searched as
text.  Dunder names (__version__) are module metadata and exempt.

Likewise a parameter with a default that only tests pass is a knob kept
for the tests' sake.  Each such parameter of a function or method in
src/awlab (self and cls aside) passes if some call in src/awlab,
perfbench/, tools/ or the README's Library example, to a function of
that name (a class's name for its __init__), passes it: by keyword, by
position, or through *args or **kwargs, which count as passing every
parameter.  `functools.partial(f, ...)` counts as a call to f.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return [leaf.id for target in targets for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)]
    return []


def _read_names(node: ast.AST) -> set[str]:
    return {leaf.id for leaf in ast.walk(node)
            if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load)}


def _read_attributes(node: ast.AST) -> set[str]:
    return {leaf.attr for leaf in ast.walk(node)
            if isinstance(leaf, ast.Attribute)}


def _modules(root: Path) -> dict[str, list[ast.stmt]]:
    return {path.stem: ast.parse(path.read_text()).body
            for path in sorted((root / "src" / "awlab").glob("*.py"))}


def _named_outside(name: str, outside: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", outside) is not None


def _outside_sources(root: Path) -> list[str]:
    sources = [path.read_text()
               for folder in ("perfbench", "tools")
               for path in sorted((root / folder).glob("*.py"))]
    readme = (root / "README.md").read_text().split("## Library", 1)[1]
    sources.append(readme.split("```python\n", 1)[1].split("```", 1)[0])
    return sources


def _outside_text(root: Path) -> str:
    return "\n".join(_outside_sources(root))


def unread_names(root: Path = ROOT) -> list[str]:
    """`module.name` for each top-level name nothing but tests reads."""
    modules = _modules(root)
    statements = [node for body in modules.values() for node in body]
    outside = _outside_text(root)
    unread = []
    for module, body in modules.items():
        for own in body:
            for name in _bound_names(own):
                if name.startswith("__") and name.endswith("__"):
                    continue
                if any(name in _read_names(node) for node in statements
                       if node is not own):
                    continue
                if _named_outside(name, outside):
                    continue
                unread.append(f"{module}.{name}")
    return unread


def unread_methods(root: Path = ROOT) -> list[str]:
    """`LaurentPoly.name` for each public method nothing but tests reads."""
    modules = _modules(root)
    cls = next(node for node in modules["laurent"]
               if isinstance(node, ast.ClassDef) and node.name == "LaurentPoly")
    units = [node for body in modules.values() for node in body
             if node is not cls] + cls.body
    outside = _outside_text(root)
    return [f"LaurentPoly.{own.name}" for own in cls.body
            if isinstance(own, ast.FunctionDef)
            and not own.name.startswith("_")
            and not any(own.name in _read_attributes(node)
                        for node in units if node is not own)
            and not _named_outside(own.name, outside)]


def test_no_top_level_name_is_read_only_by_tests():
    assert unread_names() == []


def test_no_laurent_method_is_read_only_by_tests():
    assert unread_methods() == []


def _defaulted(func: ast.FunctionDef,
               method: bool) -> list[tuple[str, int | None]]:
    """(name, position among the arguments a caller writes, or None if
    keyword-only) of each parameter of func with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    if method:
        positional = positional[1:]  # self or cls
    out = [(a.arg, i) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    return out + [(a.arg, None) for a, d
                  in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls(tree: ast.AST):
    """(callee name, positional args, keyword names, starred?) per call;
    partial(f, *args, **kwargs) is a call of f."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        keywords = {k.arg for k in node.keywords}
        starred = None in keywords or any(isinstance(a, ast.Starred)
                                          for a in args)
        yield name, len(args), keywords, starred


def unpassed_defaults(root: Path = ROOT) -> list[str]:
    """`function.parameter` (`Class.method.parameter`) for each default
    that no caller outside the tests passes."""
    package = [ast.parse(path.read_text())
               for path in sorted((root / "src" / "awlab").glob("*.py"))]
    calls = [call for tree in package + [ast.parse(source) for source
                                         in _outside_sources(root)]
             for call in _calls(tree)]
    unpassed = []
    for owner in (node for tree in package for node in ast.walk(tree)):
        method = isinstance(owner, ast.ClassDef)
        for func in ast.iter_child_nodes(owner):
            if not isinstance(func, ast.FunctionDef):
                continue
            name = owner.name if method and func.name == "__init__" \
                else func.name
            for param, i in _defaulted(func, method):
                if not any(callee == name and (
                        starred or param in keywords
                        or (i is not None and i < n_args))
                           for callee, n_args, keywords, starred in calls):
                    where = f"{owner.name}." if method else ""
                    unpassed.append(f"{where}{func.name}.{param}")
    return unpassed


def test_no_default_is_passed_only_by_tests():
    assert unpassed_defaults() == []
