"""The program's surface is what the program uses.

Every name in ``ranktrack.__all__`` and ``ranktrack.numerics.__all__`` must
be read somewhere in the program, ``src/`` or ``bench/``: by its own module,
through a ``from ... import`` of it, or as an attribute of its module
(``nm.conv2d``). Imports, definitions, export lists, docstrings and
comments do not count, and neither does an attribute of the same name on
something else (``bytes.decode``) or a parameter of the same name read
inside its function (``conv2d``'s ``relu=``). Ops that only the tests need
live in ``tests/reference_ops.py``.

Every defaulted parameter of a ``ranktrack`` function must be passed by
some call in the program, or the default is a constant in disguise.
"""

import ast
from pathlib import Path

import ranktrack
from ranktrack import numerics

ROOT = Path(__file__).resolve().parent.parent


def _reads(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs that one source file reads."""
    tree = ast.parse(path.read_text())
    here = f"ranktrack.{path.stem}" if path.parent.name == "ranktrack" else None
    modules: dict[str, str] = {}              # local alias -> module
    imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            package = "ranktrack" + (f".{node.module}" if node.module else "")
        elif (node.module or "").startswith("ranktrack"):
            package = node.module
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if package == "ranktrack":
                modules[local] = f"ranktrack.{alias.name}"
            else:
                imported[local] = (package, alias.name)
    reads = set()

    def visit(node, params: frozenset[str]) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id not in params:
            if node.id in imported:
                reads.add(imported[node.id])
            elif here:
                reads.add((here, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
        body, inner = (), params
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # a parameter shadows the module-level name in the body only;
            # defaults and decorators are read in the enclosing scope
            body = node.body if isinstance(node.body, list) else [node.body]
            inner = params | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        for child in ast.iter_child_nodes(node):
            visit(child, inner if any(child is b for b in body) else params)

    visit(tree, frozenset())
    return reads


def _program_reads() -> set[tuple[str, str]]:
    files = [p for p in (ROOT / "src" / "ranktrack").glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "bench").glob("*.py"))
    return set().union(*(_reads(p) for p in files))


def test_every_export_is_used_by_the_program():
    reads = _program_reads()
    unused = []
    for package in (ranktrack, numerics):
        for name in package.__all__:
            if name.startswith("__"):
                continue
            if (getattr(package, name).__module__, name) not in reads:
                unused.append(f"{package.__name__}.{name}")
    assert not unused, f"exported but never read by src/ or bench/: {unused}"


def _defaulted_params(tree: ast.AST) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, positional index at the call or None for a
    keyword-only one) of every parameter with a default. A method's index
    leaves out ``self``, and ``__init__`` is called by its class name."""
    found = []

    def visit(node, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            skip = 1 if cls and not static else 0
            name = cls if cls and child.name == "__init__" else child.name
            a = child.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            found.extend((name, arg.arg, i - skip)
                         for i, arg in enumerate(positional[first:], start=first))
            found.extend((name, arg.arg, None)
                         for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            visit(child, None)

    visit(tree, None)
    return found


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):   # None: **kwargs
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def _never_passed(sources: list[str], program: list[str]) -> list[str]:
    calls: dict[str, list[ast.Call]] = {}
    for text in program:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return [f"{fn}({param})" for text in sources
            for fn, param, index in _defaulted_params(ast.parse(text))
            if not any(_passes(c, param, index) for c in calls.get(fn, []))]


def test_every_defaulted_parameter_is_passed_by_the_program():
    sources = [p.read_text() for p in (ROOT / "src" / "ranktrack").glob("*.py")]
    program = sources + [p.read_text() for p in (ROOT / "bench").glob("*.py")]
    unpassed = _never_passed(sources, program)
    assert not unpassed, f"defaults that no call in src/ or bench/ overrides: {unpassed}"


def test_never_passed_reads_positions_keywords_and_constructors():
    source = (
        "def f(a, b=1, *, c=2): pass\n"
        "class K:\n"
        "    def __init__(self, x, y=0): pass\n"
        "    def m(self, z=3): pass\n"
    )
    assert _never_passed([source], [source + "f(1)\nK(1)\nk.m()\n"]) == \
        ["f(b)", "f(c)", "K(y)", "m(z)"]
    assert _never_passed([source], [source + "f(1, 2, c=3)\nK(1, 2)\nk.m(z=4)\n"]) == []
    assert _never_passed([source], [source + "f(*args, **kw)\nK(1, **kw)\nk.m(*zs)\n"]) == []
