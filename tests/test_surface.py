"""The program's surface is what the program uses.

Every name in ``ranktrack.numerics.__all__``, and every public
module-level function and class of a ``ranktrack`` module,
must be read somewhere in the program, ``src/`` or ``bench/``: by its own module,
through a ``from ... import`` of it, or as an attribute of its module
(``nm.conv2d``). Imports, definitions, export lists, docstrings and
comments do not count, and neither does an attribute of the same name on
something else (``bytes.decode``) or a parameter of the same name read
inside its function (``conv2d``'s ``relu=``). Ops that only the tests need
live in ``tests/reference_ops.py``.

Every defaulted parameter of a ``ranktrack`` function, a dataclass's
defaulted fields included, must be passed by some call in the program, or
the default is a constant in disguise; and left out by some call in the
program, or the default serves only tests.

Every name that a ``ranktrack`` module imports must be read in that module.
"""

import ast
from pathlib import Path

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
    unused = [f"ranktrack.numerics.{name}" for name in numerics.__all__
              if (getattr(numerics, name).__module__, name) not in reads]
    assert not unused, f"exported but never read by src/ or bench/: {unused}"


def test_every_public_definition_is_used_by_the_program():
    reads = _program_reads()
    unused = []
    for path in sorted((ROOT / "src" / "ranktrack").glob("*.py")):
        module = f"ranktrack.{path.stem}"
        unused += [f"{module}.{node.name}" for node in ast.parse(path.read_text()).body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not node.name.startswith("_") and (module, node.name) not in reads]
    assert not unused, f"defined but never read by src/ or bench/: {unused}"


def test_every_import_is_read_by_its_module():
    unread = []
    for path in sorted((ROOT / "src" / "ranktrack").glob("*.py")):
        names = {name for _, name in _reads(path)}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                unread += [f"ranktrack.{path.stem}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in names]
    assert not unread, f"imported but never read: {unread}"


def _field_defaults(cls: ast.ClassDef) -> list[tuple[str, str, int]]:
    """The defaulted fields of a dataclass, as parameters of its generated
    ``__init__``: (class name, field, positional index)."""
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
    return [(cls.name, s.target.id, i) for i, s in enumerate(fields)
            if s.value is not None and not (
                isinstance(s.value, ast.Call) and _name(s.value.func) == "field"
                and not {"default", "default_factory"} & {k.arg for k in s.value.keywords})]


def _defaulted_params(tree: ast.AST) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, positional index at the call or None for a
    keyword-only one) of every parameter with a default, a dataclass field's
    included. A method's index leaves out ``self``, and ``__init__`` is
    called by its class name."""
    found = []

    def visit(node, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                       for d in child.decorator_list):
                    found.extend(_field_defaults(child))
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


def _spreads(call: ast.Call) -> bool:
    """Whether ``call`` spreads ``*args`` or ``**kwargs``, so that any
    parameter may be passed or left out."""
    return any(isinstance(a, ast.Starred) for a in call.args) \
        or any(k.arg is None for k in call.keywords)


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    return _spreads(call) or any(k.arg == param for k in call.keywords) \
        or (index is not None and len(call.args) > index)


def _name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls(program: list[str]) -> tuple[dict[str, list[ast.Call]], set[str]]:
    """The program's calls by callee name, and the names that some call
    takes as an argument (``_two_inputs(nm.conv2d, ...)``): such a function
    is called elsewhere, with any of its defaults."""
    calls: dict[str, list[ast.Call]] = {}
    passed = set()
    for text in program:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                calls.setdefault(_name(node.func), []).append(node)
                passed.update(_name(a) for a in node.args + [k.value for k in node.keywords]
                              if isinstance(a, (ast.Name, ast.Attribute)))
    return calls, passed


def _defaults(sources: list[str]) -> list[tuple[str, str, int | None]]:
    return [d for text in sources for d in _defaulted_params(ast.parse(text))]


def _never_passed(sources: list[str], program: list[str]) -> list[str]:
    calls, _ = _calls(program)
    return [f"{fn}({param})" for fn, param, index in _defaults(sources)
            if not any(_passes(c, param, index) for c in calls.get(fn, []))]


def _never_omitted(sources: list[str], program: list[str]) -> list[str]:
    calls, passed = _calls(program)
    return [f"{fn}({param})" for fn, param, index in _defaults(sources)
            if fn not in passed and not any(_spreads(c) or not _passes(c, param, index)
                                            for c in calls.get(fn, []))]


def _program() -> tuple[list[str], list[str]]:
    """The ``ranktrack`` sources, and those plus ``bench/``'s."""
    sources = [p.read_text() for p in (ROOT / "src" / "ranktrack").glob("*.py")]
    return sources, sources + [p.read_text() for p in (ROOT / "bench").glob("*.py")]


def test_every_defaulted_parameter_is_passed_by_the_program():
    unpassed = _never_passed(*_program())
    assert not unpassed, f"defaults that no call in src/ or bench/ overrides: {unpassed}"


def test_every_default_is_relied_on_by_the_program():
    unomitted = _never_omitted(*_program())
    assert not unomitted, f"defaults that every call in src/ or bench/ overrides: {unomitted}"


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


def test_never_omitted_reads_positions_keywords_spreads_and_passed_functions():
    source = (
        "def f(a, b=1, *, c=2): pass\n"
        "def g(x=0): pass\n"
        "class K:\n"
        "    def __init__(self, x, y=0): pass\n"
        "    def m(self, z=3): pass\n"
    )
    program = source + "f(1, 2, c=3)\ng(x=1)\nK(1, 2)\nk.m(z=4)\n"   # every default passed

    def omitted(calls: str) -> list[str]:
        return _never_omitted([source], [program + calls])

    assert omitted("") == ["f(b)", "f(c)", "g(x)", "K(y)", "m(z)"]
    assert omitted("f(1, c=3)\nf(1, 2)\ng()\nK(x=1)\nk.m()\n") == []
    assert omitted("f(*args)\nK(1, **kw)\n") == ["g(x)", "m(z)"]
    assert omitted("apply(g, 1)\nrun(fn=k.m)\n") == ["f(b)", "f(c)", "K(y)"]


def test_dataclass_fields_are_constructor_parameters():
    source = (
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = field(repr=False)\n"
        "class Plain:\n"
        "    e: int = 4\n"
    )
    assert _never_passed([source], [source + "D(1, d=2)\nPlain()\n"]) == ["D(b)", "D(c)"]
    assert _never_passed([source], [source + "D(1, 2, [], 5)\n"]) == []
    assert _never_passed([source], [source + "D(1, 2, c=[], d=5)\n"]) == []
    assert _never_omitted([source], [source + "D(1, 2, c=[], d=5)\n"]) == ["D(b)", "D(c)"]
    assert _never_omitted([source], [source + "D(1, 2, c=[], d=5)\nD(1, d=5)\n"]) == []
