"""The exported surface is what the program uses.

Every name in ``ranktrack.__all__`` and ``ranktrack.numerics.__all__`` must
be read somewhere in the program, ``src/`` or ``bench/``: by its own module,
through a ``from ... import`` of it, or as an attribute of its module
(``nm.conv2d``). Imports, definitions, export lists, docstrings and
comments do not count, and neither does an attribute of the same name on
something else (``bytes.decode``) or a parameter of the same name read
inside its function (``conv2d``'s ``relu=``). The only exceptions are the
reference ops below, kept for the tests that hold the fused ops to them bit
for bit.
"""

import ast
from pathlib import Path

import ranktrack
from ranktrack import numerics

ROOT = Path(__file__).resolve().parent.parent

REFERENCE_OPS = {
    "matmul": "test_correlation.py",     # composed_pw_corr, TestPwCorrBits
    "transpose": "test_correlation.py",  # composed_pw_corr
    "concat": "test_correlation.py",     # TestDwCorr per-channel conv composition
    "relu": "test_numerics.py",          # composed_layer, TestConv2dFusedLayer
}


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
            if name.startswith("__") or name in REFERENCE_OPS:
                continue
            if (getattr(package, name).__module__, name) not in reads:
                unused.append(f"{package.__name__}.{name}")
    assert not unused, f"exported but never read by src/ or bench/: {unused}"


def test_reference_ops_are_exported_and_used_by_their_tests():
    reads = _program_reads()
    for name, test_file in REFERENCE_OPS.items():
        assert name in numerics.__all__
        assert ("ranktrack.numerics", name) not in reads, \
            f"{name} is used by the program; drop it from REFERENCE_OPS"
        assert f"nm.{name}(" in (ROOT / "tests" / test_file).read_text()
