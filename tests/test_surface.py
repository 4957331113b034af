"""The declared library surface: every public top-level name of src/opkern is
reached from ``cli.main`` or from a name that the acceptance suite imports.

The walk is static. A top-level function, class or assignment reaches every
top-level name it loads (locals, parameters and names bound inside it do not
count) and every name it imports in its body. A name imported by ``from
.module import name`` resolves to its defining module, and ``module.name``
through an imported module resolves the same way. A class body is one unit,
so reaching a class reaches its methods.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "opkern"


def _module_tables(tree):
    """Top-level definitions by name, and relative imports as
    local name -> (module, name); a module import maps to (module, None)."""
    defs, imports = {}, {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defs[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                if isinstance(target, ast.Name):
                    defs[target.id] = stmt
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                target = (stmt.module, alias.name) if stmt.module else (alias.name, None)
                imports[alias.asname or alias.name] = target
    return defs, imports


def _bound_inside(node):
    """Names a definition binds for itself: parameters, assignment targets,
    nested definitions and local imports."""
    bound = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            bound.add(n.id)
        elif isinstance(n, ast.arg):
            bound.add(n.arg)
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n is not node:
            bound.add(n.name)
        elif isinstance(n, ast.alias):
            bound.add((n.asname or n.name).split(".")[0])
    return bound


def _references(node, defs, imports, module):
    """(module, name) of every top-level name the definition loads or
    imports inside its body."""
    local = set() if isinstance(node, (ast.Assign, ast.AnnAssign)) else _bound_inside(node) - {node.name}
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in local:
            if n.id in defs:
                out.add((module, n.id))
            elif n.id in imports:
                out.add(imports[n.id])
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            source = imports.get(n.value.id)
            if source is not None and source[1] is None:
                out.add((source[0], n.attr))
        elif isinstance(n, ast.ImportFrom) and n.level == 1 and n.module:
            out.update((n.module, alias.name) for alias in n.names)
    return out


def _acceptance_names():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        (node.module.split(".", 1)[1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("opkern.")
        for alias in node.names
    }


def unreached_names(src=SRC, seeds=None):
    """Public top-level names of the package under ``src`` that the walk from
    the seeds does not reach, as sorted "module.name" strings."""
    tables = {path.stem: _module_tables(ast.parse(path.read_text())) for path in Path(src).glob("*.py")}
    todo = [("cli", "main"), *(_acceptance_names() if seeds is None else seeds)]
    seen = set()
    while todo:
        key = todo.pop()
        module, name = key
        if key in seen or module not in tables:
            continue
        seen.add(key)
        defs, imports = tables[module]
        if name in defs:
            todo.extend(_references(defs[name], defs, imports, module))
        elif name in imports:
            todo.append(imports[name])
    return sorted(
        f"{module}.{name}"
        for module, (defs, _) in tables.items()
        for name in defs
        if not name.startswith("_") and (module, name) not in seen
    )


def test_every_public_name_is_reached_by_the_cli_or_an_acceptance_criterion():
    assert unreached_names() == []


def test_the_walk_finds_an_unreached_function_and_follows_imports(tmp_path):
    """A public function no one calls is reported; one reached only through
    ``from .x import``, an import in a function body or ``module.attr`` is
    not; a local that shadows a top-level name does not reach it."""
    (tmp_path / "cli.py").write_text(
        "from . import lib\nfrom .lib import used\n\n"
        "def main():\n    from .lib import lazy\n    gram = 1\n    return used() + lib.via_module() + lazy() + gram\n"
    )
    (tmp_path / "lib.py").write_text(
        "LIMIT = 3\n\n"
        "def used():\n    return LIMIT\n\n"
        "def via_module():\n    return 0\n\n"
        "def lazy():\n    return 0\n\n"
        "def gram():\n    return 1\n\n"
        "def orphan():\n    return 2\n"
    )
    assert unreached_names(tmp_path, seeds=[]) == ["lib.gram", "lib.orphan"]
