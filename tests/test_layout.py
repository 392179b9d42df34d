"""Module layout of the package.

Every model is computed once in production and checked against one
reference in `oracles` that shares no code with it. So a production
module exports only what production code uses, and `oracles` imports no
`agifl` module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "agifl"

# Kept for perfbench/launch.py, which binds it by name; no production path
# calls it.
UNCALLED = {("scenario", "run_repeat")}


def parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def production_modules():
    return {path.stem: parse(path.stem) for path in sorted(PACKAGE.glob("*.py"))
            if path.stem not in ("__init__", "oracles")}


def public_names(tree):
    """The module's `__all__` and every top-level function or class whose
    name has no leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                names.add(node.name)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def names_read(node, aliases):
    """Every name and attribute that the code under `node` reads, with
    names imported under another name (`from .seeding import rng as _rng`)
    read as the original."""
    return {aliases.get(n.id, n.id) if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def uncalled_public_names(modules):
    """The public names that no production code reads, other than their own
    definition and the definitions of other such names."""
    # (module, top-level name, or None for other statements) -> names read
    reads = {}
    for module, tree in modules.items():
        aliases = {alias.asname: alias.name for node in tree.body
                   if isinstance(node, ast.ImportFrom) for alias in node.names
                   if alias.asname}
        for node in tree.body:
            key = (module, getattr(node, "name", None))
            reads.setdefault(key, set()).update(names_read(node, aliases))
    public = {(module, name) for module, tree in modules.items()
              for name in public_names(tree)}
    dead = set()
    while True:
        newly = {(module, name) for module, name in public - dead
                 if not any(name in names for key, names in reads.items()
                            if key not in dead and key != (module, name))}
        if not newly:
            return dead
        dead |= newly


def test_every_public_name_has_a_production_caller():
    assert uncalled_public_names(production_modules()) == UNCALLED


def test_oracles_import_no_agifl_module():
    imported = [node for node in ast.walk(parse("oracles"))
                if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "agifl")
                or isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "agifl" for alias in node.names)]
    assert imported == []
