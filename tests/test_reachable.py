"""Every top-level function and class in src/finslerlab is reached from somewhere.

A definition is reached when another src/ definition or statement refers to it
(a name loaded in its module, an import of it from its module, or an attribute
of its name), when ``finslerlab.__all__`` exports it, or when bench/ names it: the
tracer's SPANS and EXPR_LEAVES tables wrap package functions by name, and
bench/workloads.py imports or reads attributes of the package.  A definition
that only tests reach is code nothing needs; delete it, or list it below with
the reason it stays.
"""

import ast
import importlib.util
from pathlib import Path

import finslerlab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "finslerlab"

#: unreached definitions that stay, by module.name, with the reason
EXEMPT = {
    "families.p_over_s_spread": "the Randers/Berwald dichotomy check (ROADMAP item 1) replaces it",
}


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _loaded(tree, skip=None) -> set:
    """The names tree loads outside its top-level definition skip."""
    return {node.id for top in tree.body if top is not skip for node in ast.walk(top)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _bench_names() -> set:
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    named = {name for names in tracing.SPANS.values() for name in names}
    named.update(tracing.EXPR_LEAVES)
    workloads = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    for node in ast.walk(workloads):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("finslerlab"):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


def _unreached() -> list:
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    nodes = [node for tree in modules.values() for node in ast.walk(tree)]
    # another module reaches a definition by importing it from its module, or as an attribute
    imported = {(node.module, alias.name) for node in nodes
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    named = set(finslerlab.__all__) | attributes | _bench_names()
    return [f"{mod}.{top.name}" for mod, tree in modules.items() for top in tree.body
            if isinstance(top, _DEFINITIONS) and top.name not in named
            and (mod, top.name) not in imported and top.name not in _loaded(tree, skip=top)]


def test_every_src_definition_is_reached_or_exempt_with_a_reason():
    unreached = _unreached()
    assert [name for name in unreached if name not in EXEMPT] == []
    # an exemption whose definition is reached again, or gone, is dropped here
    assert sorted(EXEMPT) == sorted(name for name in unreached if name in EXEMPT)
