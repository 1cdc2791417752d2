"""Every broad exception handler in src/finslerlab is listed here with its reason.

A handler is broad when it catches FinslerError, DomainError or Exception (or
is a bare ``except``).  A batch that fails is replayed by
``errors.replay_alone``, which raises the first failing part's error or the
batch's own, and no other handler may go on past a failed batch; a new broad
handler is therefore an error to review: route it through the helper, or list
it below with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "finslerlab"

BROAD = {"FinslerError", "DomainError", "Exception", "BaseException"}

#: broad handlers that stay, by module.function, with the reason
ALLOWED = {
    "errors.replay_alone": "the replay rule: each part in order, then the batch's error",
    "cli.main": "maps each error to its exit code and one stderr line",
    "expr._run": "names the failing subexpression on the error and re-raises it",
    "expr.radial_jets": "replay_alone inline: its call costs about 1 us of a 32 us float jet",
    "oracle.s_by_distortion": "values the forward states before a backward trajectory's error",
    "geometry.regularity_scan": "records each failing point as a note, never raises",
}


def _caught(node) -> set:
    """The exception names an except clause's type expression names."""
    if node is None:  # a bare except
        return {"BaseException"}
    if isinstance(node, ast.Tuple):
        return set().union(*map(_caught, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


class _BroadHandlers(ast.NodeVisitor):
    """module.function of the innermost function around each broad handler."""

    def __init__(self, module: str):
        self.scope, self.found = [module], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ExceptHandler(self, node):
        if _caught(node.type) & BROAD:
            self.found.add(f"{self.scope[0]}.{self.scope[-1]}")
        self.generic_visit(node)


def _broad_handlers() -> set:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _BroadHandlers(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= visitor.found
    return found


def test_every_broad_handler_is_the_replay_helper_or_allowed_with_a_reason():
    found = _broad_handlers()
    assert sorted(found - set(ALLOWED)) == []
    # an allowed handler that is gone is dropped here
    assert sorted(set(ALLOWED) - found) == []


def test_the_scan_finds_each_kind_of_broad_handler():
    source = """
def f():
    try: pass
    except (ValueError, DomainError): pass
def g():
    def inner():
        try: pass
        except errors.FinslerError: pass
    try: pass
    except KeyError: pass
def h():
    try: pass
    except: pass
"""
    visitor = _BroadHandlers("m")
    visitor.visit(ast.parse(source))
    assert visitor.found == {"m.f", "m.inner", "m.h"}
