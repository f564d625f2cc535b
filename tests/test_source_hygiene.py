"""Every import is used, and every private and exported name is referenced.

Checked with the standard library's ast, so a refactor cannot leave an
orphaned import, a dead private helper or an exported helper with no caller
behind.  Imports are checked in the modules of src/kronthick, tests and
scripts; private names in src/kronthick; the names in kronthick.__all__
against src/kronthick, scripts and perfbench.  The package's __init__.py is
exempt: it imports in order to re-export.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import kronthick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kronthick"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
# Package modules keep their bare file names as keys; the rest are keyed
# by their path from the repository root.
IMPORTING = {
    **TREES,
    **{p.relative_to(ROOT).as_posix(): ast.parse(p.read_text(encoding="utf-8"))
       for p in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("scripts/*.py")])},
}


def _read_names(tree) -> set[str]:
    """Names the module reads, plus the strings listed in its __all__."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]


def _private_top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            lhs = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [
                n.id for t in lhs for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


@pytest.mark.parametrize("module", sorted(IMPORTING))
def test_every_import_is_used(module):
    tree = IMPORTING[module]
    used = _read_names(tree)
    unused = [f"{module}:{line} {name}" for line, name in _imported_names(tree)
              if name not in used]
    assert unused == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_referenced(module):
    referenced: set[str] = set()
    for tree in TREES.values():
        referenced |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = [f"{module}:{line} {name}"
            for line, name in _private_top_level_names(TREES[module])
            if name not in referenced]
    assert dead == []


# Exported without a caller, and why.  bipartite_factor_split is the only
# use of products.make_complete_bipartite, a binding that perfbench's tracer
# wraps; it stays until the benchmark's tracer no longer needs that binding.
_UNCALLED_EXPORTS = {"bipartite_factor_split"}


def _names_read_outside(tree, name: str) -> set[str]:
    """Names and attributes the tree reads, skipping any def or class called name."""
    read: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name == name:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return read


def test_every_export_has_a_caller():
    callers = list(TREES.values()) + [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")])
    ]
    uncalled = sorted(
        name for name in kronthick.__all__
        if not any(name in _names_read_outside(tree, name) for tree in callers)
    )
    assert uncalled == sorted(_UNCALLED_EXPORTS)
