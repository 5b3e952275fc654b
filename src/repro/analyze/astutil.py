"""Shared AST helpers for the code-analysis rule decks.

Everything here is stdlib-``ast`` only.  The helpers solve the three
problems every deck shares:

* *name normalization* -- ``import numpy as np`` must make
  ``np.random.rand`` comparable against ``numpy.random.rand``
  (:class:`ImportMap` + :func:`qualname`);
* *scope attribution* -- violations are reported against the enclosing
  function/class (``repro/core/cache.py::DesignCache.get_or_run``), which stays
  stable across edits, unlike line numbers (:func:`scope_map`);
* *literal extraction* -- span/metric names appear as plain string
  constants, as ``IfExp`` branches of constants, or as f-strings with a
  literal prefix (:func:`literal_names`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple


def qualname(node: ast.AST) -> Optional[str]:
    """Dotted name of a ``Name``/``Attribute`` chain, else ``None``.

    ``np.random.rand`` -> ``"np.random.rand"``; anything containing a
    call, subscript or literal yields ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Alias -> canonical dotted module/name map for one module.

    Built from the module's top-level (and function-local) import
    statements so rules can normalize ``np.random.rand`` to
    ``numpy.random.rand`` and ``from random import shuffle`` to
    ``random.shuffle``.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    self.aliases[a.asname or a.name.split(".")[0]] = \
                        a.name if a.asname else a.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for a in node.names:
                    if a.name == "*":
                        continue
                    self.aliases[a.asname or a.name] = \
                        f"{node.module}.{a.name}"

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Canonical form of a dotted name under this module's aliases."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        canonical = self.aliases.get(head, head)
        return f"{canonical}.{rest}" if rest else canonical

    def call_target(self, call: ast.Call) -> Optional[str]:
        """Canonical dotted name of a call's callee, if resolvable."""
        return self.resolve(qualname(call.func))


def scope_map(tree: ast.AST) -> Dict[ast.AST, str]:
    """Node -> enclosing scope qualname (``"<module>"`` at top level)."""
    scopes: Dict[ast.AST, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_scope = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                child_scope = (child.name if scope == "<module>"
                               else f"{scope}.{child.name}")
            scopes[child] = child_scope
            visit(child, child_scope)

    scopes[tree] = "<module>"
    visit(tree, "<module>")
    return scopes


def iter_functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    """Every (sync) function definition in the module, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node


def literal_names(node: ast.AST) -> Tuple[List[str], Optional[str]]:
    """Possible literal string values of a name expression.

    Returns ``(literals, dynamic_prefix)``:

    * a plain string constant yields ``(["x"], None)``;
    * an ``IfExp``/``BoolOp`` over constants yields every branch;
    * an f-string yields ``([], "literal.prefix.")`` -- the longest
      leading run of constant parts;
    * anything else (a bare variable, a call) yields ``([], None)``.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value], None
    if isinstance(node, ast.IfExp):
        body, _ = literal_names(node.body)
        orelse, _ = literal_names(node.orelse)
        if body and orelse:
            return body + orelse, None
        return [], None
    if isinstance(node, ast.JoinedStr):
        prefix_parts: List[str] = []
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value,
                                                            str):
                prefix_parts.append(part.value)
            else:
                break
        return [], "".join(prefix_parts)
    return [], None


def decorator_call(node: ast.FunctionDef, name: str,
                   imports: ImportMap) -> Optional[ast.Call]:
    """The decorator ``@name(...)`` applied to this function, if any.

    Matches both the bare name and any dotted path ending in it
    (``@experiment(...)`` / ``@experiments.experiment(...)``).
    """
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        target = imports.resolve(qualname(dec.func))
        if target is not None and (target == name
                                   or target.endswith(f".{name}")):
            return dec
    return None


def first_str_arg(call: ast.Call) -> Optional[str]:
    """The call's first positional argument when it is a str literal."""
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


def contains_name(node: ast.AST, name: str) -> bool:
    """Does the expression tree mention ``Name(name)`` anywhere?"""
    return any(isinstance(n, ast.Name) and n.id == name
               for n in ast.walk(node))


def keyword_arg(call: ast.Call, name: str) -> Optional[ast.expr]:
    """The value of keyword argument ``name``, if present."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None
