"""Shared AST helpers for the built-in rules."""

from __future__ import annotations

import ast
from typing import Optional, Set

__all__ = ["dotted_name", "numpy_aliases", "numpy_random_aliases",
           "call_name"]


def dotted_name(node) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's callee, else ``None``."""
    return dotted_name(node.func)


def numpy_aliases(tree) -> Set[str]:
    """Names the module binds to the ``numpy`` package itself."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
                elif alias.name.startswith("numpy.") and alias.asname \
                        is None:
                    # ``import numpy.random`` binds ``numpy``.
                    aliases.add("numpy")
    return aliases


def numpy_random_aliases(tree) -> Set[str]:
    """Names bound to the ``numpy.random`` module."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy.random" and alias.asname:
                    aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy" and node.level == 0:
                for alias in node.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or "random")
    return aliases
