"""Packed-substrate rules: the PR-4/PR-5 representation contract.

The packed uint64 :class:`~repro.tidvector.TidVector` arena is the one
record-set representation. One rule guards its word kernels:

* **uint64-dtype-promotion** — arithmetic between packed uint64 words
  and non-uint64 numpy operands silently promotes dtype (true division
  always lands in float64; mixing with signed arrays promotes or
  errors depending on the numpy version), corrupting word-level
  kernels that assume exact 64-bit popcount semantics. Bitwise ops
  and Python-int scalars (weak promotion) stay legal.
"""

from __future__ import annotations

import ast
from typing import Set

from ..registry import Rule, register_rule
from ._util import call_name, dotted_name, numpy_aliases

__all__ = ["UINT64_DTYPE_PROMOTION"]


_UINT64_SPELLINGS = frozenset({"uint64", "u8"})
_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
              ast.Mod, ast.Pow)
_BITWISE_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift,
                ast.RShift)


def _is_uint64_dtype(node, np_mods: Set[str]) -> bool:
    """``np.uint64`` / ``"uint64"`` as a dtype expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in _UINT64_SPELLINGS
    name = dotted_name(node)
    if name is None:
        return False
    head, _, attr = name.rpartition(".")
    return attr == "uint64" and (head in np_mods or head == "")


class _Uint64Scope:
    """Per-function tracking of names known to hold uint64 arrays."""

    def __init__(self, np_mods: Set[str]) -> None:
        self.np_mods = np_mods
        self.names: Set[str] = set()

    def is_uint64(self, node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Subscript):
            return self.is_uint64(node.value)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, _BITWISE_OPS):
            return (self.is_uint64(node.left)
                    or self.is_uint64(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(
                node.op, ast.Invert):
            return self.is_uint64(node.operand)
        if isinstance(node, ast.Call):
            return self._uint64_call(node)
        return False

    def _uint64_call(self, node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_uint64_dtype(kw.value,
                                                      self.np_mods):
                return True
        name = call_name(node)
        if name is None:
            return False
        head, _, fn = name.rpartition(".")
        if fn in ("astype", "view") and node.args:
            return _is_uint64_dtype(node.args[0], self.np_mods)
        if fn == "uint64" and (head in self.np_mods or head == ""):
            return True
        return False

    def observe(self, stmt) -> None:
        """Record ``name = <uint64-typed expr>`` assignments."""
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            return
        if not self.is_uint64(value):
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.names.add(target.id)


def _is_numpy_operand(node, np_mods: Set[str]) -> bool:
    """An expression that clearly carries a non-weak numpy dtype."""
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name is None:
            return False
        head = name.split(".", 1)[0]
        return head in np_mods
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        # Negative operands cannot live in uint64; the result wraps or
        # promotes depending on numpy version.
        return True
    return False


def _check_uint64_promotion(tree, ctx):
    np_mods = numpy_aliases(tree)
    if not np_mods:
        return
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        scope = _Uint64Scope(np_mods)
        for stmt in ast.walk(func):
            scope.observe(stmt)
        if not scope.names:
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, _ARITH_OPS)):
                continue
            left_u = scope.is_uint64(node.left)
            right_u = scope.is_uint64(node.right)
            if not (left_u or right_u):
                continue
            if isinstance(node.op, ast.Div):
                yield ctx.finding(
                    "uint64-dtype-promotion", node,
                    "true division on uint64 packed words promotes to "
                    "float64; use // or cast explicitly before "
                    "dividing")
                continue
            other = node.right if left_u else node.left
            if (not (left_u and right_u)
                    and _is_numpy_operand(other, np_mods)
                    and not scope.is_uint64(other)):
                yield ctx.finding(
                    "uint64-dtype-promotion", node,
                    "arithmetic between uint64 packed words and a "
                    "non-uint64 numpy operand silently promotes "
                    "dtype; cast with np.uint64(...)/astype or keep "
                    "to bitwise ops")


UINT64_DTYPE_PROMOTION = register_rule(Rule(
    name="uint64-dtype-promotion",
    check_fn=_check_uint64_promotion,
    aliases=("uint64-promotion", "packed-dtype"),
    description="flag arithmetic on packed uint64 words that silently "
                "promotes dtype (float64 division, signed mixing)",
    invariant="packed-kernel exactness (PR 4): word buffers stay "
              "uint64 through every kernel; promotion corrupts "
              "popcount semantics",
    paths=(
        "repro/tidvector.py", "repro/bitmat.py", "repro/_native.py",
        "repro/mining/tidsets.py", "repro/data/dataset.py",
    ),
))
