"""Output-determinism rules: the PR-2 byte-identity contract.

CSV and report output is locked byte-identical across worker counts,
backends and kernels. Two source-level hazards repeatedly
threatened that lock:

* **float-equality-in-stats** — ``==``/``!=`` between float
  expressions under ``repro/stats/``. PR 2 fixed two property-test
  oracles that broke exactly at ulp boundaries; exact comparison of
  computed floats encodes the same trap in library code. Compare with
  tolerances, or compare the *integer* inputs instead.
* **unordered-iteration-to-output** — iterating a bare ``set`` /
  ``frozenset`` in the modules that render CSVs and reports. Set
  order depends on ``PYTHONHASHSEED`` for strings, so unsorted
  iteration leaks hash randomisation straight into committed output;
  wrap in ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import List, Set

from ..registry import Rule, register_rule
from ._util import call_name

__all__ = ["FLOAT_EQUALITY_IN_STATS", "UNORDERED_ITERATION_TO_OUTPUT"]


def _floatish(node) -> bool:
    """Syntactically float-valued: literal, division, float()/math.*."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _floatish(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _floatish(node.left) or _floatish(node.right)
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name is None:
            return False
        return name == "float" or name.startswith("math.")
    return False


def _check_float_equality(tree, ctx):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _floatish(left) or _floatish(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield ctx.finding(
                    "float-equality-in-stats", node,
                    f"exact float {symbol} in stats code — the PR-2 "
                    "ulp-boundary bug class; use math.isclose/"
                    "tolerances or compare the integer inputs")
                break


_SET_FACTORIES = frozenset({"set", "frozenset"})
#: Order-insensitive consumers a bare set may legally flow into.
_ORDER_FREE = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all", "set",
    "frozenset", "bool",
})


def _is_set_expr(node, tracked: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return call_name(node) in _SET_FACTORIES
    if isinstance(node, ast.Name):
        return node.id in tracked
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
        # Set algebra keeps set-ness on either side.
        return (_is_set_expr(node.left, tracked)
                or _is_set_expr(node.right, tracked))
    return False


class _SetFlow:
    """Per-scope scan: sets consumed by order-sensitive iteration."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.findings: List = []

    def scan_scope(self, body) -> None:
        tracked: Set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            if _is_set_expr(node.value, tracked):
                                tracked.add(target.id)
                            else:
                                tracked.discard(target.id)
        for stmt in body:
            for node in ast.walk(stmt):
                self._check_consumption(node, tracked)

    def _flag(self, node, how: str) -> None:
        self.findings.append(self.ctx.finding(
            "unordered-iteration-to-output", node,
            f"{how} over a bare set in an output-rendering module — "
            "set order leaks PYTHONHASHSEED into CSVs/reports; wrap "
            "in sorted(...)"))

    def _check_consumption(self, node, tracked: Set[str]) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter, tracked):
                self._flag(node, "for-loop")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter, tracked):
                    self._flag(node, "comprehension")
        elif isinstance(node, ast.Call):
            name = call_name(node)
            consumer = None
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "join":
                consumer = "str.join"
            elif name in ("list", "tuple", "enumerate", "iter",
                          "reversed"):
                consumer = f"{name}()"
            if consumer and node.args and _is_set_expr(node.args[0],
                                                       tracked):
                self._flag(node, consumer)


def _check_unordered_iteration(tree, ctx):
    flow = _SetFlow(ctx)
    flow.scan_scope(tree.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            flow.scan_scope(node.body)
    return flow.findings


FLOAT_EQUALITY_IN_STATS = register_rule(Rule(
    name="float-equality-in-stats",
    check_fn=_check_float_equality,
    aliases=("float-eq", "no-float-equality"),
    description="ban exact ==/!= between float expressions in the "
                "statistics layer",
    invariant="byte-identical CSVs at any worker count (PR 2): two "
              "ulp-boundary oracle bugs came from exact float "
              "comparison",
    paths=("repro/stats/*",),
))

UNORDERED_ITERATION_TO_OUTPUT = register_rule(Rule(
    name="unordered-iteration-to-output",
    check_fn=_check_unordered_iteration,
    aliases=("unordered-output", "no-set-iteration"),
    description="iteration over bare sets in output-rendering modules "
                "must be sorted()",
    invariant="byte-identical CSVs/reports (PR 2): set order depends "
              "on PYTHONHASHSEED for strings",
    paths=(
        "repro/evaluation/reporting.py", "repro/evaluation/export.py",
        "repro/data/summary.py", "repro/cli.py",
        # The service renders API payloads and cache keys; unordered
        # iteration there would break cached-vs-fresh byte identity.
        "repro/service/*",
    ),
))
