"""RNG discipline rules: the PR-2 determinism contract.

The parallel subsystem guarantees bit-identical results at any worker
count by seeding every work unit from a ``numpy.random.SeedSequence``
spawn tree. Two constructs break that contract at the source level:

* **no-stdlib-rng** — drawing from :mod:`random`. The stdlib
  Fisher–Yates stream cannot be spawned per work unit, so any
  ``random.Random`` in a fan-out path couples results to the schedule.
  ``import random`` alone stays legal (type annotations and
  ``isinstance`` checks need the name) — only *draws* are flagged.
* **no-global-numpy-rng** — calling ``np.random.seed`` / module-level
  draw functions. Process-wide RNG state is invisible shared state;
  pass a ``Generator`` (``np.random.default_rng(seed)``) instead.
"""

from __future__ import annotations

import ast

from ..registry import Rule, register_rule
from ._util import call_name, numpy_aliases, numpy_random_aliases

__all__ = ["NO_STDLIB_RNG", "NO_GLOBAL_NUMPY_RNG"]

#: Entry points of the stdlib RNG: constructors and module-level draws.
_STDLIB_DRAWS = frozenset({
    "Random", "SystemRandom", "seed", "random", "uniform", "randint",
    "randrange", "getrandbits", "randbytes", "shuffle", "sample",
    "choice", "choices", "betavariate", "binomialvariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "paretovariate", "triangular", "vonmisesvariate",
    "weibullvariate",
})

#: ``numpy.random`` attributes that are Generator-era and process-safe
#: to construct anywhere (they hold no hidden global state).
_NUMPY_SAFE = frozenset({
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


def _check_stdlib_rng(tree, ctx):
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    aliases.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                names = ", ".join(a.name for a in node.names)
                yield ctx.finding(
                    "no-stdlib-rng", node,
                    f"'from random import {names}' — the stdlib RNG "
                    "cannot be seeded per work unit; thread a "
                    "numpy.random.Generator from the caller")
    if not aliases:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None or "." not in name:
            continue
        head, _, fn = name.rpartition(".")
        if head in aliases and fn in _STDLIB_DRAWS:
            yield ctx.finding(
                "no-stdlib-rng", node,
                f"call to {name}() — determinism contract (PR 2) "
                "requires numpy.random.Generator "
                "(numpy.random.default_rng(seed)) threaded from the "
                "caller; random.Random survives only in whitelisted "
                "deprecation shims")


def _check_global_numpy_rng(tree, ctx):
    modules = numpy_aliases(tree)
    random_mods = numpy_random_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "numpy.random" and node.level == 0:
                bad = [a.name for a in node.names
                       if a.name not in _NUMPY_SAFE]
                if bad:
                    yield ctx.finding(
                        "no-global-numpy-rng", node,
                        "'from numpy.random import "
                        f"{', '.join(bad)}' draws from the process-"
                        "wide legacy RNG; use default_rng and pass "
                        "the Generator")
            continue
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None or "." not in name:
            continue
        head, _, fn = name.rpartition(".")
        if fn in _NUMPY_SAFE:
            continue
        is_np_random = (head in random_mods
                        or ("." in head
                            and head.rpartition(".")[0] in modules
                            and head.rpartition(".")[2] == "random"))
        if is_np_random:
            yield ctx.finding(
                "no-global-numpy-rng", node,
                f"call to {name}() mutates/draws the process-wide "
                "numpy RNG — worker results would depend on schedule; "
                "use a passed numpy.random.Generator")


NO_STDLIB_RNG = register_rule(Rule(
    name="no-stdlib-rng",
    check_fn=_check_stdlib_rng,
    aliases=("stdlib-rng", "no-random-random"),
    description="ban stdlib random draws (random.Random, "
                "random.shuffle, ...) outside tests, benchmarks and "
                "examples",
    invariant="bit-identical output at any worker count (PR 2): every "
              "stochastic step draws from a numpy Generator seeded "
              "per work unit via SeedSequence.spawn",
    # Tests and benchmarks use the stdlib RNG as an oracle. The
    # remaining streams in src/ (dataset generators, the random
    # holdout split, frequency resampling) sit in the baseline.
    exclude=("tests/*", "benchmarks/*", "examples/*"),
))

NO_GLOBAL_NUMPY_RNG = register_rule(Rule(
    name="no-global-numpy-rng",
    check_fn=_check_global_numpy_rng,
    aliases=("global-numpy-rng", "no-np-random-seed"),
    description="ban the legacy process-wide numpy RNG "
                "(np.random.seed/shuffle/...); pass a Generator",
    invariant="bit-identical output at any worker count (PR 2): "
              "process-wide RNG state is schedule-dependent in any "
              "thread fan-out",
    exclude=("tests/*", "benchmarks/*", "examples/*"),
))
