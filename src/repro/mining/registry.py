"""The pluggable miner registry.

The mining layer is the other half of the paper's
mine-once-correct-many design: enumerate a hypothesis set once, then
hand it to any number of correction procedures. This registry makes
that half pluggable the same way :mod:`repro.corrections.registry`
made the corrections pluggable — every miner the library ships is
described by one :class:`Miner` spec (canonical name, aliases,
capability tags, a uniform ``mine`` entry point returning a
:class:`~repro.mining.patterns.PatternSet`), and downstream code (the
pipeline, the experiment runner, the holdout split, the CLI)
enumerates and resolves miners exclusively through it:

>>> from repro.mining.registry import Miner, register_miner
>>> from repro.mining.patterns import patternset_from_frequent
>>> def mine_pairs(item_tidsets, n_records, min_sup, max_length,
...                **opts):                          # doctest: +SKIP
...     from repro.mining import mine_apriori
...     pairs = [p for p in mine_apriori(item_tidsets, n_records,
...                                      min_sup, max_length=2)
...              if p.length == 2]
...     return patternset_from_frequent(pairs, n_records, min_sup)
>>> register_miner(Miner(                            # doctest: +SKIP
...     name="pairs-only", capabilities=("all-frequent",),
...     mine_fn=mine_pairs))

Name resolution accepts the canonical identifier (``"apriori"``),
any registered alias (``"levelwise"``), and case-insensitive variants
of both; unknown names get the full valid list plus a did-you-mean
suggestion — the same ergonomics as the correction registry, so
``--algorithm`` behaves exactly like ``--correction`` at the CLI.

Capability tags are how consumers state requirements without naming
implementations: ``"closed"`` (one pattern per distinct tidset),
``"all-frequent"`` (the complete frequent set — what the Section 7
closed-vs-all hypothesis-count ablation compares against),
``"representative"`` (Section 7 redundancy reduction applied),
``"emits-rules"`` (the miner also scores non-class rules and ships
them in the pattern set's provenance). Out-of-tree miners may add
their own tags.
"""

from __future__ import annotations

import difflib
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import MiningError
from .apriori import mine_apriori
from .closed import mine_closed
from .general import rules_from_patterns
from .patterns import PatternSet, patternset_from_frequent
from .representative import reduce_patterns

__all__ = [
    "Miner",
    "available_miners",
    "get_miner",
    "mine_patterns",
    "miner_names",
    "register_miner",
    "resolve_miner",
    "unregister_miner",
]

#: Signature of a miner's mine callable:
#: ``mine_fn(item_tidsets, n_records, min_sup, max_length, **opts)``.
MineFn = Callable[..., PatternSet]


@dataclass(frozen=True)
class Miner:
    """One registered pattern miner.

    Attributes
    ----------
    name:
        Canonical identifier (``"closed"``), the key the public API
        uses.
    mine_fn:
        ``mine_fn(item_tidsets, n_records, min_sup, max_length,
        **opts) -> PatternSet``. Call through :meth:`mine`, which
        unpacks a dataset view and stamps provenance.
    aliases:
        Additional resolvable spellings (all names resolve
        case-insensitively on top of these).
    capabilities:
        Capability tags (``"closed"``, ``"all-frequent"``,
        ``"representative"``, ``"emits-rules"``, or custom); consumers
        gate on tags, never on names.
    description:
        One-line summary for listings.
    """

    name: str
    mine_fn: MineFn
    aliases: Tuple[str, ...] = ()
    capabilities: Tuple[str, ...] = ()
    description: str = ""

    def mine(self, dataset_view, min_sup: int,
             max_length: Optional[int] = None, **opts) -> PatternSet:
        """Mine ``dataset_view`` and return a provenance-stamped
        :class:`PatternSet`.

        ``dataset_view`` is anything exposing ``item_tidsets`` and
        ``n_records`` — a :class:`~repro.data.dataset.Dataset`, either
        half of a holdout split, or a purpose-built view.
        """
        item_tidsets = getattr(dataset_view, "item_tidsets", None)
        n_records = getattr(dataset_view, "n_records", None)
        if item_tidsets is None or n_records is None:
            raise MiningError(
                f"miner {self.name!r} needs a dataset view exposing "
                f"item_tidsets and n_records; got "
                f"{type(dataset_view).__name__}")
        pattern_set = self.mine_fn(item_tidsets, n_records, min_sup,
                                   max_length, **opts)
        pattern_set.algorithm = self.name
        pattern_set.provenance.setdefault("capabilities",
                                          self.capabilities)
        if max_length is not None:
            pattern_set.provenance.setdefault("max_length", max_length)
        if opts:
            pattern_set.provenance.setdefault("options", dict(opts))
        return pattern_set

    def has_capability(self, tag: str) -> bool:
        """Whether this miner advertises the capability ``tag``."""
        return tag in self.capabilities

    def all_names(self) -> Tuple[str, ...]:
        """Every spelling this miner answers to."""
        return (self.name,) + tuple(self.aliases)


_REGISTRY: Dict[str, Miner] = {}
# Lookup table: lower-cased spelling -> canonical name.
_INDEX: Dict[str, str] = {}
# Serializes register/unregister. Re-entrant: an overwrite calls the
# unregister function while holding it.
_LOCK = threading.RLock()


def register_miner(spec: Miner, overwrite: bool = False) -> Miner:
    """Add a miner to the registry and return it.

    Every spelling in ``spec.all_names()`` becomes resolvable
    (case-insensitively). Registering a name or alias that collides
    with an existing registration raises :class:`MiningError` unless
    ``overwrite=True``, in which case the previous owner of the
    canonical name is replaced wholesale.
    """
    if not spec.name:
        raise MiningError("miner name must be non-empty")
    if not callable(spec.mine_fn):
        raise MiningError(
            f"miner {spec.name!r} needs a callable mine_fn")
    with _LOCK:
        # Collision check BEFORE any mutation, so a rejected overwrite
        # leaves the previous registration fully intact. Spellings
        # owned by the spec being replaced don't count as collisions;
        # only a *canonical*-name match is a replacement target (an
        # alias clash is a collision — deleting the alias's owner
        # wholesale would be far more than the caller asked for).
        replaced = None
        if overwrite:
            hit = _INDEX.get(spec.name.lower())
            if hit is not None and hit.lower() == spec.name.lower():
                replaced = _REGISTRY[hit]
        replaced_name = getattr(replaced, "name", None)
        taken = [spelling for spelling in spec.all_names()
                 if spelling.lower() in _INDEX
                 and _INDEX[spelling.lower()] != replaced_name]
        if taken:
            raise MiningError(
                f"cannot register miner {spec.name!r}: "
                f"name(s) {sorted(set(taken))} already registered")
        if replaced is not None:
            unregister_miner(replaced.name)
        _REGISTRY[spec.name] = spec
        for spelling in spec.all_names():
            _INDEX[spelling.lower()] = spec.name
    return spec


def unregister_miner(name: str) -> None:
    """Remove a miner (by any of its spellings) from the registry."""
    with _LOCK:
        canonical = _INDEX.get(name.lower())
        if canonical is None:
            raise MiningError(f"unknown miner {name!r}")
        spec = _REGISTRY.pop(canonical)
        for spelling in spec.all_names():
            _INDEX.pop(spelling.lower(), None)


def resolve_miner(name: str) -> Miner:
    """Resolve any accepted spelling to its registered miner.

    Raises :class:`MiningError` listing the valid names (canonical
    names and aliases) and a did-you-mean suggestion for near-miss
    spellings.
    """
    if not isinstance(name, str):
        raise MiningError(
            f"miner name must be a string, got {type(name).__name__}")
    canonical = _INDEX.get(name.lower())
    if canonical is None:
        raise MiningError(_unknown_message(name))
    return _REGISTRY[canonical]


def get_miner(name: str) -> Miner:
    """Alias of :func:`resolve_miner`, mirroring
    :func:`repro.corrections.registry.get_correction`."""
    return resolve_miner(name)


def available_miners() -> List[Miner]:
    """All registered miners, in registration order."""
    return list(_REGISTRY.values())


def miner_names() -> List[str]:
    """Canonical names of all registered miners, sorted."""
    return sorted(_REGISTRY)


def mine_patterns(dataset_view, min_sup: int,
                  algorithm: str = "closed",
                  max_length: Optional[int] = None,
                  **opts) -> PatternSet:
    """Mine ``dataset_view`` with the named registered miner."""
    return resolve_miner(algorithm).mine(dataset_view, min_sup,
                                         max_length=max_length, **opts)


def _accepted_spellings() -> List[str]:
    seen: List[str] = []
    for spec in _REGISTRY.values():
        for spelling in spec.all_names():
            if spelling not in seen:
                seen.append(spelling)
    return seen


def _unknown_message(name: str) -> str:
    spellings = _accepted_spellings()
    message = (f"unknown miner {name!r}; valid algorithms: "
               f"{sorted(spellings, key=str.lower)}")
    close = difflib.get_close_matches(
        name.lower(), [s.lower() for s in spellings], n=1, cutoff=0.6)
    if close:
        # Report the original casing of the matched spelling.
        original = next(s for s in spellings if s.lower() == close[0])
        message += f" — did you mean {original!r}?"
    return message


# ----------------------------------------------------------------------
# built-in miners
# ----------------------------------------------------------------------


def _mine_closed_set(item_tidsets, n_records, min_sup, max_length,
                     item_order: str = "support-ascending") -> PatternSet:
    return mine_closed(item_tidsets, n_records, min_sup,
                       max_length=max_length, item_order=item_order)


def _mine_apriori_set(item_tidsets, n_records, min_sup,
                      max_length) -> PatternSet:
    patterns = mine_apriori(item_tidsets, n_records, min_sup,
                            max_length=max_length)
    return patternset_from_frequent(patterns, n_records, min_sup)


def _mine_representative_set(item_tidsets, n_records, min_sup,
                             max_length, delta: float = 0.1,
                             ) -> PatternSet:
    patterns = mine_closed(item_tidsets, n_records, min_sup,
                           max_length=max_length)
    reduced = reduce_patterns(patterns, delta=delta)
    reduced.provenance.update(delta=delta, n_closed=len(patterns))
    return reduced


def _mine_general_set(item_tidsets, n_records, min_sup, max_length,
                      min_conf: float = 0.0,
                      max_consequent: int = 1) -> PatternSet:
    frequent = mine_apriori(item_tidsets, n_records, min_sup,
                            max_length=max_length)
    pattern_set = patternset_from_frequent(frequent, n_records, min_sup)
    pattern_set.provenance["general_rules"] = rules_from_patterns(
        frequent, n_records, min_sup, min_conf=min_conf,
        max_consequent=max_consequent)
    return pattern_set


register_miner(Miner(
    name="closed",
    mine_fn=_mine_closed_set,
    aliases=("lcm",),
    capabilities=("closed",),
    description="LCM-style closed frequent patterns (Section 3; the "
                "paper's hypothesis set and the pipeline default)"))

register_miner(Miner(
    name="apriori",
    mine_fn=_mine_apriori_set,
    aliases=("levelwise", "all"),
    capabilities=("all-frequent",),
    description="level-wise all-frequent baseline (the 'all patterns' "
                "arm of the Section 7 hypothesis-count ablation)"))

register_miner(Miner(
    name="representative",
    mine_fn=_mine_representative_set,
    aliases=("reduced",),
    capabilities=("closed", "representative"),
    description="closed patterns with the Section 7 near-duplicate "
                "chain reduction (opts: delta, default 0.1)"))

register_miner(Miner(
    name="general-rules",
    mine_fn=_mine_general_set,
    aliases=("general", "market-basket"),
    capabilities=("all-frequent", "emits-rules"),
    description="Apriori patterns plus scored X => Y association "
                "rules in provenance['general_rules'] (opts: "
                "min_conf, max_consequent)"))
