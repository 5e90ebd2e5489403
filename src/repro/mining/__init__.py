"""Mining substrate: vertical views, miners, the registry, rules.

Miners are pluggable: every algorithm is described by one
:class:`~repro.mining.registry.Miner` spec returning the common
:class:`~repro.mining.patterns.PatternSet` model, and consumers
resolve algorithms by name through :func:`resolve_miner` — see
``docs/mining.md``.
"""

from .apriori import FrequentPattern, mine_apriori
from .general import (
    GeneralRule,
    GeneralRuleSet,
    mine_general_rules,
    rules_from_patterns,
)
from .closed import mine_closed, mine_closed_from_view
from .patterns import Pattern, PatternSet, patternset_from_frequent
from .registry import (
    Miner,
    available_miners,
    get_miner,
    mine_patterns,
    miner_names,
    register_miner,
    resolve_miner,
    unregister_miner,
)
from .representative import (
    RepresentativeSelection,
    mine_representative_rules,
    select_representatives,
)
from .rules import ClassRule, RuleSet, generate_rules, mine_class_rules
from .tidsets import VerticalView, build_vertical_view

__all__ = [
    "FrequentPattern",
    "mine_apriori",
    "Miner",
    "Pattern",
    "PatternSet",
    "available_miners",
    "get_miner",
    "mine_patterns",
    "miner_names",
    "patternset_from_frequent",
    "register_miner",
    "resolve_miner",
    "unregister_miner",
    "GeneralRule",
    "GeneralRuleSet",
    "mine_general_rules",
    "rules_from_patterns",
    "RepresentativeSelection",
    "mine_representative_rules",
    "select_representatives",
    "mine_closed",
    "mine_closed_from_view",
    "ClassRule",
    "RuleSet",
    "generate_rules",
    "mine_class_rules",
    "VerticalView",
    "build_vertical_view",
]
