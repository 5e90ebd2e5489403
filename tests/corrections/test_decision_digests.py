"""Every registered correction's decision, pinned across commits.

One :class:`~repro.core.pipeline.Pipeline` run of every registered
correction (and every holdout variant) on the shape of CI's
``determinism.csv`` (600 records, 12 attributes, 2 embedded rules,
generator seed 99; min_sup 40, 200 permutations, seed 0). Each
decision is reduced to the sha256 of its ``n_tests``, its threshold
and its sorted significant rules ``(items, class, support, repr(p))``
and compared with ``decision_digests.json``. A refactor that changes
no decision leaves every digest as it is; a deliberate change to a
decision regenerates the file with ``python
tests/corrections/test_decision_digests.py`` and says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.core.pipeline import Pipeline
from repro.corrections.registry import available_corrections
from repro.data import GeneratorConfig, generate

DIGESTS = Path(__file__).with_name("decision_digests.json")


def _methods():
    names = []
    for spec in available_corrections():
        names.extend(spec.variants or (spec.name,))
    return sorted(names)


def decision_digests() -> Dict[str, str]:
    """sha256 of every registered correction's decision."""
    config = GeneratorConfig(
        n_records=600, n_attributes=12, n_rules=2,
        min_coverage=90, max_coverage=120,
        min_confidence=0.8, max_confidence=0.9)
    dataset = generate(config, seed=99).dataset
    result = Pipeline(min_sup=40, corrections=_methods(),
                      n_permutations=200, seed=0).run(dataset)
    digests = {}
    for method, decided in result.results.items():
        rules = sorted((sorted(int(i) for i in rule.items),
                        int(rule.class_index), int(rule.support),
                        repr(float(rule.p_value)))
                       for rule in decided.significant)
        entry = {"n_tests": int(decided.n_tests),
                 "threshold": repr(float(decided.threshold)),
                 "rules": rules}
        digests[method] = hashlib.sha256(
            json.dumps(entry, sort_keys=True).encode()).hexdigest()
    return digests


def test_every_decision_digest_is_unchanged():
    pinned = json.loads(DIGESTS.read_text())
    digests = decision_digests()
    assert sorted(digests) == sorted(pinned)
    changed = [m for m in sorted(pinned) if digests[m] != pinned[m]]
    assert changed == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(decision_digests(), indent=1,
                                  sort_keys=True) + "\n")
