"""Shared types for multiple-testing-correction procedures (Section 4).

Every correction procedure in this package produces a
:class:`CorrectionResult`: the set of rules declared statistically
significant, the raw-p-value cut-off that decision corresponds to, and
method-specific diagnostics. The cut-off is what the Section 5.2
false-positive analysis needs (``p(R|¬Rt) <= alpha`` uses the *method's*
threshold, not the nominal 0.05).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import CorrectionError
from ..jsonio import json_safe
from ..mining.rules import ClassRule

__all__ = ["CorrectionResult", "RESULT_SCHEMA_VERSION", "validate_alpha",
           "FWER", "FDR", "NONE"]

FWER = "fwer"
FDR = "fdr"
NONE = "none"

#: Version stamp of the :meth:`CorrectionResult.to_json` document
#: shape; persisted artifacts (the service's result cache) refuse to
#: load under a different version rather than misread fields.
RESULT_SCHEMA_VERSION = 1


def validate_alpha(alpha: float) -> None:
    """Reject nonsensical significance levels early."""
    if not 0.0 < alpha < 1.0:
        raise CorrectionError(f"alpha must be in (0, 1), got {alpha}")


@dataclass
class CorrectionResult:
    """Outcome of applying one correction procedure.

    Attributes
    ----------
    method:
        Table 3 abbreviation (``"BC"``, ``"BH"``, ``"Perm_FWER"``, ...).
    control:
        Which error measure the method controls: ``"fwer"``, ``"fdr"``
        or ``"none"``.
    alpha:
        Nominal error level requested by the caller.
    threshold:
        The raw p-value cut-off the decision is equivalent to: a rule
        was declared significant iff its (original-data) p-value is at
        most this. For step-up procedures this is the largest accepted
        p-value (0 when nothing is accepted).
    significant:
        Rules declared statistically significant. For holdout methods
        these carry the rule's statistics on the *evaluation* half.
    n_tests:
        The multiple-testing denominator ``Nt`` the method used.
    details:
        Method-specific diagnostics (e.g. permutation min-p quantiles,
        holdout candidate counts) for reports and benches.
    """

    method: str
    control: str
    alpha: float
    threshold: float
    significant: List[ClassRule]
    n_tests: int
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def n_significant(self) -> int:
        """Number of rules declared significant."""
        return len(self.significant)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.method}: {self.n_significant} significant rules "
                f"(alpha={self.alpha:g}, control={self.control}, "
                f"threshold={self.threshold:.3g}, n_tests={self.n_tests})")

    def to_json(self) -> Dict[str, object]:
        """Plain-JSON document of this result, versioned.

        The significant rules serialize losslessly (floats render as
        shortest round-trip ``repr``), so a
        :func:`~repro.evaluation.export.rules_to_csv` of the
        round-tripped rules is byte-identical to one of the originals.
        ``details`` entries that are not JSON-serializable are dropped
        (they are diagnostics, not part of the decision).
        """
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "method": self.method,
            "control": self.control,
            "alpha": float(self.alpha),
            "threshold": float(self.threshold),
            "n_tests": self.n_tests,
            "significant": [rule.to_json() for rule in self.significant],
            "details": json_safe(self.details),
        }

    @classmethod
    def from_json(cls, payload) -> "CorrectionResult":
        """Rebuild a result from :meth:`to_json` output.

        Raises :class:`CorrectionError` on a missing or unsupported
        ``schema_version``.
        """
        version = payload.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise CorrectionError(
                f"cannot read CorrectionResult JSON with schema_version "
                f"{version!r}; this library writes/reads version "
                f"{RESULT_SCHEMA_VERSION}")
        return cls(
            method=str(payload["method"]),
            control=str(payload["control"]),
            alpha=float(payload["alpha"]),
            threshold=float(payload["threshold"]),
            significant=[ClassRule.from_json(rule)
                         for rule in payload["significant"]],
            n_tests=int(payload["n_tests"]),
            details=dict(payload.get("details") or {}),
        )


def select_by_threshold(rules: List[ClassRule],
                        threshold: float) -> List[ClassRule]:
    """Rules with ``p <= threshold``, preserving input order."""
    return [rule for rule in rules if rule.p_value <= threshold]


def bh_step_up(p_values: List[float], alpha: float,
               n_tests: Optional[int] = None) -> float:
    """Benjamini–Hochberg step-up: return the raw-p acceptance cut-off.

    Sorts the p-values ascending, finds the largest index ``k`` (1-based)
    with ``p_k <= k * alpha / n``, and returns ``p_k`` (or 0.0 when no
    index qualifies). ``n_tests`` defaults to ``len(p_values)`` but may
    be larger when some hypotheses were tested yet not scored.
    """
    validate_alpha(alpha)
    n = n_tests if n_tests is not None else len(p_values)
    if n <= 0 or not p_values:
        return 0.0
    if len(p_values) > n:
        raise CorrectionError(
            f"{len(p_values)} p-values but n_tests={n}")
    ordered = np.sort(np.asarray(p_values, dtype=np.float64))
    # Cross-multiplied form of ``p <= i * alpha / n``: one rounded
    # product per side, so boundary ties (p exactly at its critical
    # value) are decided exactly instead of losing an ulp to the
    # division.
    passed = np.flatnonzero(
        ordered * n <= np.arange(1, len(ordered) + 1) * alpha)
    return float(ordered[passed[-1]]) if len(passed) else 0.0
