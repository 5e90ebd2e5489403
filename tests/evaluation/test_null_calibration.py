"""Null calibration: the paper's FWER claim, checked on pure noise.

Under the complete null (Fig 6 data: no embedded rule) every reported
rule is a false positive, so a method's family-wise error rate is the
share of datasets on which it reports anything, and FDR equals FWER.
Each FWER- or FDR-controlling method at ``alpha = 0.05`` must report
something on at most about 5% of the datasets. Byte-identity checks
cannot catch a miscalibration that every code path shares; this one
does.

With 200 fixed-seed replicates the count of replicates with any
significant rule is at most Binomial(200, 0.05) for a calibrated
method. The bound is that law's 0.999 quantile, so a calibrated
method fails with probability below 0.001, and the fixed seeds make
the outcome deterministic.
"""

from __future__ import annotations

from math import comb

from repro.data import GeneratorConfig
from repro.evaluation.runner import ExperimentRunner

METHODS = ("BC", "BH", "Perm_FWER", "Perm_FDR", "HD_BC", "HD_BH")
ALPHA = 0.05
N_REPLICATES = 200


def _upper_quantile(n: int, p: float, tail: float) -> int:
    """Smallest ``k`` with ``P(X > k) <= tail`` for X ~ Binomial(n, p)."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += comb(n, k) * p ** k * (1 - p) ** (n - k)
        if 1.0 - cdf <= tail:
            return k
    return n


def test_bound_is_the_binomial_quantile():
    assert _upper_quantile(N_REPLICATES, ALPHA, 0.001) == 21


def test_family_wise_errors_under_the_null_stay_calibrated():
    runner = ExperimentRunner(methods=METHODS, alpha=ALPHA,
                              n_permutations=200)
    config = GeneratorConfig(n_records=400, n_attributes=12, n_rules=0)
    result = runner.run(config, min_sup=20, n_replicates=N_REPLICATES,
                        seed=3)
    bound = _upper_quantile(N_REPLICATES, ALPHA, 0.001)
    errors = {method: sum(1 for record in result.replicates
                          if record.outcomes[method].n_significant > 0)
              for method in METHODS}
    assert all(count <= bound for count in errors.values()), errors
    # Every reported rule is a false positive on these datasets.
    for record in result.replicates:
        for outcome in record.outcomes.values():
            assert outcome.n_false_positives == outcome.n_significant
