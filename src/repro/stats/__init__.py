"""Statistics substrate: exact tests, p-value buffers and tables."""

from .chi2 import chi2_rule_p_value, chi2_sf, chi2_statistic, chi2_test
from .fisher import (
    fisher_two_tailed,
    fisher_two_tailed_midp,
    min_attainable_p_value,
)
from .hypergeom import log_pmf, mean, mode, pmf, pmf_table, support_bounds
from .logfact import LogFactorialBuffer, default_buffer, log_binomial
from .power import (
    detection_power,
    deterministic_detection,
    min_detectable_confidence,
    min_detectable_support,
    min_testable_coverage,
    power_curve,
)
from .pvalue_buffer import PValueBuffer
from .pvalue_scalar import RELATIVE_TIE_TOLERANCE
from .pvalue_tables import PValueTables
from .sequential import (
    SequentialResult,
    sequential_p_value,
    sequential_rule_p_value,
)

__all__ = [
    "chi2_rule_p_value",
    "chi2_sf",
    "chi2_statistic",
    "chi2_test",
    "fisher_two_tailed",
    "fisher_two_tailed_midp",
    "min_attainable_p_value",
    "log_pmf",
    "mean",
    "mode",
    "pmf",
    "pmf_table",
    "support_bounds",
    "LogFactorialBuffer",
    "default_buffer",
    "log_binomial",
    "RELATIVE_TIE_TOLERANCE",
    "PValueBuffer",
    "PValueTables",
    "detection_power",
    "deterministic_detection",
    "min_detectable_confidence",
    "min_detectable_support",
    "min_testable_coverage",
    "power_curve",
    "SequentialResult",
    "sequential_p_value",
    "sequential_rule_p_value",
]
