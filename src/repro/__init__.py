"""repro — reproduction of *Controlling False Positives in Association
Rule Mining* (Liu, Zhang, Wong; PVLDB 5(2), VLDB 2011).

Statistically sound class association rule mining: closed frequent
pattern mining, exact-test scoring, and three families of multiple
testing correction (direct adjustment, permutation-based, holdout).

Quickstart
----------
One correction, one call — any registered spelling works (canonical
name, Table 3 abbreviation, or alias):

>>> from repro import mine_significant_rules
>>> from repro.data import make_german
>>> report = mine_significant_rules(make_german(), min_sup=60,
...                                 correction="BH", alpha=0.05)
>>> len(report.significant) <= report.n_tested
True

Several corrections against one mining pass — the composable
:class:`Pipeline` shares the mined ruleset, the permutation pass and
the holdout split across methods:

>>> from repro import Pipeline
>>> pipe = Pipeline(min_sup=60,
...                 corrections=("bonferroni", "BH", "holdout-fdr"),
...                 seed=0)
>>> result = pipe.run(make_german())
>>> sorted(result.results)
['BH', 'bonferroni', 'holdout-fdr']
>>> result["BH"].n_significant >= result["bonferroni"].n_significant
True

The mining side is pluggable too: the pipeline's Mine stage resolves
``algorithm=`` through the miner registry, so the closed-vs-all
hypothesis-count ablation (Section 7) is one keyword away:

>>> pipe = Pipeline(min_sup=60, corrections=("bonferroni",),
...                 algorithm="apriori")
>>> all_patterns = pipe.run(make_german())
>>> from repro import available_miners
>>> "closed" in {m.name for m in available_miners()}
True

Corrections are pluggable: registering a :class:`Correction` makes it
usable everywhere — the miner, the pipeline, the experiment runner and
the CLI (via ``--plugin`` / ``REPRO_PLUGINS``):

>>> from repro import Correction, register_correction
>>> from repro.corrections import bonferroni
>>> spec = register_correction(Correction(
...     name="half-bonferroni", abbreviation="BC/2", family="fwer",
...     apply_fn=lambda rs, alpha, ctx: bonferroni(rs, alpha / 2)))
>>> mine_significant_rules(make_german(), min_sup=60,
...     correction="half-bonferroni").result.method
'BC'
>>> from repro.corrections import unregister_correction
>>> unregister_correction("half-bonferroni")

Subpackages
-----------
``repro.data``
    Datasets, item encoding, loaders, discretization, synthetic and
    simulated-UCI generators.
``repro.mining``
    Closed frequent pattern mining, the Apriori all-frequent baseline,
    rule generation.
``repro.stats``
    Log-factorial buffer, hypergeometric distribution, Fisher exact and
    chi-square tests, p-value buffers and tables.
``repro.corrections``
    Bonferroni, Benjamini–Hochberg, permutation FWER/FDR, holdout,
    layered critical values; stepwise (Holm/Hochberg/Šidák), adaptive
    FDR (Storey, BKY) and Westfall–Young step-down extensions.
``repro.interest``
    Objective interestingness measures (lift, leverage, conviction,
    ...), rule ranking and measure-agreement analysis.
``repro.evaluation``
    Planted-rule ground truth, power/FWER/FDR metrics, replicated
    experiment runner, report formatting.
``repro.classify``
    Associative classification (CBA rule lists, CMAR weighted voting,
    CPAR greedy FOIL induction) with correction-filtered rule bases
    and cross-validation.
``repro.contrast``
    STUCCO contrast-set mining with layered Bonferroni control.
``repro.frequency``
    Frequency-significance of patterns: Megiddo-Srikant resampling
    calibration and Kirsch et al.'s support threshold ``s*``.
``repro.parallel``
    Shared parallel execution: pluggable serial/threads/processes
    backends behind one ``Executor.map_shards`` interface, with
    deterministic shard seeding (bit-identical results at any worker
    count).
"""

from .core import (
    CORRECTIONS,
    MiningReport,
    Pipeline,
    PipelineContext,
    PipelineResult,
    SignificantRuleMiner,
    mine_significant_rules,
)
from .corrections.registry import (
    Correction,
    available_corrections,
    register_correction,
    resolve_correction,
)
from .bitmat import BitMatrix
from .tidvector import TidVector, as_tidvector
from .mining.patterns import Pattern, PatternSet
from .mining.registry import (
    Miner,
    available_miners,
    register_miner,
    resolve_miner,
)
from .errors import (
    CorrectionError,
    DataError,
    EvaluationError,
    LoaderError,
    MiningError,
    ReproError,
    StatsError,
)
from .parallel import Executor, WorkerError, get_executor

__version__ = "1.0.0"

__all__ = [
    "BitMatrix",
    "CORRECTIONS",
    "TidVector",
    "as_tidvector",
    "Correction",
    "Executor",
    "Miner",
    "MiningReport",
    "Pattern",
    "PatternSet",
    "WorkerError",
    "get_executor",
    "Pipeline",
    "PipelineContext",
    "PipelineResult",
    "SignificantRuleMiner",
    "available_corrections",
    "available_miners",
    "mine_significant_rules",
    "register_correction",
    "register_miner",
    "resolve_correction",
    "resolve_miner",
    "CorrectionError",
    "DataError",
    "EvaluationError",
    "LoaderError",
    "MiningError",
    "ReproError",
    "StatsError",
    "__version__",
]
