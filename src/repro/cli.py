"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``mine``
    Mine statistically significant class association rules from a CSV
    (attribute-valued, class column last by default), FIMI or ARFF
    file, or from one of the built-in simulated UCI datasets
    (``builtin:german`` etc.).
``datasets``
    List the built-in datasets and their Table 2 shapes.
``corrections``
    List the available correction identifiers.
``measures``
    List the available interestingness measures.
``power``
    Analytic detectability: minimum detectable confidence/support for
    a coverage, or detection power for a planted confidence.
``experiment``
    Run a replicated planted-rule experiment (the Section 5 loop) and
    print power/FWER/FDR per correction method.
``classify``
    Build a CBA/CMAR associative classifier on a dataset, optionally
    restricting the rule base to a correction's significant rules, and
    report cross-validated accuracy.
``contrast``
    Mine STUCCO contrast sets between the dataset's class groups.
``serve``
    Run the mining service (:mod:`repro.service`): an HTTP API with a
    dataset registry, an async job queue and a fingerprint-keyed
    artifact cache; see ``docs/service.md``.
``lint``
    Run the AST invariant checker (:mod:`repro.analysis`) over the
    source tree, gated by the committed ``lint-baseline.json``.

Correction names (``--correction``, ``experiment --methods``) are
resolved through the correction registry and mining algorithms
(``--algorithm``) through the miner registry: canonical identifiers
(``bh``, ``fpgrowth``), Table 3 abbreviations (``BH``) and aliases
(``fp-growth``) all work, and unknown names get a did-you-mean
suggestion. Out-of-tree corrections *and miners* registered via
:func:`repro.corrections.register_correction` /
:func:`repro.mining.register_miner` are usable without editing this
package: load the registering module with ``--plugin my_module``
(repeatable, resolved before anything else) or the ``REPRO_PLUGINS``
environment variable (comma-separated module names).
``--list-algorithms`` prints the registered miners and exits.

Examples
--------
::

    python -m repro mine data.csv --min-sup 60 --correction bh
    python -m repro mine data.csv --min-sup 60 --algorithm fpgrowth
    python -m repro --list-algorithms
    python -m repro mine builtin:german --min-sup 60 \\
        --correction permutation-fwer --permutations 1000 --seed 0
    python -m repro --plugin my_corrections mine data.csv \\
        --min-sup 60 --correction my-method
    python -m repro classify builtin:german --min-sup 80 \\
        --correction bonferroni --folds 3
    python -m repro contrast builtin:adult --min-deviation 0.1
    python -m repro datasets
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .core.miner import mine_significant_rules
from .corrections.registry import (
    available_corrections,
    correction_names,
    resolve_correction,
)
from .interest.measures import ALL_MEASURES, ContingencyTable
from .data.dataset import Dataset
from .data.loaders import load_arff, load_csv, load_fimi
from .data.uci import REAL_DATASETS, load_real_dataset
from .errors import CorrectionError, MiningError, ReproError
from .mining.registry import (
    available_miners,
    miner_names,
    resolve_miner,
)

__all__ = ["main", "build_parser", "load_plugins"]


def load_plugins(modules: Sequence[str]) -> List[str]:
    """Import plugin modules so they can register extensions.

    Modules named in ``REPRO_PLUGINS`` (comma-separated) are loaded
    first, then the given ones; each module is expected to call
    :func:`repro.corrections.register_correction` and/or
    :func:`repro.mining.register_miner` at import time. Returns the
    list of modules imported.
    """
    names = [name.strip()
             for name in os.environ.get("REPRO_PLUGINS", "").split(",")
             if name.strip()]
    names.extend(modules)
    loaded = []
    for name in names:
        try:
            importlib.import_module(name)
        except ImportError as exc:
            raise ReproError(
                f"cannot import plugin module {name!r}: {exc}") from exc
        loaded.append(name)
    return loaded


class _PluginAction(argparse.Action):
    """Import a plugin module the moment its flag is parsed.

    Importing eagerly (instead of after ``parse_args``) lets a
    ``--correction`` later on the same command line resolve names the
    plugin registers — argparse converts options left to right.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            load_plugins([values])
        except ReproError as exc:
            parser.error(str(exc))
        items = list(getattr(namespace, self.dest) or [])
        items.append(values)
        setattr(namespace, self.dest, items)


def _miner_name(value: str) -> str:
    """argparse type: resolve any registered miner spelling.

    Unknown names abort parsing with the miner registry's message —
    the valid algorithm list plus a did-you-mean suggestion, covering
    miners registered by ``--plugin`` modules earlier on the line.
    """
    try:
        return resolve_miner(value).name
    except MiningError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class _ListAlgorithmsAction(argparse.Action):
    """Print the registered miners and exit (like ``--help``)."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        _print_miners(sys.stdout)
        parser.exit(0)


def _print_miners(out) -> None:
    print("mining algorithms (capabilities, aliases):", file=out)
    for spec in sorted(available_miners(), key=lambda s: s.name):
        line = (f"  {spec.name:15s} "
                f"{', '.join(spec.capabilities):25s}")
        if spec.aliases:
            line += f" aliases: {', '.join(spec.aliases)}"
        print(line, file=out)
        if spec.description:
            print(f"  {'':15s} {spec.description}", file=out)


def _correction_name(value: str) -> str:
    """argparse type: resolve any registered spelling, canonicalised.

    Unknown names abort parsing with the registry's message (valid
    names plus a did-you-mean suggestion). Variant spellings that bind
    context overrides (``"HD_BC"`` → structured split) are kept as
    given — canonicalising them would silently drop the binding.
    """
    try:
        resolved = resolve_correction(value)
    except CorrectionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value if resolved.overrides else resolved.name


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing).

    Correction choices are enumerated from the live registry, so
    corrections registered before this call — e.g. by ``--plugin``
    modules — appear automatically.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Statistically sound class association rule mining "
                    "(VLDB 2011 reproduction).")
    parser.add_argument("--plugin", action=_PluginAction, default=[],
                        metavar="MODULE",
                        help="import this module before running so it "
                             "can register custom corrections or "
                             "miners (repeatable; see also "
                             "REPRO_PLUGINS)")
    parser.add_argument("--list-algorithms",
                        action=_ListAlgorithmsAction,
                        help="list the registered mining algorithms "
                             "and exit; options apply left to right, "
                             "so put --plugin before this flag to "
                             "include plugin miners")
    commands = parser.add_subparsers(dest="command", required=True)

    mine = commands.add_parser(
        "mine", help="mine significant rules from a dataset")
    mine.add_argument("input",
                      help="path to a .csv/.fimi/.arff file, or "
                           "builtin:<name> for a simulated UCI dataset")
    mine.add_argument("--min-sup", type=int, required=True,
                      help="minimum rule coverage")
    mine.add_argument("--algorithm", default="closed",
                      type=_miner_name,
                      help="pattern mining algorithm, any registered "
                           "spelling (default: closed; see "
                           f"--list-algorithms): "
                           f"{', '.join(miner_names())}")
    mine.add_argument("--correction", default="bh",
                      type=_correction_name,
                      help="multiple testing correction, any registered "
                           f"spelling (default: bh; see 'corrections'): "
                           f"{', '.join(correction_names())}")
    mine.add_argument("--alpha", type=float, default=0.05,
                      help="error level to control (default: 0.05)")
    mine.add_argument("--min-conf", type=float, default=0.0,
                      help="domain-significance confidence filter")
    mine.add_argument("--max-length", type=int, default=None,
                      help="cap on rule LHS length")
    mine.add_argument("--permutations", type=int, default=1000,
                      help="permutation count for permutation-* "
                           "corrections (default: 1000)")
    mine.add_argument("--holdout-split", default="random",
                      choices=("random", "structured"),
                      help="split convention for holdout-* corrections")
    mine.add_argument("--scorer", default="fisher",
                      choices=("fisher", "fisher-midp", "chi2"),
                      help="statistical test (default: fisher)")
    mine.add_argument("--redundancy-delta", type=float, default=None,
                      help="Section 7 representative-pattern reduction "
                           "tolerance (collapse sub/super-pattern "
                           "chains with support within 1-delta)")
    mine.add_argument("--rank-by", default=None,
                      choices=sorted(ALL_MEASURES),
                      help="order printed rules by this interestingness "
                           "measure instead of p-value")
    mine.add_argument("--seed", type=int, default=None,
                      help="seed for permutation/holdout randomness")
    mine.add_argument("--jobs", type=int, default=1,
                      help="parallel workers for the permutation pass "
                           "(-1 = all cores; results are identical "
                           "for any worker count; default: 1)")
    mine.add_argument("--backend", default="serial",
                      choices=("serial", "threads", "processes"),
                      help="parallel execution backend (default: "
                           "serial; see docs/parallel.md)")
    mine.add_argument("--class-column", default="-1",
                      help="CSV class column name or index "
                           "(default: last)")
    mine.add_argument("--top", type=int, default=20,
                      help="number of rules to print (default: 20)")
    mine.add_argument("--csv-out", default=None,
                      help="also write the significant rules to this "
                           "CSV file (columns: rule, class, coverage, "
                           "support, confidence, p_value)")

    commands.add_parser("datasets",
                        help="list built-in simulated UCI datasets")
    commands.add_parser("corrections",
                        help="list correction identifiers")
    commands.add_parser("measures",
                        help="list interestingness measures")

    power = commands.add_parser(
        "power", help="analytic detectability calculator")
    power.add_argument("--records", type=int, required=True,
                       help="dataset size n")
    power.add_argument("--class-support", type=int, required=True,
                       help="records of the rule's class (n_c)")
    power.add_argument("--coverage", type=int, required=True,
                       help="rule coverage supp(X)")
    power.add_argument("--threshold", type=float, required=True,
                       help="raw p-value cut-off to clear (e.g. the "
                            "Bonferroni alpha/Nt)")
    power.add_argument("--confidence", type=float, default=None,
                       help="planted confidence; when given, also "
                            "print the detection probability")

    experiment = commands.add_parser(
        "experiment",
        help="replicated planted-rule experiment (Section 5 loop)")
    experiment.add_argument("--records", type=int, default=2000,
                            help="records per dataset (default: 2000)")
    experiment.add_argument("--attributes", type=int, default=40,
                            help="attributes (default: 40)")
    experiment.add_argument("--rules", type=int, default=1,
                            help="embedded rules (default: 1)")
    experiment.add_argument("--coverage", type=int, default=400,
                            help="embedded rule coverage (default: 400)")
    experiment.add_argument("--confidence", type=float, default=0.65,
                            help="embedded rule confidence "
                                 "(default: 0.65)")
    experiment.add_argument("--min-sup", type=int, default=150,
                            help="minimum support (default: 150)")
    experiment.add_argument("--algorithm", default="closed",
                            type=_miner_name,
                            help="pattern mining algorithm for the "
                                 "ablation grid (default: closed)")
    experiment.add_argument("--alpha", type=float, default=0.05,
                            help="error level (default: 0.05)")
    experiment.add_argument("--replicates", type=int, default=10,
                            help="datasets per cell (paper: 100)")
    experiment.add_argument("--permutations", type=int, default=150,
                            help="permutation count (paper: 1000)")
    experiment.add_argument("--methods", default="No correction,BC,BH",
                            help="comma-separated method keys "
                                 "(Table 3 names; default: "
                                 "'No correction,BC,BH')")
    experiment.add_argument("--seed", type=int, default=0,
                            help="master seed (default: 0)")
    experiment.add_argument("--jobs", type=int, default=1,
                            help="parallel workers for the replicate "
                                 "grid (-1 = all cores; default: 1)")
    experiment.add_argument("--backend", default="serial",
                            choices=("serial", "threads", "processes"),
                            help="parallel execution backend "
                                 "(default: serial)")

    classify = commands.add_parser(
        "classify",
        help="build and evaluate an associative classifier")
    classify.add_argument("input",
                          help="dataset path or builtin:<name>")
    classify.add_argument("--min-sup", type=int, required=True,
                          help="minimum rule coverage")
    classify.add_argument("--classifier", default="cba",
                          choices=("cba", "cmar", "cpar"),
                          help="rule-list (cba), weighted vote (cmar) "
                               "or greedy FOIL induction (cpar)")
    classify.add_argument("--correction", default="none",
                          type=_correction_name,
                          help="filter the rule base to this "
                               "correction's significant rules, any "
                               "registered spelling (default: none = "
                               "plain CBA/CMAR)")
    classify.add_argument("--alpha", type=float, default=0.05,
                          help="error level for the filter")
    classify.add_argument("--max-length", type=int, default=None,
                          help="cap on rule LHS length")
    classify.add_argument("--folds", type=int, default=0,
                          help="stratified CV folds (0 = skip CV)")
    classify.add_argument("--permutations", type=int, default=200,
                          help="permutation count for permutation-* "
                               "filters (default: 200)")
    classify.add_argument("--seed", type=int, default=0,
                          help="seed for CV folds and permutations")
    classify.add_argument("--class-column", default="-1",
                          help="CSV class column (default: last)")
    classify.add_argument("--top", type=int, default=10,
                          help="rules of the classifier to print")

    contrast = commands.add_parser(
        "contrast",
        help="mine STUCCO contrast sets between class groups")
    contrast.add_argument("input",
                          help="dataset path or builtin:<name>")
    contrast.add_argument("--min-deviation", type=float, default=0.05,
                          help="minimum cross-group proportion gap "
                               "(default: 0.05)")
    contrast.add_argument("--alpha", type=float, default=0.05,
                          help="total error budget (default: 0.05)")
    contrast.add_argument("--min-sup", type=int, default=1,
                          help="coverage floor for candidates")
    contrast.add_argument("--max-length", type=int, default=3,
                          help="search depth cap (default: 3)")
    contrast.add_argument("--correction", default="stucco",
                          choices=("stucco", "bonferroni", "none"),
                          help="significance regime (default: stucco)")
    contrast.add_argument("--class-column", default="-1",
                          help="CSV class column (default: last)")
    contrast.add_argument("--top", type=int, default=15,
                          help="contrast sets to print (default: 15)")

    serve = commands.add_parser(
        "serve",
        help="run the mining service (HTTP API with job queue and "
             "artifact cache)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (default: 8765)")
    serve.add_argument("--db", default=":memory:",
                       help="artifact-store SQLite path (default: "
                            "in-memory, nothing survives restart)")
    serve.add_argument("--dataset", action="append", default=[],
                       metavar="NAME=SOURCE",
                       help="pre-register a dataset, e.g. "
                            "german=builtin:german or "
                            "mydata=path/to/data.csv (repeatable; "
                            "more can be registered at runtime via "
                            "POST /v1/datasets)")
    serve.add_argument("--job-workers", type=int, default=1,
                       help="background job worker threads "
                            "(default: 1)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="repro.parallel workers each job's "
                            "pipeline runs with (-1 = all cores; "
                            "results are identical for any count; "
                            "default: 1)")
    serve.add_argument("--backend", default="serial",
                       choices=("serial", "threads", "processes"),
                       help="parallel execution backend for job "
                            "pipelines (default: serial)")
    serve.add_argument("--token", default=None,
                       help="require 'Authorization: Bearer <token>' "
                            "on every route except /health "
                            "(default: no authentication)")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="job-journal SQLite path; default derives "
                            "<db>.jobs next to a file-backed --db "
                            "(in-memory stores run without a "
                            "journal); pass an empty string to "
                            "disable durability explicitly")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="times a job is re-enqueued after a "
                            "transient failure or an orphaning "
                            "crash (default: 2)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock bound, enforced "
                            "cooperatively by the reaper (default: "
                            "none)")
    serve.add_argument("--job-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="prune finished jobs from memory after "
                            "this age; the journal keeps their "
                            "history (default: keep forever)")

    lint = commands.add_parser(
        "lint",
        help="run the AST invariant checker (repro.analysis)")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files/directories to analyze "
                           "(default: src)")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule names to run "
                           "(default: all)")
    lint.add_argument("--format", default="text",
                      choices=("text", "json"),
                      help="report format (default: text)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="baseline JSON to gate against (default: "
                           "./lint-baseline.json when it exists)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline; report every "
                           "finding as new")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline from current "
                           "findings and exit 0")
    lint.add_argument("--show-baselined", action="store_true",
                      help="also list findings matched by the "
                           "baseline")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")
    return parser


def _load_input(path: str, class_column: str) -> Dataset:
    if path.startswith("builtin:"):
        return load_real_dataset(path[len("builtin:"):])
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        column: object
        try:
            column = int(class_column)
        except ValueError:
            column = class_column
        return load_csv(path, class_column=column)
    if suffix in (".fimi", ".dat", ".txt"):
        return load_fimi(path)
    if suffix == ".arff":
        return load_arff(path)
    if suffix == ".arena":
        return Dataset.open_arena(path)
    if suffix == ".parquet":
        from .data.ingest import load_parquet
        return load_parquet(path)
    raise ReproError(
        f"cannot infer format of {path!r}; expected .csv, .fimi/.dat, "
        f".arff, .arena, .parquet or builtin:<name>")


def _run_mine(args: argparse.Namespace, out) -> int:
    dataset = _load_input(args.input, args.class_column)
    report = mine_significant_rules(
        dataset, min_sup=args.min_sup, correction=args.correction,
        algorithm=args.algorithm,
        alpha=args.alpha, min_conf=args.min_conf,
        max_length=args.max_length, n_permutations=args.permutations,
        holdout_split=args.holdout_split, scorer=args.scorer,
        seed=args.seed, redundancy_delta=args.redundancy_delta,
        n_jobs=args.jobs, backend=args.backend)
    print(report.summary(), file=out)
    if args.rank_by is not None:
        measure = ALL_MEASURES[args.rank_by]
        ordered = sorted(
            report.significant,
            key=lambda r: measure(ContingencyTable.from_rule(r, dataset)),
            reverse=True)
    else:
        ordered = sorted(report.significant, key=lambda r: r.p_value)
    for rule in ordered[:args.top]:
        print("  " + rule.describe(dataset), file=out)
    remaining = len(ordered) - args.top
    if remaining > 0:
        print(f"  ... and {remaining} more", file=out)
    if args.csv_out is not None:
        from .evaluation.export import rules_to_csv
        written = rules_to_csv(report.significant, dataset,
                               args.csv_out)
        print(f"wrote {written} rules to {args.csv_out}", file=out)
    return 0


def _run_datasets(out) -> int:
    print("built-in datasets (simulated UCI stand-ins, Table 2 shapes):",
          file=out)
    for name, spec in sorted(REAL_DATASETS.items()):
        print(f"  builtin:{name:10s} {spec.n_records:6d} records, "
              f"{spec.n_attributes:2d} attributes, classes "
              f"{'/'.join(spec.class_names)}; paper min_sup "
              f"{spec.paper_minsup}", file=out)
    return 0


def _run_corrections(out) -> int:
    print("correction identifiers (paper abbreviation, family, "
          "aliases):", file=out)
    for spec in sorted(available_corrections(), key=lambda s: s.name):
        aliases = ", ".join(spec.aliases)
        line = (f"  {spec.name:25s} {spec.abbreviation:14s} "
                f"{spec.family:5s}")
        if aliases:
            line += f" aliases: {aliases}"
        print(line, file=out)
        if spec.description:
            print(f"  {'':25s} {spec.description}", file=out)
    return 0


def _run_power(args, out) -> int:
    from .stats.power import (
        detection_power,
        min_detectable_confidence,
        min_detectable_support,
        min_testable_coverage,
    )
    n, n_c = args.records, args.class_support
    coverage, threshold = args.coverage, args.threshold
    support = min_detectable_support(n, n_c, coverage, threshold)
    print(f"n={n}, n_c={n_c}, coverage={coverage}, "
          f"threshold={threshold:g}", file=out)
    if support is None:
        sigma = min_testable_coverage(n, n_c, threshold)
        print("  this coverage is UNTESTABLE at the threshold: even a "
              "perfect class split cannot reach it", file=out)
        if sigma is not None:
            print(f"  minimum testable coverage: {sigma}", file=out)
        return 0
    confidence = min_detectable_confidence(n, n_c, coverage, threshold)
    print(f"  minimum detectable support:    {support}", file=out)
    print(f"  minimum detectable confidence: {confidence:.4f}", file=out)
    if args.confidence is not None:
        probability = detection_power(n, n_c, coverage,
                                      args.confidence, threshold)
        print(f"  detection power at confidence {args.confidence:g}: "
              f"{probability:.4f}", file=out)
    return 0


def _run_experiment(args, out) -> int:
    from .data.synthetic import GeneratorConfig
    from .evaluation.reporting import format_table
    from .evaluation.runner import ExperimentRunner

    methods = tuple(key.strip() for key in args.methods.split(",")
                    if key.strip())
    config = GeneratorConfig(
        n_records=args.records, n_attributes=args.attributes,
        n_rules=args.rules,
        min_coverage=args.coverage, max_coverage=args.coverage,
        min_confidence=args.confidence, max_confidence=args.confidence)
    runner = ExperimentRunner(methods=methods, alpha=args.alpha,
                              n_permutations=args.permutations,
                              algorithm=args.algorithm,
                              n_jobs=args.jobs, backend=args.backend)
    result = runner.run(config, min_sup=args.min_sup,
                        n_replicates=args.replicates, seed=args.seed)
    print(f"{args.replicates} replicates, N={args.records}, "
          f"A={args.attributes}, {args.rules} embedded rule(s) "
          f"(coverage {args.coverage}, confidence {args.confidence:g}), "
          f"min_sup={args.min_sup}, alpha={args.alpha:g}",
          file=out)
    print(f"mean rules tested: "
          f"{result.mean_tested['whole dataset']:.1f}", file=out)
    print(format_table(
        ["method", "#datasets", "power", "FWER", "FDR", "avg #FP",
         "avg #significant"],
        [result.aggregates[m].row() for m in methods]), file=out)
    return 0


def _run_classify(args, out) -> int:
    from .classify import (
        cross_validate,
        significance_filtered_classifier,
    )

    dataset = _load_input(args.input, args.class_column)
    fitted = significance_filtered_classifier(
        dataset, args.min_sup, correction=args.correction,
        alpha=args.alpha, classifier=args.classifier,
        max_length=args.max_length, n_permutations=args.permutations,
        seed=args.seed)
    print(fitted.describe(dataset, limit=args.top), file=out)
    if args.folds and args.folds >= 2:
        def factory(train, _cli_args=args):
            scaled_min_sup = max(
                1, _cli_args.min_sup * (_cli_args.folds - 1)
                // _cli_args.folds)
            return significance_filtered_classifier(
                train, scaled_min_sup,
                correction=_cli_args.correction,
                alpha=_cli_args.alpha,
                classifier=_cli_args.classifier,
                max_length=_cli_args.max_length,
                n_permutations=_cli_args.permutations,
                seed=_cli_args.seed)

        result = cross_validate(dataset, factory, k=args.folds,
                                seed=args.seed)
        print(f"\n{args.folds}-fold CV accuracy: "
              f"{result.mean_accuracy:.4f} "
              f"(+/- {result.std_accuracy:.4f}), "
              f"mean rules kept: {result.mean_rule_count:.1f}",
              file=out)
        print(result.confusion.describe(), file=out)
    return 0


def _run_contrast(args, out) -> int:
    from .contrast import find_contrast_sets

    dataset = _load_input(args.input, args.class_column)
    result = find_contrast_sets(
        dataset, min_deviation=args.min_deviation, alpha=args.alpha,
        min_sup=args.min_sup, max_length=args.max_length,
        correction=args.correction)
    print(result.describe(limit=args.top), file=out)
    print("\nlayered alpha per level:", file=out)
    for level in sorted(result.alpha_per_level):
        print(f"  level {level}: "
              f"{result.candidates_per_level[level]} candidates, "
              f"alpha_l = {result.alpha_per_level[level]:.3g}",
              file=out)
    return 0


def _run_serve(args, out) -> int:
    from .service import ServiceConfig, create_app
    from .service.server import serve

    datasets = []
    for spec in args.dataset:
        name, separator, source = spec.partition("=")
        if not separator or not name or not source:
            raise ReproError(
                f"--dataset expects NAME=SOURCE, got {spec!r}")
        datasets.append((name, source))
    # Datasets ride in the config so ServiceCore registers them
    # before the job manager's journal replay can run a recovered
    # job that needs them.
    config = ServiceConfig(db_path=args.db, token=args.token,
                           workers=args.job_workers,
                           n_jobs=args.jobs, backend=args.backend,
                           journal_path=args.journal,
                           max_retries=args.max_retries,
                           job_timeout=args.job_timeout,
                           job_ttl=args.job_ttl,
                           datasets=tuple(datasets))
    app = create_app(config)
    for name, source in datasets:
        entry = app.core.registry.get(name)
        print(f"registered dataset {name!r} from {source} "
              f"({entry.fingerprint[:28]}...)", file=out)
    return serve(config, host=args.host, port=args.port, out=out,
                 app=app)


def _run_measures(out) -> int:
    print("interestingness measures (repro.interest):", file=out)
    for name in sorted(ALL_MEASURES):
        doc = (ALL_MEASURES[name].__doc__ or "").strip().splitlines()[0]
        print(f"  {name:18s} {doc}", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    try:
        load_plugins([])  # REPRO_PLUGINS modules, before enumeration
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        if args.command == "mine":
            return _run_mine(args, out)
        if args.command == "datasets":
            return _run_datasets(out)
        if args.command == "corrections":
            return _run_corrections(out)
        if args.command == "measures":
            return _run_measures(out)
        if args.command == "power":
            return _run_power(args, out)
        if args.command == "experiment":
            return _run_experiment(args, out)
        if args.command == "classify":
            return _run_classify(args, out)
        if args.command == "contrast":
            return _run_contrast(args, out)
        if args.command == "serve":
            return _run_serve(args, out)
        if args.command == "lint":
            from .analysis.cli import run_lint
            return run_lint(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # unreachable with required=True subparsers


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
