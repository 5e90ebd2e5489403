"""Spans around the public entry point of each layer, for the traced run.

:func:`instrument` replaces each entry point with a wrapper that
records a span (name, start, end, parent) and the counts its result
carries, and restores the originals on exit. Nothing is patched
outside that ``with`` block, so the untraced runs execute the program
as shipped. An entry point a later version of the program no longer
has is skipped; its layer then reports zeros.

Spans stay in memory; :func:`chrome_trace` turns them into Chrome
trace-event JSON (opens in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None


@dataclass
class Tracer:
    """Spans and the objects whose counts the per-layer metrics read."""

    spans: List[Span] = field(default_factory=list)
    patterns: int = 0
    rulesets: List[object] = field(default_factory=list)
    engines: List[object] = field(default_factory=list)
    holdouts: List[object] = field(default_factory=list)
    _open: List[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus its child spans'."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = (totals.get(span.name, 0.0)
                                 + span.end - span.start)
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent].name
                totals[parent] -= span.end - span.start
        return totals

    def inclusive(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)


def _collect(tracer: Tracer, kind: str, result: object) -> None:
    if kind == "patterns":
        tracer.patterns += len(getattr(result, "patterns", ()) or ())
    elif kind == "ruleset":
        tracer.rulesets.append(result)
    elif kind == "engine":
        if all(result is not e for e in tracer.engines):
            tracer.engines.append(result)
    elif kind == "holdout":
        if all(result is not h for h in tracer.holdouts):
            tracer.holdouts.append(result)


#: (module, attribute path, span name, what the result carries). The
#: score entry point is patched where the Score stage and the holdout
#: run look it up, so both calls land in the ``rules.score`` span.
ENTRY_POINTS = (
    ("repro.core.pipeline", "Pipeline.run", "pipeline.run", None),
    ("repro.core.pipeline", "MineStage.run", "stage.mine", None),
    ("repro.core.pipeline", "ReduceStage.run", "stage.reduce", None),
    ("repro.core.pipeline", "ScoreStage.run", "stage.score", None),
    ("repro.core.pipeline", "CorrectStage.run", "stage.correct", None),
    ("repro.mining.registry", "Miner.mine", "mining.mine", "patterns"),
    ("repro.core.pipeline", "generate_rules", "rules.score", "ruleset"),
    ("repro.corrections.holdout", "generate_rules", "rules.score",
     "ruleset"),
    ("repro.corrections.registry", "PipelineContext.permutation_engine",
     "permutation.build", "engine"),
    ("repro.corrections.permutation", "PermutationEngine.run",
     "permutation.pass", None),
    ("repro.corrections.registry", "PipelineContext.holdout_run",
     "holdout.build", "holdout"),
)


def _wrap(tracer: Tracer, fn, name: str, kind: Optional[str]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if kind is not None:
            _collect(tracer, kind, result)
        return result
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Patch every entry point that exists, for the ``with`` block."""
    restore = []
    try:
        for module_name, path, name, kind in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attribute, None)
            if original is None:
                continue
            # Class attributes are read raw so a staticmethod or
            # classmethod is restored as such.
            raw = vars(owner).get(attribute, original) \
                if isinstance(owner, type) else original
            setattr(owner, attribute, _wrap(tracer, original, name, kind))
            restore.append((owner, attribute, raw))
        yield
    finally:
        for owner, attribute, raw in reversed(restore):
            setattr(owner, attribute, raw)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced ``Pipeline.run``."""
    self_s = tracer.self_times()
    total = tracer.inclusive("pipeline.run")
    mine_s = self_s.get("mining.mine", 0.0)
    score_s = self_s.get("rules.score", 0.0)
    pass_s = tracer.inclusive("permutation.pass")

    tables = hits = lookups = tests = 0
    for ruleset in tracer.rulesets:
        tests += len(getattr(ruleset, "rules", ()))
    caches = [c for r in tracer.rulesets
              for c in (getattr(r, "caches", None) or {}).values()]
    for holdout in tracer.holdouts:
        caches.extend((getattr(holdout, "_caches", None) or {}).values())
    for cache in caches:
        stats = getattr(cache, "stats", None)
        if stats is None:
            continue
        tables += stats.static_misses + stats.dynamic_misses
        hits += stats.static_hits + stats.dynamic_hits
        lookups += stats.total_lookups

    labellings = bytes_computed = word_block = batch_rows = 0
    for engine in tracer.engines:
        n_perm = int(getattr(engine, "n_permutations", 0))
        labellings += n_perm
        word_block = int(getattr(engine, "word_block", 0) or 0)
        batch = getattr(engine, "_batch_rows", None)
        batch_rows = int(batch()) if callable(batch) else 0
        forest = getattr(engine, "_forest", None)
        n_nodes = int(getattr(forest, "n_nodes", 0) or 0)
        n_words = math.ceil(int(getattr(engine, "n", 0)) / 64)
        bytes_computed += n_nodes * n_words * 8 * n_perm

    explore_tests = candidates = 0
    for holdout in tracer.holdouts:
        explore_tests += len(getattr(
            getattr(holdout, "exploratory_rules", None), "rules", ()))
        candidates += len(getattr(holdout, "candidates", ()))

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    def share(seconds: float) -> float:
        return 100.0 * seconds / total if total > 0 else 0.0

    return {
        "mining.mine_s": mine_s,
        "mining.patterns": tracer.patterns,
        "mining.patterns_per_s": rate(tracer.patterns, mine_s),
        "rules.score_s": score_s,
        "rules.tests": tests,
        "stats.tables_built": tables,
        "stats.table_hit_ratio": hits / lookups if lookups else 0.0,
        "permutation.build_s": self_s.get("permutation.build", 0.0),
        "permutation.pass_s": pass_s,
        "permutation.labellings_per_s": rate(labellings, pass_s),
        "permutation.word_block": word_block,
        "permutation.batch_rows": batch_rows,
        "bitmat.bytes_computed": bytes_computed,
        "bitmat.gbytes_per_s_computed": rate(bytes_computed / 1e9, pass_s),
        "holdout.build_s": tracer.inclusive("holdout.build"),
        "holdout.self_s": self_s.get("holdout.build", 0.0),
        "holdout.explore_tests": explore_tests,
        "holdout.candidates": candidates,
        "holdout.candidate_ratio": (candidates / explore_tests
                                    if explore_tests else 0.0),
        "corrections.decide_s": self_s.get("stage.correct", 0.0),
        "pipeline.self_s": self_s.get("pipeline.run", 0.0),
        "share.mine_pct": share(mine_s),
        "share.score_pct": share(score_s),
        "share.permutation_pass_pct": share(pass_s),
        "trace.run_s": total,
    }


def chrome_trace(runs: List[List[Span]], metadata: Dict[str, object],
                 ) -> dict:
    """Chrome trace-event JSON: one thread row per traced run's spans."""
    events = []
    origin = min((s.start for spans in runs for s in spans), default=0.0)
    for tid, spans in enumerate(runs):
        for span in spans:
            parent = (spans[span.parent].name
                      if span.parent is not None else None)
            events.append({
                "name": span.name, "cat": span.name.split(".")[0],
                "ph": "X", "pid": 1, "tid": tid,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {"parent": parent},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata}
