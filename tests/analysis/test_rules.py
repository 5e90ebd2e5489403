"""True-positive / true-negative fixture pairs for every shipped rule.

Each fixture is an in-memory source blob analyzed under a virtual
canonical path, so the path-scoped rules (``float-equality-in-stats``
under ``repro/stats/``, the output rules under the reporting modules)
see the file exactly as they would on disk.
"""

import textwrap

from repro.analysis import analyze_source


def _run(rule, path, source):
    findings = analyze_source(path, textwrap.dedent(source),
                              select=[rule])
    return [f for f in findings if f.rule == rule]


class TestNoStdlibRng:
    RULE = "no-stdlib-rng"

    def test_tp_random_random_call(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            import random

            def f(seed):
                rng = random.Random(seed)
                return random.uniform(0.0, 1.0)
            """)
        assert len(hits) == 2  # constructor and draw
        assert all(h.rule == self.RULE for h in hits)

    def test_tp_from_import(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            from random import shuffle
            """)
        assert len(hits) == 1
        assert "from random import shuffle" in hits[0].message

    def test_tp_aliased_module(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            import random as rnd

            def f():
                return rnd.randint(0, 10)
            """)
        assert len(hits) == 1

    def test_tn_import_for_isinstance_shim(self):
        # `import random` + isinstance only: naming the type is not a
        # draw and must stay legal.
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            import random

            def f(rng):
                if isinstance(rng, random.Random):
                    return "legacy"
                return "generator"
            """)
        assert hits == []

    def test_tn_tests_are_out_of_scope(self):
        hits = _run(self.RULE, "tests/test_x.py", """\
            import random
            r = random.Random(0)
            """)
        assert hits == []


class TestNoGlobalNumpyRng:
    RULE = "no-global-numpy-rng"

    def test_tp_np_random_seed(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            import numpy as np

            def f():
                np.random.seed(0)
                return np.random.rand(3)
            """)
        assert len(hits) == 2

    def test_tp_from_numpy_random_import(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            from numpy.random import shuffle
            """)
        assert len(hits) == 1

    def test_tn_default_rng(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            import numpy as np
            from numpy.random import default_rng, SeedSequence

            def f(seed):
                return np.random.default_rng(seed).random(3)
            """)
        assert hits == []


class TestUnlockedSharedState:
    RULE = "unlocked-shared-state"

    def test_tp_module_dict_mutated_in_function(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            _CACHE = {}

            def put(key, value):
                _CACHE[key] = value
            """)
        assert len(hits) == 1
        assert "_CACHE" in hits[0].message

    def test_tp_class_level_list_append(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            class Registry:
                entries = []

                def add(self, item):
                    self.entries.append(item)
            """)
        assert len(hits) == 1

    def test_tn_mutation_under_lock(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            import threading

            _CACHE = {}
            _LOCK = threading.Lock()

            def put(key, value):
                with _LOCK:
                    _CACHE[key] = value
            """)
        assert hits == []

    def test_tn_instance_state(self):
        # The LogFactorialBuffer fix: per-instance containers are
        # out of scope.
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            class Buffer:
                def __init__(self):
                    self.table = []

                def grow(self, x):
                    self.table.append(x)
            """)
        assert hits == []

    def test_tn_import_time_mutation(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            _TABLE = {}
            _TABLE["a"] = 1
            for k in ("b", "c"):
                _TABLE[k] = 2
            """)
        assert hits == []

    def test_suppression_pragma(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            _CACHE = {}

            def put(key, value):
                _CACHE[key] = value  # repro-lint: disable=unlocked-shared-state
            """)
        assert hits == []


class TestPickleUnsafeWorker:
    RULE = "pickle-unsafe-worker"

    def test_tp_lock_without_getstate(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
            """)
        assert len(hits) == 1
        assert "locks do not pickle" in hits[0].message

    def test_tp_generator_attribute(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            import numpy as np

            class Sampler:
                def __init__(self, seed):
                    self._rng = np.random.default_rng(seed)
            """)
        assert len(hits) == 1
        assert "forks its stream" in hits[0].message

    def test_tn_getstate_defined(self):
        # The LogFactorialBuffer model: lock dropped in __getstate__.
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            import threading

            class Buffer:
                def __init__(self):
                    self._grow_lock = threading.Lock()

                def __getstate__(self):
                    state = self.__dict__.copy()
                    del state["_grow_lock"]
                    return state
            """)
        assert hits == []

    def test_tn_plain_class(self):
        hits = _run(self.RULE, "repro/pkg/mod.py", """\
            class Point:
                def __init__(self, x):
                    self.x = x
            """)
        assert hits == []


class TestFloatEqualityInStats:
    RULE = "float-equality-in-stats"

    def test_tp_division_compared(self):
        hits = _run(self.RULE, "repro/stats/newtest.py", """\
            def f(a, b, n):
                return a / n == b / n
            """)
        assert len(hits) == 1

    def test_tp_float_literal(self):
        hits = _run(self.RULE, "repro/stats/newtest.py", """\
            def f(p):
                return p != 0.5
            """)
        assert len(hits) == 1

    def test_tn_integer_comparison(self):
        hits = _run(self.RULE, "repro/stats/newtest.py", """\
            def f(k, n):
                return k == n
            """)
        assert hits == []

    def test_tn_out_of_scope_module(self):
        # Scoped to repro/stats/: identical code elsewhere passes.
        hits = _run(self.RULE, "repro/mining/mod.py", """\
            def f(p):
                return p == 0.5
            """)
        assert hits == []

    def test_tn_inequality_ordering(self):
        hits = _run(self.RULE, "repro/stats/newtest.py", """\
            def f(p):
                return p <= 0.5
            """)
        assert hits == []


class TestUnorderedIterationToOutput:
    RULE = "unordered-iteration-to-output"

    def test_tp_for_over_set(self):
        hits = _run(self.RULE, "repro/evaluation/reporting.py", """\
            def render(rows):
                names = {r.name for r in rows}
                for name in names:
                    print(name)
            """)
        assert len(hits) == 1
        assert "PYTHONHASHSEED" in hits[0].message

    def test_tp_join_over_set_literal(self):
        hits = _run(self.RULE, "repro/evaluation/export.py", """\
            def header(cols):
                return ",".join(set(cols))
            """)
        assert len(hits) == 1

    def test_tn_sorted_iteration(self):
        hits = _run(self.RULE, "repro/evaluation/reporting.py", """\
            def render(rows):
                names = {r.name for r in rows}
                for name in sorted(names):
                    print(name)
            """)
        assert hits == []

    def test_tn_order_free_consumers(self):
        hits = _run(self.RULE, "repro/evaluation/reporting.py", """\
            def count(rows):
                names = {r.name for r in rows}
                return len(names), max(names)
            """)
        assert hits == []

    def test_tn_out_of_scope_module(self):
        hits = _run(self.RULE, "repro/mining/mod.py", """\
            def f(names):
                for n in set(names):
                    print(n)
            """)
        assert hits == []


class TestUint64DtypePromotion:
    RULE = "uint64-dtype-promotion"

    def test_tp_true_division(self):
        hits = _run(self.RULE, "repro/tidvector.py", """\
            import numpy as np

            def density(words, n):
                counts = np.zeros(4, dtype=np.uint64)
                return counts / n
            """)
        assert len(hits) == 1
        assert "float64" in hits[0].message

    def test_tp_mixing_with_signed_numpy(self):
        hits = _run(self.RULE, "repro/tidvector.py", """\
            import numpy as np

            def shift(words):
                packed = np.zeros(4, dtype="uint64")
                return packed + np.arange(4)
            """)
        assert len(hits) == 1

    def test_tn_bitwise_ops(self):
        hits = _run(self.RULE, "repro/tidvector.py", """\
            import numpy as np

            def intersect(n):
                a = np.zeros(n, dtype=np.uint64)
                b = np.ones(n, dtype=np.uint64)
                return a & b | (a ^ b)
            """)
        assert hits == []

    def test_tn_python_int_scalar(self):
        # Weak promotion: uint64 + python int stays uint64.
        hits = _run(self.RULE, "repro/tidvector.py", """\
            import numpy as np

            def bump(n):
                words = np.zeros(n, dtype=np.uint64)
                return words + 1
            """)
        assert hits == []

    def test_tn_out_of_scope_module(self):
        hits = _run(self.RULE, "repro/stats/mod.py", """\
            import numpy as np

            def f(n):
                counts = np.zeros(4, dtype=np.uint64)
                return counts / n
            """)
        assert hits == []


class TestSwallowedWorkerException:
    RULE = "swallowed-worker-exception"

    def test_tp_bare_except_without_reraise(self):
        hits = _run(self.RULE, "repro/parallel/worker.py", """\
            def loop(queue):
                try:
                    queue.get()
                except:
                    return None
            """)
        assert len(hits) == 1
        assert "bare 'except:'" in hits[0].message

    def test_tp_broad_except_pass(self):
        hits = _run(self.RULE, "repro/service/worker.py", """\
            def drain(jobs):
                for job in jobs:
                    try:
                        job.run()
                    except Exception:
                        pass
            """)
        assert len(hits) == 1
        assert "silently discards" in hits[0].message

    def test_tp_base_exception_continue_in_tuple(self):
        hits = _run(self.RULE, "repro/parallel/pool.py", """\
            def reap(workers):
                for worker in workers:
                    try:
                        worker.join()
                    except (OSError, BaseException):
                        continue
            """)
        assert len(hits) == 1

    def test_tn_broad_except_that_records(self):
        # The sanctioned worker-loop catch-all: the failure lands on
        # the job record with its traceback.
        hits = _run(self.RULE, "repro/service/jobs.py", """\
            import traceback

            def worker_loop(job):
                try:
                    job.run()
                except Exception:
                    job.traceback = traceback.format_exc()
                    job.state = "failed"
            """)
        assert hits == []

    def test_tn_bare_except_with_reraise(self):
        hits = _run(self.RULE, "repro/parallel/executor.py", """\
            def guarded(fn):
                try:
                    return fn()
                except:
                    cleanup()
                    raise
            """)
        assert hits == []

    def test_tn_narrow_type_swallow(self):
        # Narrowed catches are the sanctioned fix for deliberate
        # swallows (terminating already-dead workers).
        hits = _run(self.RULE, "repro/parallel/executor.py", """\
            def terminate(workers):
                for worker in workers:
                    try:
                        worker.terminate()
                    except (OSError, ValueError):
                        continue
            """)
        assert hits == []

    def test_tn_out_of_scope_module(self):
        hits = _run(self.RULE, "repro/stats/fisher.py", """\
            def probe():
                try:
                    risky()
                except Exception:
                    pass
            """)
        assert hits == []


class TestArenaLifetime:
    RULE = "arena-lifetime"

    def test_tp_view_used_after_with_exit(self):
        hits = _run(self.RULE, "repro/data/consumer.py", """\
            from repro.data.arena import ArenaFile

            def supports(path):
                with ArenaFile(path) as af:
                    words = af.whole_words()
                return words.sum()
            """)
        assert len(hits) == 1
        assert "after the arena is closed" in hits[0].message

    def test_tp_view_returned_from_with_body(self):
        hits = _run(self.RULE, "repro/mining/reader.py", """\
            from repro.data.arena import ArenaFile

            def word_block(path, i):
                with ArenaFile(path) as af:
                    seg = af.segment_words(i)
                    return seg
            """)
        assert len(hits) == 1
        assert "escapes the with block" in hits[0].message

    def test_tp_slice_survives_explicit_close(self):
        # Slices of a view alias the same mapping as the view itself.
        hits = _run(self.RULE, "repro/data/consumer.py", """\
            from repro.data.arena import ArenaFile

            def head(path):
                af = ArenaFile(path)
                block = af.whole_words()[:4]
                af.close()
                return block
            """)
        assert len(hits) == 1

    def test_tp_view_stored_on_self(self):
        hits = _run(self.RULE, "repro/data/cache.py", """\
            from repro.data.arena import ArenaFile

            class Cache:
                def load(self, path):
                    with ArenaFile(path) as af:
                        self.words = af.whole_words()
            """)
        assert len(hits) == 1
        assert "stored on self" in hits[0].message

    def test_tn_copy_before_close(self):
        # np.array(...) materializes; the copy may outlive the arena.
        hits = _run(self.RULE, "repro/data/consumer.py", """\
            import numpy as np

            from repro.data.arena import ArenaFile

            def supports(path):
                with ArenaFile(path) as af:
                    words = np.array(af.whole_words())
                return words.sum()
            """)
        assert hits == []

    def test_tn_use_inside_with(self):
        hits = _run(self.RULE, "repro/data/consumer.py", """\
            from repro.data.arena import ArenaFile

            def supports(path):
                with ArenaFile(path) as af:
                    words = af.whole_words()
                    total = int(words.sum())
                return total
            """)
        assert hits == []

    def test_tn_arena_kept_open(self):
        # No close event in the function: the mapping's lifetime is
        # managed elsewhere (the Dataset.open_arena idiom).
        hits = _run(self.RULE, "repro/data/dataset_like.py", """\
            from repro.data.arena import ArenaFile

            def open_words(path):
                af = ArenaFile(path)
                return af, af.whole_words()
            """)
        assert hits == []

    def test_tn_out_of_scope_module(self):
        hits = _run(self.RULE, "repro/service/core.py", """\
            from repro.data.arena import ArenaFile

            def supports(path):
                with ArenaFile(path) as af:
                    words = af.whole_words()
                return words.sum()
            """)
        assert hits == []
