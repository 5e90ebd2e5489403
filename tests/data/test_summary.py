"""Unit tests for dataset profiling."""

from __future__ import annotations

import pytest

from repro.data import Dataset, summarize
from repro.errors import DataError


class TestSummarize:
    def test_counts(self, tiny_dataset):
        summary = summarize(tiny_dataset)
        assert summary.n_records == 8
        assert summary.n_attributes == 3
        assert summary.n_items == 6
        assert summary.class_counts == {"pos": 4, "neg": 4}

    def test_attribute_profiles(self, tiny_dataset):
        summary = summarize(tiny_dataset)
        by_name = {p.name: p for p in summary.attributes}
        assert by_name["A"].n_values == 2
        assert by_name["A"].max_support == 4
        assert by_name["A"].min_support == 4
        assert by_name["A"].missing == 0

    def test_missing_counted(self):
        ds = Dataset.from_records(
            [["a", None], ["a", "x"], ["b", None]],
            ["c0", "c1", "c0"], ["A", "B"])
        summary = summarize(ds)
        by_name = {p.name: p for p in summary.attributes}
        assert by_name["B"].missing == 2

    def test_quantiles(self, tiny_dataset):
        summary = summarize(tiny_dataset)
        q = summary.support_quantiles
        assert q["max"] == 4
        assert q["min"] == 4
        assert q["median"] == 4

    def test_suggested_min_sup_kth_item(self, small_random_dataset):
        summary = summarize(small_random_dataset, target_items=3)
        supports = sorted(
            (t.count() for t in
             small_random_dataset.item_tidsets), reverse=True)
        assert summary.suggested_min_sup == supports[2]

    def test_suggested_capped_at_item_count(self, tiny_dataset):
        summary = summarize(tiny_dataset, target_items=100)
        assert summary.suggested_min_sup == 4  # last item's support

    def test_invalid_target(self, tiny_dataset):
        with pytest.raises(DataError):
            summarize(tiny_dataset, target_items=0)

    def test_describe_mentions_everything(self, tiny_dataset):
        text = summarize(tiny_dataset).describe()
        assert "tiny" in text
        assert "classes:" in text
        assert "A:" in text


class TestMidpFisher:
    def test_midp_below_exact(self):
        from repro.stats import fisher_two_tailed, fisher_two_tailed_midp
        for k in range(0, 7):
            exact = fisher_two_tailed(k, 20, 11, 6)
            midp = fisher_two_tailed_midp(k, 20, 11, 6)
            assert 0.0 <= midp < exact

    def test_midp_is_half_pmf_smaller(self):
        from repro.stats import (
            fisher_two_tailed,
            fisher_two_tailed_midp,
            pmf,
        )
        exact = fisher_two_tailed(4, 20, 11, 6)
        midp = fisher_two_tailed_midp(4, 20, 11, 6)
        assert midp == pytest.approx(exact - 0.5 * pmf(4, 20, 11, 6))

    def test_midp_never_negative(self):
        from repro.stats import fisher_two_tailed_midp
        assert fisher_two_tailed_midp(0, 10, 5, 0) >= 0.0
