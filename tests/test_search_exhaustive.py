"""Tests for exhaustive enumeration / Figure-4 analysis utilities."""

import numpy as np
import pytest

from repro.search import (
    METRIC_DIRECTIONS,
    best_by_aim,
    evaluate_all,
    get_aim,
    metric_matrix,
    pareto_results,
)
from repro.search import CandidateEvaluator


@pytest.fixture(scope="module")
def all_results(trained_supernet, mnist_splits, ood_small):
    ev = CandidateEvaluator(trained_supernet, mnist_splits.val, ood_small,
                            latency_fn=lambda c: float(len(set(c))),
                            num_mc_samples=2, eval_seed=0)
    return evaluate_all(ev)


class TestEvaluateAll:
    def test_covers_whole_space(self, all_results, trained_supernet):
        assert len(all_results) == trained_supernet.space.size
        configs = {r.config for r in all_results}
        assert len(configs) == trained_supernet.space.size

    def test_results_ordered_like_enumeration(self, all_results,
                                              trained_supernet):
        expected = list(trained_supernet.space.enumerate())
        assert [r.config for r in all_results] == expected


class TestBestByAim:
    def test_matches_manual_max(self, all_results):
        aim = get_aim("accuracy")
        best = best_by_aim(all_results, aim)
        manual = max(all_results, key=lambda r: r.report.accuracy)
        assert best.report.accuracy == manual.report.accuracy

    def test_latency_best_minimizes(self, all_results):
        best = best_by_aim(all_results, get_aim("latency"))
        assert best.latency_ms == min(r.latency_ms for r in all_results)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            best_by_aim([], get_aim("accuracy"))


class TestMetricMatrix:
    def test_shape_and_values(self, all_results):
        m = metric_matrix(all_results, ["accuracy", "ece"])
        assert m.shape == (len(all_results), 2)
        assert m[0, 0] == pytest.approx(all_results[0].report.accuracy)

    def test_unknown_metric_raises(self, all_results):
        with pytest.raises(KeyError, match="unknown metric"):
            metric_matrix(all_results, ["throughput"])

    def test_directions_table(self):
        assert METRIC_DIRECTIONS["accuracy"] == "max"
        assert METRIC_DIRECTIONS["ece"] == "min"
        assert METRIC_DIRECTIONS["latency_ms"] == "min"


class TestParetoResults:
    def test_front_nonempty_and_contains_best(self, all_results):
        front = pareto_results(all_results, ["ece", "ape", "accuracy"])
        assert front
        # The accuracy maximizer is always non-dominated.
        best_acc = best_by_aim(all_results, get_aim("accuracy"))
        accs = [r.report.accuracy for r in front]
        assert max(accs) == pytest.approx(best_acc.report.accuracy)

    def test_front_subset(self, all_results):
        front = pareto_results(all_results, ["ece", "accuracy"])
        front_set = {r.config for r in front}
        assert front_set <= {r.config for r in all_results}
