"""Tests for the bundled BayesNN evaluation."""

import pytest

from repro.bayes import evaluate_bayesnn
from repro.bayes.evaluate import AlgorithmicReport
from tests.oracles import looped_mc


class TestEvaluateBayesnn:
    def test_report_fields(self, trained_supernet, mnist_splits, ood_small):
        trained_supernet.set_config(("B", "B", "B"))
        report = evaluate_bayesnn(trained_supernet, mnist_splits.val,
                                  ood_small, num_samples=3)
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.ece <= 1.0
        assert report.ape >= 0.0
        assert report.nll >= 0.0
        assert 0.0 <= report.brier <= 2.0
        assert report.num_mc_samples == 3

    def test_percent_conversions(self):
        report = AlgorithmicReport(accuracy=0.91, ece=0.074, ape=0.98,
                                   nll=0.5, brier=0.2, num_mc_samples=3)
        assert report.accuracy_percent == pytest.approx(91.0)
        assert report.ece_percent == pytest.approx(7.4)

    def test_as_dict_includes_extras(self):
        report = AlgorithmicReport(accuracy=0.9, ece=0.1, ape=1.0,
                                   nll=0.3, brier=0.2, num_mc_samples=3,
                                   extras={"custom": 1.5})
        d = report.as_dict()
        assert d["custom"] == 1.5
        assert d["accuracy"] == 0.9

    def test_epistemic_extras_present(self, trained_supernet, mnist_splits,
                                      ood_small):
        trained_supernet.set_config(("B", "B", "B"))
        report = evaluate_bayesnn(trained_supernet, mnist_splits.val,
                                  ood_small, num_samples=3)
        assert "mean_epistemic_id" in report.extras
        assert "mean_epistemic_ood" in report.extras

    def test_batched_evaluation(self, trained_supernet, mnist_splits,
                                ood_small):
        """The fused (batched) engine's report equals the looped
        oracle's; Masksembles' static masks draw no randomness."""
        trained_supernet.set_config(("M", "M", "M"))
        report = evaluate_bayesnn(trained_supernet, mnist_splits.val,
                                  ood_small, num_samples=2)
        assert 0.0 <= report.accuracy <= 1.0
        with looped_mc():
            looped = evaluate_bayesnn(trained_supernet, mnist_splits.val,
                                      ood_small, num_samples=2)
        assert report == looped
