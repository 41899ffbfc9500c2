import csv
import math

import numpy as np
import pytest

from stagedtree import (
    DataError,
    Dataset,
    LearnConfig,
    ModelError,
    Schema,
    Variable,
    run_cv,
)
from stagedtree.dataset import derived_seed, kfold_indices
from stagedtree import consensus, harness
from stagedtree.harness import CvRecord, CvReport, report_export, summarize


def toy_data(rng, n=120, p=3):
    cols = [rng.integers(0, 2, n)]
    for _ in range(p - 1):
        prev = cols[-1]
        cols.append(np.where(rng.random(n) < 0.8, prev, 1 - prev))
    schema = Schema(tuple(Variable(f"X{i+1}", ("a", "b")) for i in range(p)))
    return Dataset(schema, np.column_stack(cols))


def strip_time(record):
    return (record.fold, record.algorithm, record.train_bic, record.test_loglik, record.n_parameters)


class TestRunCv:
    def test_record_shape(self):
        rng = np.random.default_rng(0)
        d = toy_data(rng)
        report = run_cv(d, [LearnConfig()], folds=2, bootstrap_replicates=1, seed=3)
        assert report.folds == 2
        assert len(report.records) == 2
        assert {r.fold for r in report.records} == {0, 1}

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        d = toy_data(rng)
        args = dict(folds=2, bootstrap_replicates=2, seed=9)
        a = run_cv(d, [LearnConfig(), LearnConfig("kparents", k=1)], **args)
        b = run_cv(d, [LearnConfig(), LearnConfig("kparents", k=1)], **args)
        assert [strip_time(r) for r in a.records] == [strip_time(r) for r in b.records]

    @pytest.mark.parametrize("order", [None, (2, 0, 1)])
    def test_each_fold_replicate_drawn_once(self, monkeypatch, order):
        # The algorithms of a fold share one draw and tally of each
        # replicate, and score what they score on draws of their own.
        d = toy_data(np.random.default_rng(4), n=80)
        algorithms = [LearnConfig(), LearnConfig("kparents", k=1)]
        args = dict(folds=2, bootstrap_replicates=3, seed=6, order=order)
        alone = [strip_time(r) for cfg in algorithms for r in run_cv(d, [cfg], **args).records]
        drawn = []
        real = consensus._bootstrap_rows
        monkeypatch.setattr(consensus, "_bootstrap_rows", lambda n, seed: drawn.append(seed) or real(n, seed))
        together = run_cv(d, algorithms, **args)
        assert len(drawn) == len(set(drawn)) == 2 * 3
        assert sorted(strip_time(r) for r in together.records) == sorted(alone)

    def test_test_rows_never_influence_training(self):
        rng = np.random.default_rng(2)
        d = toy_data(rng, n=60)
        seed = 11
        order = (0, 1, 2)
        baseline = run_cv(
            d, [LearnConfig()], folds=2, bootstrap_replicates=2, seed=seed, order=order
        )

        # poison the rows that fold 0 holds out; fold 0's training is untouched
        fold0_test = kfold_indices(d.n, 2, derived_seed(seed, 0))[0]
        poisoned_rows = d.rows.copy()
        # flipping levels keeps the schema identical (both levels still occur)
        poisoned_rows[fold0_test] = 1 - poisoned_rows[fold0_test]
        poisoned = run_cv(
            Dataset(d.schema, poisoned_rows),
            [LearnConfig()],
            folds=2,
            bootstrap_replicates=2,
            seed=seed,
            order=order,
        )
        base0 = next(r for r in baseline.records if r.fold == 0)
        pois0 = next(r for r in poisoned.records if r.fold == 0)
        assert base0.train_bic == pois0.train_bic
        assert base0.n_parameters == pois0.n_parameters

    def test_predictive_smoothing_keeps_test_score_finite(self):
        # training split misses one level combination present in the test split
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        rows = np.array([[0, 0]] * 30 + [[1, 0]] * 30 + [[0, 1]] * 2)
        d = Dataset(schema, rows)
        report = run_cv(
            d, [LearnConfig()], folds=2, bootstrap_replicates=1, seed=1, order=(0, 1)
        )
        assert all(math.isfinite(r.test_loglik) for r in report.records)

    def test_explicit_order_is_used(self):
        rng = np.random.default_rng(3)
        d = toy_data(rng, n=80)
        report = run_cv(
            d, [LearnConfig()], folds=2, bootstrap_replicates=1, seed=5, order=(2, 1, 0)
        )
        assert len(report.records) == 2

    def test_explicit_order_rejects_search_flags(self):
        d = toy_data(np.random.default_rng(6), n=40)
        for extra in ({"fixed_last": 0}, {"reorder_per_fold": True}):
            with pytest.raises(ModelError, match="explicit order"):
                run_cv(d, [LearnConfig()], folds=2, bootstrap_replicates=1, order=(2, 1, 0), **extra)

    @pytest.mark.parametrize(
        "args, error, match",
        [
            ({"folds": 1}, DataError, "folds must lie between 2 and the row count N=40, got 1"),
            ({"folds": 41}, DataError, "folds must lie between 2 and the row count N=40, got 41"),
            ({"folds": 2, "predictive_smoothing": -1.0}, ModelError, "smoothing must be non-negative"),
            ({"folds": 2, "predictive_smoothing": float("nan")}, ModelError, "smoothing must be non-negative"),
            ({"folds": 2, "bootstrap_replicates": 0}, DataError, "bootstrap_replicates must be at least 1, got 0"),
        ],
    )
    def test_bad_settings_rejected_before_order_search(self, monkeypatch, args, error, match):
        def search(*args, **kwargs):
            raise AssertionError("the order search ran")

        monkeypatch.setattr(harness, "order_search_dp", search)
        with pytest.raises(error, match=match):
            run_cv(toy_data(np.random.default_rng(7), n=40), [LearnConfig()], **{"bootstrap_replicates": 1, **args})

    def test_no_algorithms_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ModelError):
            run_cv(toy_data(rng), [], folds=2, bootstrap_replicates=1)


class TestSummaries:
    def make_report(self, values):
        records = tuple(
            CvRecord(i, "bhc", v, -v, 3, 0.0) for i, v in enumerate(values)
        )
        return CvReport(len(values), records)

    def test_single_record_quartiles_collapse(self):
        rows = summarize(self.make_report([5.0]))
        bic_row = next(r for r in rows if r.metric == "train_bic")
        assert (bic_row.minimum, bic_row.q1, bic_row.median, bic_row.q3, bic_row.maximum) == (
            5.0, 5.0, 5.0, 5.0, 5.0,
        )

    def test_ten_records_median_is_middle_mean(self):
        values = [float(v) for v in range(1, 11)]
        rows = summarize(self.make_report(values))
        bic_row = next(r for r in rows if r.metric == "train_bic")
        assert bic_row.median == (values[4] + values[5]) / 2
        assert bic_row.minimum == 1.0 and bic_row.maximum == 10.0

    def test_export_and_recompute(self, tmp_path):
        rng = np.random.default_rng(6)
        report = self.make_report(sorted(rng.random(7).tolist()))
        records_csv = tmp_path / "records.csv"
        summary_csv = tmp_path / "summary.csv"
        report_export(report, str(records_csv), str(summary_csv))

        with open(records_csv) as fh:
            rows = list(csv.DictReader(fh))
        # Wall times are not results: they go only to the CLI's cv_timings.csv.
        assert list(rows[0]) == ["fold", "algorithm", "train_bic", "test_loglik", "n_parameters"]
        rebuilt = CvReport(
            report.folds,
            tuple(
                CvRecord(
                    int(r["fold"]),
                    r["algorithm"],
                    float(r["train_bic"]),
                    float(r["test_loglik"]),
                    int(r["n_parameters"]),
                    original.wall_time,
                )
                for r, original in zip(rows, report.records)
            ),
        )
        with open(summary_csv) as fh:
            emitted = list(csv.DictReader(fh))
        recomputed = summarize(rebuilt)
        assert len(emitted) == len(recomputed)
        for row, summary in zip(emitted, recomputed):
            assert row["algorithm"] == summary.algorithm
            assert row["metric"] == summary.metric
            assert float(row["median"]) == summary.median
            assert float(row["q1"]) == summary.q1
            assert float(row["q3"]) == summary.q3
