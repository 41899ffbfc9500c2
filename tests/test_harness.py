import csv
import math
import time
import warnings

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
from stagedtree.consensus import ResamplePlan, run_bootstrap_consensus
from stagedtree.dataset import derived_seed, kfold_indices, kfold_split
from stagedtree.learning import order_search_dp
from stagedtree.tree import FitConfig, bic, fit, log_likelihood, n_parameters
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


def reference_run_cv(d, algorithms, folds, bootstrap_replicates, cut=0.5, seed=0, order=None,
                     fixed_last=None, predictive_smoothing=1.0, linkage="average", reorder_per_fold=False):
    """The records of ``run_cv`` without their wall times, one
    ``run_bootstrap_consensus`` per fold and algorithm, each staged alone."""
    records = []
    for fold_index, (train, test) in enumerate(kfold_split(d, folds, derived_seed(seed, 0))):
        plan = ResamplePlan(bootstrap_replicates, derived_seed(seed, 1 + fold_index))
        for cfg in algorithms:
            if order is not None:
                fold_order = order
            else:
                fold_order, _ = order_search_dp(train if reorder_per_fold else d, cfg, fixed_last=fixed_last)
            model = run_bootstrap_consensus(train, fold_order, plan, cfg, cut=cut, linkage=linkage).averaged
            predictive = fit(model, train, FitConfig(predictive_smoothing))
            records.append(
                (fold_index, cfg.label(), bic(model, train), log_likelihood(predictive, test), n_parameters(model))
            )
    return records


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

    def test_unsmoothed_prediction_summarized_without_nan(self):
        # Without predictive smoothing, fold 1 holds out both (a, y) rows and
        # scores -inf; the summary reads -inf, not nan, and warns of nothing.
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        d = Dataset(schema, np.array([[0, 0]] * 30 + [[1, 0]] * 30 + [[0, 1]] * 2))
        report = run_cv(d, [LearnConfig()], folds=2, bootstrap_replicates=1, seed=0, order=(0, 1), predictive_smoothing=0.0)
        assert [r.test_loglik == -math.inf for r in report.records] == [False, True]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = summarize(report)
        assert not any(math.isnan(x) for r in rows for x in (r.minimum, r.q1, r.median, r.q3, r.maximum))
        loglik = next(r for r in rows if r.metric == "test_loglik")
        assert loglik.minimum == -math.inf and loglik.maximum == report.records[0].test_loglik

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
            ({"folds": 2, "cut": 1.5}, ModelError, "cut height must lie strictly between 0 and 1"),
            ({"folds": 2, "cut": 0.0}, ModelError, "cut height must lie strictly between 0 and 1"),
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

    def test_repeated_algorithm_rejected_before_order_search(self, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("the order search ran")

        monkeypatch.setattr(harness, "order_search_dp", search)
        algorithms = [LearnConfig("kparents", k=2), LearnConfig(), LearnConfig("kparents", k=2, smoothing=0.5)]
        with pytest.raises(ModelError, match="algorithm kparents:2 given more than once"):
            run_cv(toy_data(np.random.default_rng(4)), algorithms, folds=2, bootstrap_replicates=1)

    @pytest.mark.parametrize("args", [{"order": (2, 0, 1)}, {"reorder_per_fold": True}])
    def test_every_pair_checked_before_any_draw(self, monkeypatch, args):
        # The co-staging tally of every depth of every (fold, algorithm) is
        # checked before any fold draws a replicate: refuse the last check.
        # A searched order first has its deepest depth checked on the full
        # data.
        checks = 3 * 2 * 3 + ("order" not in args)
        calls = []

        def check(k, depth):
            calls.append(depth)
            if len(calls) == checks:
                raise ModelError("last check")

        monkeypatch.setattr(consensus, "_check_tally", check)
        monkeypatch.setattr(consensus, "_bootstrap_rows", lambda n, seed: pytest.fail("a replicate was drawn"))
        d = toy_data(np.random.default_rng(5), n=60)
        with pytest.raises(ModelError, match="last check"):
            run_cv(d, [LearnConfig(), LearnConfig("kparents", k=1)], folds=3, bootstrap_replicates=2, **args)
        assert calls[-3:] == [0, 1, 2]

    @pytest.mark.parametrize(
        "args",
        [
            {"folds": 3, "fixed_last": 2},  # the full-data order
            {"folds": 3, "reorder_per_fold": True},
            {"folds": 4, "order": (2, 0, 1)},
            {"folds": 7, "smoothing": 0.5},  # train sizes 85 and 86
            {"folds": 2, "cut": 0.3, "linkage": "complete", "predictive_smoothing": 0.5},
        ],
    )
    def test_records_equal_each_fold_alone(self, args):
        args = dict(args)
        smoothing = args.pop("smoothing", 0.0)
        d = toy_data(np.random.default_rng(8), n=100)
        algorithms = [LearnConfig(smoothing=smoothing), LearnConfig("kparents", k=1, smoothing=smoothing)]
        report = run_cv(d, algorithms, bootstrap_replicates=3, seed=12, **args)
        assert [strip_time(r) for r in report.records] == reference_run_cv(d, algorithms, bootstrap_replicates=3, seed=12, **args)

    def test_wall_times_share_the_run(self):
        d = toy_data(np.random.default_rng(9), n=90)
        started = time.perf_counter()
        report = run_cv(d, [LearnConfig(), LearnConfig("kparents", k=1)], folds=3, bootstrap_replicates=2, seed=1)
        elapsed = time.perf_counter() - started
        times = [r.wall_time for r in report.records]
        assert all(math.isfinite(t) and t >= 0 for t in times)
        assert sum(times) <= elapsed


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

    def test_infinite_scores_give_no_nan(self):
        # A fold scored -inf: numpy's linear interpolation gives nan next to
        # it (with a RuntimeWarning); the summary takes the limit instead.
        records = tuple(CvRecord(i, "bhc", b, t, 3, 0.0) for i, (b, t) in enumerate([(5.0, -math.inf), (7.0, -3.0)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = {r.metric: r for r in summarize(CvReport(2, records))}
        loglik = rows["test_loglik"]
        assert (loglik.minimum, loglik.q1, loglik.median, loglik.q3, loglik.maximum) == (
            -math.inf, -math.inf, -math.inf, -math.inf, -3.0,
        )
        bic_row = rows["train_bic"]
        want = np.percentile([5.0, 7.0], [0, 25, 50, 75, 100])
        assert np.array([bic_row.minimum, bic_row.q1, bic_row.median, bic_row.q3, bic_row.maximum]).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "values, want",
        [
            ([-math.inf, -math.inf, -2.0, -1.0, 0.0], [-math.inf, -math.inf, -2.0, -1.0, 0.0]),
            ([-math.inf, 1.0, 2.0, 3.0, math.inf], [-math.inf, 1.0, 2.0, 3.0, math.inf]),
            ([1.0, math.inf], [1.0, math.inf, math.inf, math.inf, math.inf]),
            ([-math.inf, -math.inf], [-math.inf] * 5),
        ],
    )
    def test_quartiles_next_to_infinities(self, values, want):
        records = tuple(CvRecord(i, "bhc", 1.0, v, 3, 0.0) for i, v in enumerate(values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = next(r for r in summarize(CvReport(len(values), records)) if r.metric == "test_loglik")
        assert [row.minimum, row.q1, row.median, row.q3, row.maximum] == want

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
