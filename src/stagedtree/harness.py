"""Cross-validated evaluation of consensus learners.

Per fold and algorithm: bootstrap-consensus learning on the training split,
train BIC at the structure-learning smoothing, and held-out log-likelihood
under a refit with predictive smoothing (so unseen contexts do not send the
test score to -inf). Test rows never reach any learner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .consensus import _check_vote_tallies, _shared_draws, run_bootstrap_consensus
from .dataset import Dataset, ResamplePlan, _write_csv, derived_seed, kfold_split
from .errors import DataError, ModelError
from .learning import order_search_dp
from .tree import FitConfig, StagedTree, bic, fit, log_likelihood, n_parameters

__all__ = ["CvRecord", "CvReport", "SummaryRow", "run_cv", "summarize", "report_export"]


@dataclass(frozen=True)
class CvRecord:
    fold: int
    algorithm: str
    train_bic: float
    test_loglik: float
    n_parameters: int
    wall_time: float


@dataclass(frozen=True)
class CvReport:
    folds: int
    records: tuple[CvRecord, ...]


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    metric: str
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def run_cv(
    d: Dataset,
    algorithms,
    folds: int,
    bootstrap_replicates: int,
    cut: float = 0.5,
    seed: int = 0,
    order=None,
    fixed_last: int | None = None,
    predictive_smoothing: float = 1.0,
    linkage: str = "average",
    reorder_per_fold: bool = False,
) -> CvReport:
    """Evaluate each algorithm with within-fold bootstrap consensus.

    The variable ordering is learned once on the full data per algorithm and
    reused across folds, unless an explicit ``order`` is supplied or
    ``reorder_per_fold`` asks for a per-fold search. ``fixed_last`` and
    ``reorder_per_fold`` steer the search, so neither is taken with ``order``.
    The fold count, the replicate count, the predictive smoothing and, for a
    searched order, the co-staging tally of its deepest depth are checked
    before any search.
    """
    algorithms = list(algorithms)
    if not algorithms:
        raise ModelError("need at least one algorithm")
    if order is not None and (fixed_last is not None or reorder_per_fold):
        raise ModelError("an explicit order takes neither fixed_last nor reorder_per_fold")
    if not 2 <= folds <= d.n:
        raise DataError(f"folds must lie between 2 and the row count N={d.n}, got {folds}")
    if bootstrap_replicates < 1:
        raise DataError(f"bootstrap_replicates must be at least 1, got {bootstrap_replicates}")
    predictive_cfg = FitConfig(predictive_smoothing)
    if order is None:
        _check_vote_tallies(d.schema, fixed_last)

    full_orders = {}
    if order is not None:
        for cfg in algorithms:
            full_orders[cfg.label()] = tuple(order)
    elif not reorder_per_fold:
        for cfg in algorithms:
            full_orders[cfg.label()], _ = order_search_dp(d, cfg, fixed_last=fixed_last)

    splits = kfold_split(d, folds, derived_seed(seed, 0))
    records = []
    for fold_index, (train, test) in enumerate(splits):
        plan = ResamplePlan(bootstrap_replicates, derived_seed(seed, 1 + fold_index))
        with _shared_draws(train, plan):  # one draw and tally for every algorithm
            for cfg in algorithms:
                started = time.perf_counter()
                if reorder_per_fold:
                    fold_order, _ = order_search_dp(train, cfg, fixed_last=fixed_last)
                else:
                    fold_order = full_orders[cfg.label()]
                result = run_bootstrap_consensus(train, fold_order, plan, cfg, cut=cut, linkage=linkage)
                model: StagedTree = result.averaged
                train_score = bic(model, train)
                predictive = fit(model, train, predictive_cfg)
                test_score = log_likelihood(predictive, test)
                elapsed = time.perf_counter() - started
                records.append(
                    CvRecord(
                        fold_index,
                        cfg.label(),
                        train_score,
                        test_score,
                        n_parameters(model),
                        elapsed,
                    )
                )
    return CvReport(folds, tuple(records))


_METRICS = ("train_bic", "test_loglik", "n_parameters")


def summarize(report: CvReport) -> list[SummaryRow]:
    """Quartile summary per algorithm and metric (linear interpolation)."""
    algorithms = sorted({r.algorithm for r in report.records})
    rows = []
    for algorithm in algorithms:
        values = [r for r in report.records if r.algorithm == algorithm]
        for metric in _METRICS:
            data = np.asarray([getattr(r, metric) for r in values], dtype=float)
            q = np.percentile(data, [0, 25, 50, 75, 100])
            rows.append(SummaryRow(algorithm, metric, *(float(x) for x in q)))
    return rows


def report_export(report: CvReport, records_path: str, summary_path: str) -> None:
    """Write raw records and quartile summaries as CSV.

    Floats use full precision so recomputing the summary from the records
    file reproduces it exactly.
    """
    _write_csv(
        records_path,
        ["fold", "algorithm", "train_bic", "test_loglik", "n_parameters"],
        ([r.fold, r.algorithm, r.train_bic, r.test_loglik, r.n_parameters] for r in report.records),
    )
    _write_csv(
        summary_path,
        ["algorithm", "metric", "min", "q1", "median", "q3", "max"],
        ([s.algorithm, s.metric, s.minimum, s.q1, s.median, s.q3, s.maximum] for s in summarize(report)),
    )
