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

from .consensus import _check_vote_tallies, _consensus_finish, _consensus_order, _consensus_start, _shared_draws
from .dataset import Dataset, ResamplePlan, _split, _write_csv, derived_seed, kfold_indices
from .errors import DataError, ModelError
from .learning import _stage_tables, order_search_dp
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
    The algorithm labels, the fold count, the replicate count, the
    predictive smoothing and, for a searched order, the co-staging tally of
    its deepest depth are checked before any search; every (fold, algorithm)
    consensus is checked as ``run_bootstrap_consensus`` checks it before any
    replicate is drawn.

    Each fold's replicates are drawn and tallied once for all algorithms,
    and the start tables of every fold and algorithm are staged together.
    A record's ``wall_time`` is the time of its own order, start tables and
    finish, plus an equal share of that joint staging.
    """
    algorithms = list(algorithms)
    if not algorithms:
        raise ModelError("need at least one algorithm")
    labels = [cfg.label() for cfg in algorithms]
    for label in labels:
        if labels.count(label) > 1:
            raise ModelError(f"algorithm {label} given more than once")
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

    # The order of every (fold, algorithm), fold after fold, each checked
    # before any replicate is drawn. A fold's datasets are made where they
    # are read, so the rows of one fold are copied at a time.
    tests = kfold_indices(d.n, folds, derived_seed(seed, 0))
    orders, seconds = [], []
    for test_idx in tests:
        train = _split(d, test_idx)[0] if reorder_per_fold else None
        for cfg in algorithms:
            started = time.perf_counter()
            if reorder_per_fold:
                fold_order, _ = order_search_dp(train, cfg, fixed_last=fixed_last)
            else:
                fold_order = full_orders[cfg.label()]
            orders.append(_consensus_order(d.schema, fold_order, cut))
            seconds.append(time.perf_counter() - started)

    runs = []
    for fold_index, test_idx in enumerate(tests):
        train, _ = _split(d, test_idx)
        plan = ResamplePlan(bootstrap_replicates, derived_seed(seed, 1 + fold_index))
        with _shared_draws(train, plan):  # one draw and tally for every algorithm
            for cfg in algorithms:
                at = len(runs)
                started = time.perf_counter()
                runs.append(_consensus_start(train, orders[at], plan, cfg))
                seconds[at] += time.perf_counter() - started

    started = time.perf_counter()
    staged = iter(_stage_tables(runs))
    share = (time.perf_counter() - started) / len(runs)

    records = []
    for fold_index, test_idx in enumerate(tests):
        train, test = _split(d, test_idx)
        for cfg in algorithms:
            at = len(records)
            started = time.perf_counter()
            model: StagedTree = _consensus_finish(train, orders[at], next(staged), cfg, cut, linkage).averaged
            train_score = bic(model, train)
            predictive = fit(model, train, predictive_cfg)
            test_score = log_likelihood(predictive, test)
            elapsed = seconds[at] + share + time.perf_counter() - started
            records.append(CvRecord(fold_index, cfg.label(), train_score, test_score, n_parameters(model), elapsed))
    return CvReport(folds, tuple(records))


_METRICS = ("train_bic", "test_loglik", "n_parameters")
_PERCENTILES = np.array([0, 25, 50, 75, 100])


def _quartiles(data: np.ndarray) -> np.ndarray:
    """The minimum, quartiles and maximum of ``data`` by numpy's linear
    interpolation. Where that meets an infinite value it gives nan; the
    limit it tends to is the infinite value, the lower one first, which is
    taken instead, so a fold scored -inf leaves -inf as the minimum."""
    with np.errstate(invalid="ignore"):
        q = np.percentile(data, _PERCENTILES)
    gap = np.isnan(q)
    if gap.any():
        ordered = np.sort(data)
        position = _PERCENTILES / 100 * (len(data) - 1)
        below, above = ordered[np.floor(position).astype(int)], ordered[np.ceil(position).astype(int)]
        q[gap] = np.where(np.isinf(below), below, above)[gap]
    return q


def summarize(report: CvReport) -> list[SummaryRow]:
    """Quartile summary per algorithm and metric (linear interpolation)."""
    algorithms = sorted({r.algorithm for r in report.records})
    rows = []
    for algorithm in algorithms:
        values = [r for r in report.records if r.algorithm == algorithm]
        for metric in _METRICS:
            data = np.asarray([getattr(r, metric) for r in values], dtype=float)
            rows.append(SummaryRow(algorithm, metric, *(float(x) for x in _quartiles(data))))
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
