"""Robust structure learning by bootstrap aggregation.

Replicates are resampled with per-replicate seeds derived from the master
seed and tallied together; the orderings and stagings of all replicates are
then learned from those tallies, and a reduce tallies orderings, co-staging
disagreement, and edge labels. All aggregate statistics are kept as integer
counts internally so invariants like "the two directions of an order vote
sum to M" hold exactly.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .aldag import LABELS, _edge_labels, _label_kinds
from .dataset import Dataset, ResamplePlan, _bootstrap_rows, _write_csv, cell_count
from .errors import DataError, ModelError
from .learning import LearnConfig, _dp_orders, _dp_variables, _stage_tables, _start_tables
from .tree import (
    FitConfig,
    Ordering,
    StageAssignment,
    StagedTree,
    canonical_stage_assignment,
    context_label,
    context_shape,
    context_tuples,
    fit,
    n_contexts,
    validate_order,
)

__all__ = [
    "OrderVoteMatrix",
    "ConsensusOrder",
    "StagingEnsemble",
    "ConsensusResult",
    "EdgeStrengthRow",
    "tally_orders",
    "bootstrap_orders",
    "consensus_order",
    "ensemble_from_stagings",
    "consensus_staging",
    "staging_heatmap_export",
    "run_bootstrap_consensus",
]


@dataclass(frozen=True, eq=False)
class OrderVoteMatrix:
    """Pairwise precedence votes over M learned orderings.

    ``counts[j, k]`` is the number of replicates in which variable j preceded
    variable k; the diagonal is unused and held at zero.
    """

    counts: np.ndarray = field(repr=False)
    replicates: int

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        p = counts.shape[0]
        if counts.shape != (p, p):
            raise ModelError("vote counts must be a square matrix")
        if np.diag(counts).any():
            raise ModelError("vote matrix diagonal must be zero")
        off = ~np.eye(p, dtype=bool)
        if not np.array_equal((counts + counts.T)[off], np.full(p * p - p, self.replicates)):
            raise ModelError("votes for (j,k) and (k,j) must sum to the replicate count")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def p(self) -> int:
        return self.counts.shape[0]

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.replicates


@dataclass(frozen=True)
class ConsensusOrder:
    """A linearization of the vote matrix; ``cyclic`` flags intransitive
    pairwise majorities that no ordering can fully respect."""

    order: Ordering
    cyclic: bool


def tally_orders(orders, p: int) -> OrderVoteMatrix:
    counts = np.zeros((p, p), dtype=np.int64)
    n = 0
    for order in orders:
        order = tuple(order)
        if sorted(order) != list(range(p)):
            raise ModelError(f"order {order} is not a permutation of 0..{p - 1}")
        position = np.empty(p, dtype=np.int64)
        for idx, v in enumerate(order):
            position[v] = idx
        counts += position[:, None] < position[None, :]
        n += 1
    if n == 0:
        raise ModelError("cannot tally an empty collection of orders")
    return OrderVoteMatrix(counts, n)


def _draws(n: int, plan: ResamplePlan) -> np.ndarray:
    """The row indices of every bootstrap replicate i of ``plan`` of an
    n-row dataset, drawn from its seed, stacked in replicate order; a failure
    keeps its type and is noted with the replicate index and seed that
    reproduce it."""
    draws = np.empty((plan.replicates, n), dtype=np.int64)
    for index in range(plan.replicates):
        seed = plan.replicate_seed(index)
        try:
            draws[index] = _bootstrap_rows(n, seed)
        except Exception as exc:
            exc.add_note(f"in bootstrap replicate {index} (seed {seed})")
            raise
    return draws


# Set by _shared_draws: the dataset and plan whose replicates are drawn once,
# then the counts of every variable of each replicate, once tallied.
_shared = None


@contextmanager
def _shared_draws(d: Dataset, plan: ResamplePlan):
    """Within this block, ``_replicate_counts`` of ``d`` and ``plan`` draws
    and tallies each replicate once, on its first call, and every call reads
    its counts from that tally, so the order votes and the stagings of one
    command share their replicates."""
    global _shared
    _shared = [d, plan, None]
    try:
        yield
    finally:
        _shared = None


def _replicate_counts(d: Dataset, plan: ResamplePlan, columns) -> np.ndarray:
    """``Dataset.counts(columns)`` of every replicate of ``plan``, stacked in
    replicate order, (M, levels...). Each replicate's row indices are drawn
    from its seed and all of them are tallied through one ``Dataset.counts``
    call, so no replicate is copied. Within ``_shared_draws`` the counts are
    the int64 sums and transposes of the replicates' counts of all
    variables, which are bit-equal to a tally of their own."""
    columns = tuple(columns)
    if _shared is None or _shared[0] is not d or _shared[1] != plan:
        return d.counts(columns, _draws(d.n, plan))
    every = tuple(range(len(d.schema)))
    if _shared[2] is None:
        _shared[2] = d.counts(every, _draws(d.n, plan))
    absent = tuple(v + 1 for v in every if v not in columns)
    kept = sorted(columns)
    return _shared[2].sum(axis=absent).transpose([0] + [kept.index(v) + 1 for v in columns])


def bootstrap_orders(
    d: Dataset,
    plan: ResamplePlan,
    cfg: LearnConfig,
    fixed_last: int | None = None,
) -> OrderVoteMatrix:
    """Learn one optimal ordering per bootstrap replicate and tally pairwise
    precedence frequencies. The dynamic-programming guard is checked before
    any replicate is drawn.

    Each replicate is drawn once and tallied over the variables the DP
    arranges; the subset DPs of all replicates are scored together and each
    replicate's recursion runs on its own tally."""
    variables = _dp_variables(len(d.schema), fixed_last)
    joints = _replicate_counts(d, plan, variables)
    return tally_orders(_dp_orders(joints, variables, d.n, cfg, fixed_last), len(d.schema))


def consensus_order(votes: OrderVoteMatrix, tie_seed: int | None = None) -> ConsensusOrder:
    """Linearize the vote matrix by descending Copeland score.

    A variable's score counts the opponents it beats or ties at the majority
    threshold. When the pairwise majorities are transitive this reproduces the
    order they define; otherwise the result is flagged cyclic. Score ties go
    to the smaller variable index, or to a seeded random rank when
    ``tie_seed`` is given.
    """
    if tie_seed is not None and not 0 <= tie_seed < 2**64:
        raise ModelError(f"tie seed must be a 64-bit unsigned integer, got {tie_seed}")
    counts = votes.counts
    m = votes.replicates
    p = votes.p
    wins = np.zeros(p, dtype=np.int64)
    for j in range(p):
        for k in range(p):
            if j != k and 2 * counts[j, k] >= m:
                wins[j] += 1
    if tie_seed is None:
        tiebreak = np.arange(p)
    else:
        tiebreak = np.random.default_rng(tie_seed).permutation(p)
    order = tuple(sorted(range(p), key=lambda j: (-wins[j], int(tiebreak[j]))))
    cyclic = any(
        2 * counts[order[a], order[b]] < m
        for a in range(p)
        for b in range(a + 1, p)
    )
    return ConsensusOrder(order, cyclic)


@dataclass(frozen=True, eq=False)
class StagingEnsemble:
    """Replicate stagings per depth plus their co-staging disagreement.

    ``z[j]`` has one column per replicate holding the stage id of every
    depth-j context; ``dissimilarity[j][u, v]`` is the fraction of replicates
    that place contexts u and v in different stages.
    """

    order: Ordering
    z: tuple[np.ndarray, ...]
    dissimilarity: tuple[np.ndarray, ...]

    @property
    def replicates(self) -> int:
        return self.z[0].shape[1]

    @property
    def depths(self) -> int:
        return len(self.z)


def _check_tally(k: int, depth: int) -> None:
    """Refuse a k x k co-staging tally past MAX_CONTEXTS, naming its depth."""
    cell_count((k, k), f"cells in the co-staging tally of depth {depth} with {k} contexts")


def _check_vote_tallies(schema, fixed_last: int | None) -> None:
    """Refuse, before any replicate is drawn or order searched, order votes
    whose consensus ordering could not pass the co-staging tally check, after
    the checks of ``_dp_variables``. The deepest depth has the most contexts:
    all variables but the last, which is ``fixed_last`` or, at best, the one
    with the most levels."""
    _dp_variables(len(schema), fixed_last)
    levels = schema.level_counts
    last = levels.index(max(levels)) if fixed_last is None else fixed_last
    _check_tally(math.prod(levels) // levels[last], len(levels) - 1)


def _disagreement(z: np.ndarray, depth: int) -> np.ndarray:
    """Fraction of replicates (columns of ``z``) that stage each pair of
    depth-``depth`` contexts apart, from integer counts added one replicate
    at a time, so memory stays k x k whatever the replicate count. The k x k
    tally is bounded by the MAX_CONTEXTS guard."""
    k, m = z.shape
    _check_tally(k, depth)
    apart = np.zeros((k, k), dtype=np.int64)
    for stage_of in z.T:
        apart += stage_of[:, None] != stage_of[None, :]
    return apart / m


def _check_stage_ids(z: np.ndarray, depth: int) -> None:
    """Refuse a replicate (column of ``z``) whose stage ids at ``depth`` are
    not contiguous from 0, as a StageAssignment's must be."""
    ids = np.sort(z, axis=0)
    bad = (ids[0] != 0) | (np.diff(ids, axis=0) > 1).any(axis=0)
    if bad.any():
        raise ModelError(f"stage ids of replicate {int(bad.argmax())} at depth {depth} must be contiguous from 0")


def ensemble_from_stagings(order, replicate_stagings) -> StagingEnsemble:
    """Assemble the per-depth stage-id matrices from replicate stagings.

    ``replicate_stagings`` holds, per replicate, one stage-id array (or
    StageAssignment) per depth.
    """
    replicate_stagings = list(replicate_stagings)
    if not replicate_stagings:
        raise ModelError("need at least one replicate staging")
    depths = len(replicate_stagings[0])
    z = []
    for depth in range(depths):
        cols = []
        for rep in replicate_stagings:
            stage_of = rep[depth].stage_of if isinstance(rep[depth], StageAssignment) else rep[depth]
            cols.append(np.asarray(stage_of, dtype=np.int64))
        z.append(np.column_stack(cols))
        _check_stage_ids(z[-1], depth)
    dissimilarity = tuple(_disagreement(mat, depth) for depth, mat in enumerate(z))
    return StagingEnsemble(tuple(order), tuple(z), dissimilarity)


def _check_cut(cut: float) -> None:
    if not 0 < cut < 1:
        raise ModelError("cut height must lie strictly between 0 and 1")


def consensus_staging(
    d_matrix: np.ndarray, cut: float, depth: int, linkage: str = "average"
) -> StageAssignment:
    """Cluster the disagreement matrix and cut the dendrogram at ``cut``.

    Contexts whose merge heights stay at or below the cut end up in the same
    consensus stage. The dendrogram is the one scipy's ``linkage`` builds, by
    the nearest-neighbour chain of Müllner, "Modern hierarchical,
    agglomerative clustering algorithms" (arXiv:1109.2378), and the cut is
    scipy's ``fcluster(criterion="distance")``, so the stages are scipy's.
    """
    d_matrix = np.asarray(d_matrix, dtype=float)
    k = d_matrix.shape[0]
    if d_matrix.shape != (k, k) or not np.array_equal(d_matrix, d_matrix.T):
        raise ModelError("dissimilarity matrix must be square and symmetric")
    if np.diag(d_matrix).any():
        raise ModelError("dissimilarity matrix must have a zero diagonal")
    if (d_matrix < 0).any() or (d_matrix > 1).any():
        raise ModelError("dissimilarity entries must lie in [0, 1]")
    _check_cut(cut)
    if linkage not in ("average", "complete", "single"):
        raise ModelError(f"unsupported linkage {linkage!r}")
    if k == 1:
        return StageAssignment(depth, np.zeros(1, dtype=np.int64), 1)
    return canonical_stage_assignment(depth, _flat_clusters(_nn_chain(d_matrix, linkage), cut))


# The Lance-Williams update of each linkage: the distance from the cluster
# that merges x (of size nx) and y (of size ny) to every other cluster, from
# the rows of x and y, computed as scipy's nn_chain computes it.
_LINKAGE_UPDATES = {
    "average": lambda dx, dy, nx, ny: (nx * dx + ny * dy) / (nx + ny),
    "complete": lambda dx, dy, nx, ny: np.maximum(dx, dy),
    "single": lambda dx, dy, nx, ny: np.minimum(dx, dy),
}


def _nn_chain(d_matrix: np.ndarray, method: str) -> np.ndarray:
    """The k - 1 merges (x, y, height, size) of a k x k dissimilarity matrix,
    as scipy's ``nn_chain`` makes them for "average" and "complete", bit for
    bit: scipy's ``linkage`` sorts these rows stably by height, then puts in
    x, y and size those of the nodes x and y had become. x < y are slots:
    the merged cluster takes slot y, and the cluster in a slot always holds
    the leaf of that index. scipy builds "single" linkage from a spanning
    tree instead, which merges in another order but gives the same flat
    clusters at every cut: the components of ``d <= cut``.

    The chain starts at the lowest live cluster and moves to the nearest
    neighbour of its last cluster: the lowest index at the row's minimum, or
    the cluster before it in the chain when that one is as near. Two
    clusters that are each other's nearest merge and leave the chain."""
    k = d_matrix.shape[0]
    update = _LINKAGE_UPDATES[method]
    dist = d_matrix.copy()
    np.fill_diagonal(dist, np.inf)  # a dead cluster's column is inf as well
    size = [1] * k
    live = np.ones(k, dtype=bool)
    merges = []
    chain = []
    for _ in range(k - 1):
        if not chain:
            chain.append(int(live.argmax()))
        while True:
            x = chain[-1]
            row = dist[x]
            y = int(row.argmin())
            if len(chain) > 1 and not row[y] < row[chain[-2]]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        merges.append((x, y, dist[x, y], nx + ny))
        joined = update(dist[x], dist[y], nx, ny)
        joined[y] = np.inf
        dist[y] = joined
        dist[:, y] = joined
        dist[:, x] = np.inf
        live[x] = False
        size[y] = nx + ny
    return np.array(merges)


def _flat_clusters(merges: np.ndarray, cut: float) -> np.ndarray:
    """The cluster of each leaf in scipy's ``fcluster(criterion="distance")``
    of the linkage of ``merges`` (rows of ``_nn_chain``), named by its
    highest leaf. fcluster keeps a node whole when no merge under it is
    higher than ``cut``. Sorted by height, every merge under a node is at
    most as high as the node, so the merges it keeps are those at most
    ``cut`` high, each joining the clusters of its leaves x and y."""
    joined_to = list(range(len(merges) + 1))
    for x, y, height, _ in merges.tolist():
        if height <= cut:
            joined_to[int(x)] = int(y)
    for leaf in reversed(range(len(joined_to))):  # y > x: a leaf's target is resolved first
        joined_to[leaf] = joined_to[joined_to[leaf]]
    return np.array(joined_to)


@dataclass(frozen=True)
class EdgeStrengthRow:
    """How often an edge appeared across replicates, and with which labels.

    Counts are integers out of ``replicates`` so the identity
    sum(label counts) == present holds exactly.
    """

    parent: str
    child: str
    replicates: int
    present: int
    label_counts: dict[str, int]

    @property
    def strength(self) -> float:
        return self.present / self.replicates

    def label_fraction(self, label: str) -> float:
        return self.label_counts.get(label, 0) / self.replicates


def _edge_table(schema, ensemble: StagingEnsemble) -> tuple[EdgeStrengthRow, ...]:
    """The edges of every replicate's ALDAG, counted with their labels: the
    stage grids of one depth of all replicates are labelled together."""
    order, m = ensemble.order, ensemble.replicates
    rows = {}
    for depth in range(1, len(order)):
        kept, seen = _edge_labels(ensemble.z[depth].T, context_shape(schema, order, depth))
        kinds = _label_kinds(seen)
        for axis in np.flatnonzero(kept.any(axis=0)).tolist():
            tally = np.bincount(kinds[kept[:, axis], axis], minlength=len(LABELS))
            labels = {LABELS[kind]: int(count) for kind, count in enumerate(tally.tolist()) if count}
            rows[order[axis], order[depth]] = (int(tally.sum()), dict(sorted(labels.items())))
    names = schema.names
    return tuple(
        EdgeStrengthRow(names[parent], names[child], m, present, labels)
        for (parent, child), (present, labels) in sorted(rows.items())
    )


@dataclass(frozen=True, eq=False)
class ConsensusResult:
    """Everything the bootstrap pipeline produces for one dataset. The edge
    table is built from the ensemble's stage ids when first read."""

    averaged: StagedTree
    stagings: tuple[StageAssignment, ...]
    ensemble: StagingEnsemble

    @cached_property
    def edge_table(self) -> tuple[EdgeStrengthRow, ...]:
        return _edge_table(self.averaged.schema, self.ensemble)


def _consensus_order(schema, order, cut: float) -> Ordering:
    """``order`` validated for ``run_bootstrap_consensus``, which refuses,
    before any replicate is drawn, a ``cut`` outside (0, 1) and a depth whose
    co-staging tally is too large."""
    _check_cut(cut)
    order = validate_order(schema, order)
    for depth in range(len(order)):
        _check_tally(n_contexts(schema, order, depth), depth)
    return order


def _consensus_start(d: Dataset, order: Ordering, plan: ResamplePlan, cfg: LearnConfig):
    """The ``_stage_tables`` run of the replicates of ``plan`` at a checked
    ``order``: their start tables, from one tally of each replicate over
    ``order``, and the row count and smoothing they are staged at."""
    return _start_tables(order, _replicate_counts(d, plan, order), cfg.k), d.n, cfg.smoothing


def _consensus_finish(d: Dataset, order: Ordering, staged, cfg: LearnConfig, cut: float, linkage: str) -> ConsensusResult:
    """The consensus of the replicate stagings ``staged`` of one run of
    ``_stage_tables``: their stage ids go straight into the ensemble, which
    is clustered into a consensus staging per depth, and the averaged tree
    is fitted on ``d``."""
    ensemble = ensemble_from_stagings(order, zip(*(ids for ids, _ in staged)))
    stagings = tuple(
        consensus_staging(ensemble.dissimilarity[depth], cut, depth, linkage)
        for depth in range(len(order))
    )
    averaged = fit(StagedTree(d.schema, order, stagings), d, FitConfig(cfg.smoothing))
    return ConsensusResult(averaged, stagings, ensemble)


def run_bootstrap_consensus(
    d: Dataset,
    order,
    plan: ResamplePlan,
    cfg: LearnConfig,
    cut: float = 0.5,
    linkage: str = "average",
) -> ConsensusResult:
    """Bootstrap stagings at a fixed ordering, cluster them into a consensus
    staging per depth, and fit the averaged tree on the full data. A ``cut``
    outside (0, 1), or a depth whose co-staging tally is too large, is
    rejected before any replicate is drawn.

    Each replicate is drawn once and tallied over ``order``. The start
    tables of a depth of all replicates are built from the stacked tallies
    and merged together; their stage ids go straight into the ensemble. The
    edge table labels each depth of all replicates together, when it is
    first read. ``run_cv`` takes the same three steps, staging the runs of
    all its folds and algorithms together."""
    order = _consensus_order(d.schema, order, cut)
    (staged,) = _stage_tables([_consensus_start(d, order, plan, cfg)])
    return _consensus_finish(d, order, staged, cfg, cut, linkage)


def staging_heatmap_export(d_matrix: np.ndarray, labels, path: str) -> None:
    """Write a dissimilarity matrix as CSV plus a sidecar plot description.

    Floats are written with full precision so a re-import is bit-exact.
    """
    d_matrix = np.asarray(d_matrix, dtype=float)
    labels = list(labels)
    if d_matrix.shape != (len(labels), len(labels)):
        raise DataError("label count does not match the matrix size")
    _write_csv(path, ["context"] + labels, ([label] for label in labels), floats=d_matrix)
    sidecar = {
        "kind": "heatmap",
        "source_csv": os.path.basename(path),
        "labels": labels,
        "vmin": 0.0,
        "vmax": 1.0,
        "colormap": "viridis",
    }
    with open(path + ".plot.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def context_labels_for_depth(schema, order, depth: int) -> list[str]:
    """Row labels for a depth's dissimilarity matrix, in enumeration order."""
    return [context_label(schema, order, ctx) for ctx in context_tuples(schema, order, depth)]
