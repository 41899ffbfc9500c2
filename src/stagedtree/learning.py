"""Structure learning: greedy stage merging, CMI parent selection, order search.

All searches are pure functions of (data, config); every tie is broken
deterministically so repeated runs give bit-identical results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, cell_count
from .errors import ModelError
from .tree import (
    Ordering,
    StageAssignment,
    StagedTree,
    probabilities_from_counts,
    validate_order,
)

__all__ = [
    "LearnConfig",
    "kparents_learn",
    "learn",
    "cmi",
    "variable_score",
    "ordering_score",
    "order_search_dp",
    "order_search_grouped",
]

# A merge must improve BIC by more than this to be accepted; guards against
# floating-point merge cycles.
MERGE_TOLERANCE = 1e-9

MAX_DP_VARIABLES = 12

# Greedy merging builds its initial pair deltas in blocks of whole problems,
# or of rows of one problem, of at most this many (level, pair) cells, so the
# temporaries stay small beside the k x k delta table.
MERGE_BLOCK_CELLS = 1 << 16

# Start tables of one shape merge in batches whose (B, k, k) delta table holds
# at most this many cells (4 MB of floats), or one table; the MAX_CONTEXTS
# guard bounds a single k x k table. The subset DPs of many replicates are
# scored in groups whose largest layer of start tables holds at most this
# many count cells, or one replicate.
MERGE_BATCH_CELLS = 1 << 19


@dataclass(frozen=True)
class LearnConfig:
    """Staging algorithm selection: plain greedy merging or the CMI-restricted
    variant with at most k parents per variable."""

    algorithm: str = "bhc"
    k: int | None = None
    smoothing: float = 0.0

    def __post_init__(self):
        if self.algorithm not in ("bhc", "kparents"):
            raise ModelError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "kparents" and (self.k is None or self.k < 1):
            raise ModelError("kparents requires k >= 1")
        if self.algorithm != "kparents" and self.k is not None:
            raise ModelError(f"k applies only to kparents, not to {self.algorithm}")
        if not self.smoothing >= 0:
            raise ModelError("smoothing must be non-negative")

    def label(self) -> str:
        return "bhc" if self.algorithm == "bhc" else f"kparents:{self.k}"


def _stage_loglik(counts: np.ndarray, smoothing: float) -> np.ndarray:
    """Multinomial log-likelihood of pooled counts at their MLE (or smoothed
    estimate), with the levels on axis 0: one value per stage along the other
    axes. Callers silence the 0/0 and log-0 warnings of empty cells, whose
    terms are then set to 0.

    Counts are integer-valued, so the totals are exact in any summation
    order. The terms are not: below 8 levels numpy sums a row left to right,
    which is what a reduction over axis 0 does; from 8 levels on it sums a
    contiguous row pairwise, so the terms are summed as contiguous rows.
    """
    levels = counts.shape[0]
    totals = counts.sum(axis=0)
    terms = counts + smoothing
    terms /= totals + smoothing * levels  # the stage probabilities
    np.log(terms, out=terms)
    terms *= counts
    terms[counts <= 0] = 0.0
    if levels < 8:
        return terms.sum(axis=0)
    return np.moveaxis(terms, 0, -1).copy().sum(axis=-1)


def _merge_lockstep(counts: np.ndarray, n_rows: int, smoothing: float, trace: bool = False):
    """Greedy agglomeration of the rows of each of B pooled count tables of
    one shape, ``counts`` being (B, k, levels).

    Each problem starts from its rows as stages and repeatedly applies the
    merge with the best (most negative) BIC delta until no merge improves
    the score by more than MERGE_TOLERANCE. Among bit-equal deltas the pair
    with the lowest (i, j) ids wins, where ids index the initial rows and a
    merged pair keeps the lower id, so each final stage is held by its
    lowest row. Every row caches its best partner (the lowest id among
    bit-equal deltas), so the next merge is the first row minimum, and a row
    is rescanned only when its partner merges (after Muellner).

    The problems merge in lockstep on a (B, k, k) delta table: each step
    takes one merge per still active problem, and a problem drops out once
    no merge improves it. Each element's arithmetic does not depend on the
    batch, so every problem takes the merges it would take alone. A k x k
    table is bounded by the MAX_CONTEXTS guard; callers bound B k^2 with
    ``_batched``.

    Returns the stage of every row, (B, k), numbered by its lowest row; the
    pooled counts of the stages as integer-valued floats, (total stages,
    levels), problem after problem; the stage count of each problem; and,
    with ``trace``, each problem's accepted BIC deltas in order (else None).
    """
    n_problems, k, levels = counts.shape
    cell_count((k, k), f"cells in the merge table of a depth with {k} stages")
    pooled = np.ascontiguousarray(counts.transpose(2, 0, 1), dtype=float)  # (levels, B, k)
    ids = np.arange(k)
    parent = np.tile(ids, (n_problems, 1))
    deltas = [[] for _ in range(n_problems)] if trace else None
    if k >= 2:
        with np.errstate(invalid="ignore", divide="ignore"):
            _merge_steps(pooled, parent, n_rows, smoothing, deltas)
    while True:  # a merged-away stage points at a lower id: resolve to roots
        root = np.take_along_axis(parent, parent, axis=1)
        if (root == parent).all():
            break
        parent = root
    is_root = parent == ids
    stage_of = np.take_along_axis(np.cumsum(is_root, axis=1) - 1, parent, axis=1)
    return stage_of, pooled.transpose(1, 2, 0)[is_root], is_root.sum(axis=1), deltas


def _merge_steps(out: np.ndarray, parent: np.ndarray, n_rows: int, smoothing: float, deltas) -> None:
    """The merges of ``_merge_lockstep``, in place: ``out`` (levels, B, k)
    ends holding each stage's pooled counts (0 once merged away), and
    ``parent`` (B, k) the stage each merged-away stage joined."""
    levels, n_problems, k = out.shape
    param_gain = (levels - 1) * math.log(n_rows)
    ids = np.arange(k)
    ll = _stage_loglik(out, smoothing)
    delta = np.empty((n_problems, k, k))
    rows = max(1, MERGE_BLOCK_CELLS // (levels * k))
    if rows >= k:
        step = rows // k
        blocks = [(slice(b, b + step), slice(None)) for b in range(0, n_problems, step)]
    else:
        blocks = [(slice(b, b + 1), slice(r, r + rows)) for b in range(n_problems) for r in range(0, k, rows)]
    for problems, row in blocks:
        pair_ll = _stage_loglik(out[:, problems, row, None] + out[:, problems, None], smoothing)
        # The log-likelihood of the lower id is subtracted first, as a merge
        # subtracts that of the stage it just formed; the bits of a pair's
        # delta depend on that order.
        lower = ids[row, None] < ids
        own, other = ll[problems, row, None], ll[problems, None]
        first = np.where(lower, own, other)
        second = np.where(lower, other, own)
        delta[problems, row] = -2.0 * (pair_ll - first - second) - param_gain
    delta[:, ids, ids] = np.inf
    partner = delta.argmin(axis=2)
    best = delta.min(axis=2)

    # Row a of pooled, ll, partner and best belongs to the active problem
    # live[a], whose delta table is delta[live[a]]; a problem's counts go
    # back to ``out`` when it stops.
    live = at = np.arange(n_problems)
    pooled = out
    while True:
        i = best.argmin(axis=1)
        go = ~(best[at, i] >= -MERGE_TOLERANCE)
        if not go.all():
            out[:, live[~go]] = pooled[:, ~go]
            live, i = live[go], i[go]
            if not live.size:
                return
            pooled, ll, partner, best = pooled[:, go], ll[go], partner[go], best[go]
            at = np.arange(live.size)
        j = partner[at, i]
        if deltas is not None:
            for problem, value in zip(live.tolist(), best[at, i].tolist()):
                deltas[problem].append(value)
        parent[live, j] = i
        pooled[:, at, i] += pooled[:, at, j]
        pooled[:, at, j] = 0.0  # so column j of the merged row is stage i alone
        ll[at, j] = np.inf  # so the delta of a merged-away stage is inf
        delta[live, :, j] = np.inf  # row j is never read again: its partner is -1
        best[at, j] = np.inf
        partner[at, j] = -1  # never stale, never a tie winner

        merged_ll = _stage_loglik(pooled[:, at, i, None] + pooled, smoothing)
        ll[at, i] = merged_ll[at, j]
        row = -2.0 * (merged_ll - ll[at, i, None] - ll) - param_gain
        row[at, i] = np.inf
        delta[live, i] = row
        delta[live, :, i] = row

        stale = ((partner == i[:, None]) | (partner == j[:, None])).nonzero()
        better = (row < best) | ((row == best) & (partner > i[:, None]))
        np.copyto(partner, i[:, None], where=better)
        np.copyto(best, row, where=better)
        rescan = delta[live[stale[0]], stale[1]]
        partner[stale] = rescan.argmin(axis=1)
        best[stale] = rescan.min(axis=1)


def _bhc_scores(counts: np.ndarray, n_rows: int, smoothing: float) -> list[float]:
    """BIC contribution of the greedy merge of each of B start tables of one
    shape, ``counts`` being (B, k, levels); returns B floats. A problem's
    stage log-likelihoods are summed as one 1-d run of floats."""
    levels = counts.shape[2]
    _, roots, n_stages, _ = _merge_lockstep(counts, n_rows, smoothing)
    with np.errstate(invalid="ignore", divide="ignore"):
        root_ll = _stage_loglik(roots.T, smoothing)
    # Each problem's roots are a contiguous run of root_ll; runs of one
    # length are summed as rows, which numpy sums as it sums a 1-d run.
    first = np.cumsum(n_stages) - n_stages
    loglik = np.empty(len(n_stages))
    for size in np.unique(n_stages):
        rows = (n_stages == size).nonzero()[0]
        loglik[rows] = root_ll[first[rows, None] + np.arange(size)].sum(axis=1)
    return (-2.0 * loglik + n_stages * (levels - 1) * math.log(n_rows)).tolist()


def _batched(tables: list[np.ndarray], merge, keys=None) -> list:
    """``merge`` of every start table of ``tables``, in their order. Tables
    of one shape (k, levels) and one entry of ``keys`` (all None if not
    given) are stacked and merged together in chunks whose (B, k, k) delta
    tables hold at most MERGE_BATCH_CELLS cells, or one table; ``merge``
    maps a (B, k, levels) stack and its key to its B results."""
    results = [None] * len(tables)
    groups: dict[tuple, list[int]] = {}
    for at, table in enumerate(tables):
        groups.setdefault((table.shape, None if keys is None else keys[at]), []).append(at)
    for ((k, _), key), members in groups.items():
        size = max(1, MERGE_BATCH_CELLS // (k * k))
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            for at, result in zip(chunk, merge(np.stack([tables[a] for a in chunk]), key)):
                results[at] = result
    return results


def _start_groups(order, depth: int, table: np.ndarray, k: int | None) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]]:
    """Start partitions of greedy merging at one depth for each of R
    replicates, from ``table``, their counts of ``order[:depth + 1]``
    stacked on a leading axis, (R, levels...).

    Merging starts from singleton contexts, except for kparents (``k`` given)
    above depth k, where it starts from the projection onto up to k parents
    chosen by conditional mutual information; merging only coarsens that
    partition. Returns the replicates grouped by parent set (all
    predecessors unless CMI chose fewer), each group as the indices of its
    replicates, the start class of every context, the pooled counts of the
    start classes, (replicates, classes, levels), and the parent set. Only
    ``order[:depth + 1]`` is read.
    """
    replicates, levels = len(table), table.shape[-1]
    if k is None or depth <= k:
        start = np.arange(math.prod(table.shape[1:-1]))
        return [(np.arange(replicates), start, table.reshape(replicates, -1, levels), tuple(sorted(order[:depth])))]
    by_parents: dict[tuple[int, ...], list[int]] = {}
    for at, parents in enumerate(_greedy_parents(table, order[:depth], k)):
        by_parents.setdefault(parents, []).append(at)
    groups = []
    for parents, members in by_parents.items():
        dropped = tuple(axis for axis in range(depth) if order[axis] not in parents)
        # A context's start class numbers its parent coordinates in context
        # order; the class counts are the table summed over the other axes.
        kept = [1 if axis in dropped else size for axis, size in enumerate(table.shape[1:-1])]
        start = np.broadcast_to(np.arange(math.prod(kept)).reshape(kept), table.shape[1:-1]).ravel()
        pooled = table[members].sum(axis=tuple(axis + 1 for axis in dropped)).reshape(len(members), -1, levels)
        groups.append((np.array(members), start, pooled, parents))
    return groups


def _start_tables(order: Ordering, joints: np.ndarray, k: int | None) -> list[list[tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]]]:
    """``_start_groups`` of every depth of ``order``, from ``joints``, the
    counts of ``order`` of R replicates, (R, levels...): a depth's tables
    are the tables of the next depth summed over their last axis."""
    tables = [joints]
    while tables[-1].ndim > 2:
        tables.append(tables[-1].sum(axis=-1))
    return [_start_groups(order, depth, table, k) for depth, table in enumerate(reversed(tables))]


def _stage_tables(runs) -> list[list[tuple[np.ndarray, list[np.ndarray]]]]:
    """Stage every depth of each of ``runs``, ``(starts, n_rows,
    smoothing)``: the ``_start_tables`` of R replicates of ``n_rows`` rows
    each, staged at ``smoothing``, by greedy merging from its start tables.
    The tables of one shape, row count and smoothing, of any run, depth and
    replicate, merge together in ``_batched`` chunks; a table's merge does
    not depend on the others. Returns per run and depth the stage id of
    every context of each replicate, (R, contexts), and each replicate's
    pooled counts of its stages.

    The merge numbers stages by their lowest start class, and the first
    context of each start class comes in ascending class id, so its stage
    ids are already the canonical ones, ordered by first context.
    """
    tables, keys = [], []
    for starts, n_rows, smoothing in runs:
        for groups in starts:
            for _, _, pooled, _ in groups:
                tables += list(pooled)
                keys += [(n_rows, smoothing)] * len(pooled)

    def merge(stack, key):
        stage_of, pooled, n_stages, _ = _merge_lockstep(stack, *key)
        return zip(stage_of, np.split(pooled, np.cumsum(n_stages)[:-1]))

    merged = iter(_batched(tables, merge, keys))
    staged = []
    for starts, _, _ in runs:
        depths = []
        for groups in starts:
            replicates = sum(len(members) for members, _, _, _ in groups)
            ids = np.empty((replicates, len(groups[0][1])), dtype=np.int64)
            counts: list = [None] * replicates
            for members, start, _, _ in groups:
                results = [next(merged) for _ in members]
                ids[members] = np.stack([stage_of for stage_of, _ in results])[:, start]
                for at, (_, pooled) in zip(members.tolist(), results):
                    counts[at] = pooled
            depths.append((ids, counts))
        staged.append(depths)
    return staged


def _learn(d: Dataset, order, k: int | None, smoothing: float):
    """Stage every depth with ``_stage_tables`` and estimate its
    probabilities from the pooled counts it returns; returns the fitted tree
    and the parent set of every depth."""
    if not smoothing >= 0:
        raise ModelError("smoothing must be non-negative")
    order = validate_order(d.schema, order)
    starts = _start_tables(order, d.counts(order)[None], k)
    (staged,) = _stage_tables([(starts, d.n, smoothing)])
    tree = StagedTree(
        d.schema,
        order,
        tuple(StageAssignment(depth, ids[0], len(counts[0])) for depth, (ids, counts) in enumerate(staged)),
        tuple(probabilities_from_counts(counts[0], smoothing) for _, counts in staged),
    )
    return tree, tuple(groups[0][3] for groups in starts)


def cmi(d: Dataset, i: int, s: int, conditioning=()) -> float:
    """Plug-in conditional mutual information I(X_i, X_s | X_C) in nats.

    Computed from the empirical contingency table; clamped at zero against
    floating-point noise.
    """
    conditioning = tuple(int(c) for c in conditioning)
    if i == s:
        raise ModelError("cmi requires two distinct variables")
    if i in conditioning or s in conditioning:
        raise ModelError("conditioning set must not contain the pair")
    return float(_cmi(d.counts(conditioning + (i, s))))


def _cmi(table: np.ndarray, lead: int = 0) -> np.ndarray:
    """``cmi`` from the counts of (X_C..., X_i, X_s), one axis each, after
    ``lead`` leading axes that stack independent tables: one value per
    table. Each table's terms are summed as one contiguous run, as a single
    table's are, so a value does not depend on the stack."""
    head = table.shape[:lead]
    n = table.sum(axis=tuple(range(lead, table.ndim)))
    table = np.ascontiguousarray(table, dtype=float).reshape(*head, -1, *table.shape[-2:])
    n_c = table.sum(axis=(-2, -1), keepdims=True)
    n_ca = table.sum(axis=-1, keepdims=True)
    n_cb = table.sum(axis=-2, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = table * n_c / (n_ca * n_cb)
        terms = np.where(table > 0, table * np.log(ratio), 0.0)
    value = terms.reshape(*head, -1).sum(axis=-1) / n
    return np.where(0.0 > value, 0.0, value)


def _greedy_parents(table: np.ndarray, candidates: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Forward selection of k parents by conditional mutual information for
    each of R replicates, from ``table``, their counts of ``candidates`` and
    then of the child, (R, levels...). At each step the replicates that have
    selected the same parents so far score every remaining candidate
    together, in one ``_candidate_cmi`` call. Ties in the argmax go to the
    smallest variable index.
    """
    axis_of = {var: at + 1 for at, var in enumerate(candidates)}
    chosen: list[tuple[int, ...]] = [()] * len(table)
    for _ in range(min(k, len(candidates))):
        by_selected: dict[tuple[int, ...], list[int]] = {}
        for at, selected in enumerate(chosen):
            by_selected.setdefault(selected, []).append(at)
        for selected, members in by_selected.items():
            remaining = sorted(set(candidates) - set(selected))
            axes = [0] + [axis_of[v] for v in selected] + [len(candidates) + 1]
            values = _candidate_cmi(table, members, axes, [axis_of[v] for v in remaining])
            for at, best in zip(members, values.argmax(axis=1).tolist()):
                chosen[at] = selected + (remaining[best],)
    return [tuple(sorted(selected)) for selected in chosen]


def _candidate_cmi(table: np.ndarray, members: list[int], axes: list[int], candidate_axes: list[int]) -> np.ndarray:
    """The CMI of every candidate for the replicates ``members`` of
    ``table``, (members, candidates): a candidate's counts are the table
    summed onto ``axes`` (replicate, selected..., child) and its own axis
    (int64, so bit-equal to a tally of their own). The tables of the
    candidates of one level count are stacked and scored by one ``_cmi``
    call."""
    rows = table if len(members) == len(table) else table[members]
    by_levels: dict[int, list[int]] = {}
    for at, axis in enumerate(candidate_axes):
        by_levels.setdefault(table.shape[axis], []).append(at)
    values = np.empty((len(members), len(candidate_axes)))
    for ats in by_levels.values():
        stacked = np.stack([np.einsum(rows, range(rows.ndim), axes + [candidate_axes[at]]) for at in ats], axis=1)
        values[:, ats] = _cmi(stacked, 2)
    return values


def kparents_learn(
    d: Dataset, order, k: int, smoothing: float = 0.0
) -> tuple[StagedTree, tuple[tuple[int, ...], ...]]:
    """Learn a staged tree whose compressed graph has in-degree at most k.

    Each variable first receives up to k parents among its predecessors by
    greedy conditional-mutual-information selection (all predecessors when
    there are at most k of them). Its staging then starts from the partition
    induced by the parent values and is merged greedily, which can only
    coarsen within that partition, so the in-degree bound survives learning.
    """
    if k < 1:
        raise ModelError("k must be >= 1")
    return _learn(d, order, k, smoothing)


def learn(d: Dataset, order, cfg: LearnConfig) -> StagedTree:
    """Learn the configured staging at a fixed ordering and fit it."""
    return _learn(d, order, cfg.k, cfg.smoothing)[0]


def variable_score(d: Dataset, var: int, predecessors, cfg: LearnConfig, cache=None) -> float:
    """BIC contribution of one variable given an unordered predecessor set.

    The contribution depends on the set only (context counts pool the same
    rows under any internal order), which is what makes subset dynamic
    programming over orderings exact. It is scored as depth
    ``len(predecessors)`` of the ordering predecessors (sorted), var: one
    greedy merge of that depth's start table.
    """
    predecessors = tuple(sorted(int(v) for v in predecessors))
    key = (var, predecessors)
    if cache is not None and key in cache:
        return cache[key]
    order = predecessors + (int(var),)
    ((_, _, pooled, _),) = _start_groups(order, len(predecessors), d.counts(order)[None], cfg.k)
    score = _bhc_scores(pooled, d.n, cfg.smoothing)[0]
    if cache is not None:
        cache[key] = score
    return score


def ordering_score(d: Dataset, order, cfg: LearnConfig, cache=None) -> float:
    """Total BIC of the learned tree under one ordering.

    Summed with math.fsum so the total does not depend on the order in which
    the per-depth terms accumulate; orderings whose terms form the same
    multiset score bit-identically.
    """
    order = validate_order(d.schema, order)
    terms = [
        variable_score(d, var, order[:depth], cfg, cache) for depth, var in enumerate(order)
    ]
    return math.fsum(terms)


def _score_subsets(joints: list[np.ndarray], variables, n_rows: int, cfg: LearnConfig, caches: list[dict]) -> None:
    """Put ``variable_score`` of every variable of ``variables`` given every
    subset of the others into the cache of each of ``joints``, the counts of
    ``variables`` (ascending, one axis each) of datasets of ``n_rows`` rows.

    The replicates are scored in groups on their stacked joints. A subset's
    counts are the joint's sums over the absent variables (int64, so
    bit-equal to a tally of their own), made one layer of subsets at a time
    from the layer above, and the start tables of one layer of the group are
    scored by ``_bhc_scores`` in one ``_batched`` call. A group holds as many
    replicates as keep the start tables of its largest layer within
    MERGE_BATCH_CELLS cells, or one.
    """
    variables = tuple(variables)
    # sums[s]: the cells of the joints of all s-variable subsets, each of
    # which gives s start tables of that many cells.
    sums = [1] + [0] * len(variables)
    for size in joints[0].shape:
        for s in range(len(variables), 0, -1):
            sums[s] += sums[s - 1] * size
    largest = max(s * cells for s, cells in enumerate(sums))
    group = max(1, MERGE_BATCH_CELLS // max(largest, 1))
    for first in range(0, len(joints), group):
        _score_group(np.stack(joints[first:first + group]), variables, n_rows, cfg, caches[first:first + group])


def _score_group(stack: np.ndarray, variables: tuple[int, ...], n_rows: int, cfg: LearnConfig, caches: list[dict]) -> None:
    """``_score_subsets`` of the replicates stacked on the first axis of ``stack``."""
    replicates = len(caches)
    layer = {variables: stack}
    for size in range(len(variables), 0, -1):
        keys, tables = [], []
        for subset, table in layer.items():
            for axis, var in enumerate(subset):
                predecessors = subset[:axis] + subset[axis + 1:]
                keys.append((var, predecessors))
                moved = np.moveaxis(table, axis + 1, -1)  # (replicate, predecessors..., var)
                if cfg.k is not None and size - 1 > cfg.k:  # CMI parents, all replicates together
                    pooled = [None] * replicates
                    for members, _, group, _ in _start_groups(predecessors + (var,), size - 1, moved, cfg.k):
                        for at, one in zip(members.tolist(), group):
                            pooled[at] = one
                    tables += pooled
                else:
                    tables += list(moved.reshape(replicates, -1, moved.shape[-1]))
        scores = _batched(tables, lambda chunk, _: _bhc_scores(chunk, n_rows, cfg.smoothing))
        for at, cache in enumerate(caches):
            cache.update(zip(keys, scores[at::replicates]))
        below: dict[tuple[int, ...], np.ndarray] = {}
        for subset, table in layer.items():
            for axis in range(size):
                smaller = subset[:axis] + subset[axis + 1:]
                if smaller not in below:
                    below[smaller] = table.sum(axis=axis + 1)
        layer = below


def _arrange(variables, cache: dict) -> Ordering:
    """Minimum-score arrangement of ``variables`` by dynamic programming over
    their subsets, reading every score from ``cache``.

    The per-variable score is order-invariant within a predecessor set, so the
    best arrangement of each subset extends optimal arrangements of its
    one-smaller subsets. Ties resolve to the lexicographically smallest
    arrangement of the variable list.
    """
    m = len(variables)
    full = (1 << m) - 1
    # rem_terms[mask] holds the per-depth scores of the best arrangement of
    # the variables outside ``mask``; candidates are compared through
    # math.fsum so ties between equal term multisets are exact.
    rem_terms: list[tuple[float, ...]] = [()] * (1 << m)
    best_next = np.full(1 << m, -1, dtype=np.int64)

    # Every superset of a mask is a larger number, so walking the masks
    # downward meets each one after all of its supersets.
    for mask in range(full - 1, -1, -1):
        prefix = tuple(sorted(variables[b] for b in range(m) if mask >> b & 1))
        best = math.inf
        choice = -1
        chosen_terms: tuple[float, ...] = ()
        for b in range(m):
            if mask >> b & 1:
                continue
            terms = (cache[variables[b], prefix],) + rem_terms[mask | (1 << b)]
            value = math.fsum(terms)
            if value < best:
                best = value
                choice = b
                chosen_terms = terms
        rem_terms[mask] = chosen_terms
        best_next[mask] = choice

    order: list[int] = []
    mask = 0
    while mask != full:
        b = int(best_next[mask])
        order.append(variables[b])
        mask |= 1 << b
    return tuple(order)


def _subset_dp(d: Dataset, variables, cfg: LearnConfig, cache: dict) -> Ordering:
    """``_arrange`` of ``variables`` on the full data, every score computed
    first by ``_score_subsets`` from one tally of their joint counts."""
    joint = tuple(sorted(int(v) for v in variables))
    _score_subsets([d.counts(joint)], joint, d.n, cfg, [cache])
    return _arrange(variables, cache)


def _dp_variables(p: int, fixed_last: int | None) -> tuple[int, ...]:
    """The variables the DP of ``order_search_dp`` arranges: all but
    ``fixed_last``, at most MAX_DP_VARIABLES of them."""
    if fixed_last is not None and not 0 <= fixed_last < p:
        raise ModelError(f"fixed_last={fixed_last} out of range")
    variables = tuple(v for v in range(p) if v != fixed_last)
    if len(variables) > MAX_DP_VARIABLES:
        raise ModelError(
            f"{len(variables)} variables exceed the dynamic-programming guard ({MAX_DP_VARIABLES}); "
            "use grouped order search instead"
        )
    return variables


def _dp_orders(joints: list[np.ndarray], variables: tuple[int, ...], n_rows: int, cfg: LearnConfig, fixed_last: int | None) -> list[Ordering]:
    """The ordering of ``order_search_dp`` of each of ``joints``, the counts
    of ``_dp_variables`` of datasets of ``n_rows`` rows; the scores of all
    are computed together, then each recursion reads its own."""
    caches = [{} for _ in joints]
    _score_subsets(joints, variables, n_rows, cfg, caches)
    pinned = () if fixed_last is None else (fixed_last,)
    return [_arrange(variables, cache) + pinned for cache in caches]


def order_search_dp(d: Dataset, cfg: LearnConfig, fixed_last: int | None = None) -> tuple[Ordering, float]:
    """Exact minimum-score ordering by dynamic programming over subsets.

    Ties resolve to the lexicographically smallest permutation. Optionally one
    response variable is pinned to the last position and the search runs over
    the rest.
    """
    cache: dict = {}
    order = _subset_dp(d, _dp_variables(len(d.schema), fixed_last), cfg, cache)
    if fixed_last is not None:
        order += (fixed_last,)
    return order, ordering_score(d, order, cfg, cache)


def order_search_grouped(d: Dataset, groups, cfg: LearnConfig) -> tuple[Ordering, float]:
    """Two-stage order search for larger variable sets.

    Each group is ordered internally by the subset DP over its own variables.
    A variable's score depends only on the counts of itself and its
    predecessors, so this DP runs on the full data and gives the order the
    group would get with the other groups absent. The groups themselves
    (internal orders pinned) are then arranged by exhaustive block
    enumeration. Both stages share one ``variable_score`` cache. The groups
    must be non-empty and partition the variables; each may hold at most
    MAX_DP_VARIABLES of them.
    """
    p = len(d.schema)
    groups = [tuple(int(v) for v in g) for g in groups]
    flat = [v for g in groups for v in g]
    if sorted(flat) != list(range(p)) or not all(groups):
        raise ModelError("groups must partition the variable set into non-empty groups")
    if len(groups) > 8:
        raise ModelError("at most 8 groups are supported")
    for group in groups:
        if len(group) > MAX_DP_VARIABLES:
            raise ModelError(f"group {group} exceeds the guard of {MAX_DP_VARIABLES} variables")

    cache: dict = {}
    internal = [_subset_dp(d, sorted(group), cfg, cache) for group in groups]
    best_order: Ordering | None = None
    best_score = math.inf
    for perm in itertools.permutations(range(len(groups))):
        candidate = tuple(v for gi in perm for v in internal[gi])
        score = ordering_score(d, candidate, cfg, cache)
        if score < best_score:
            best_score = score
            best_order = candidate
    return best_order, best_score
