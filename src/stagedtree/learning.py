"""Structure learning: greedy stage merging, CMI parent selection, order search.

All searches are pure functions of (data, config); every tie is broken
deterministically so repeated runs give bit-identical results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dataset
from .dataset import Dataset, Schema, cell_count
from .errors import ModelError
from .tree import (
    Ordering,
    StageAssignment,
    StagedTree,
    context_counts,
    context_shape,
    n_contexts,
    pool_counts,
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

# Greedy merging builds its initial pair deltas in row blocks of at most this
# many (level, pair) cells, so the temporaries stay small beside the k x k
# delta table.
MERGE_BLOCK_CELLS = 1 << 16


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


def depth_bic(counts: np.ndarray, n_rows: int, smoothing: float) -> float:
    """BIC contribution of one depth given pooled per-stage counts."""
    levels = counts.shape[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        loglik = float(_stage_loglik(np.asarray(counts, dtype=float).T, smoothing).sum())
    return -2.0 * loglik + counts.shape[0] * (levels - 1) * math.log(n_rows)


def _bhc_merge(counts: np.ndarray, n_rows: int, smoothing: float, trace=None) -> tuple[np.ndarray, np.ndarray]:
    """Greedy agglomeration of the rows of a pooled count matrix.

    Starts from the given rows as stages and repeatedly applies the merge with
    the best (most negative) BIC delta until no merge improves the score by
    more than MERGE_TOLERANCE. Among bit-equal deltas the pair with the lowest
    (i, j) ids wins, where ids index the initial rows and a merged pair keeps
    the lower id, so each final stage is held by its lowest row. Returns the
    stage of every initial row, numbered by its lowest row, and the pooled
    counts of those stages as integer-valued floats, (n_stages, levels);
    ``trace``, if given, collects the accepted BIC deltas in order.

    Every row caches its best partner (the lowest id among bit-equal deltas),
    so the next merge is the first row minimum, and a row is rescanned only
    when its partner merges. The k x k delta table is bounded by the
    MAX_CONTEXTS guard.
    """
    k, levels = counts.shape
    parent = np.arange(k)
    if k < 2:
        return parent, np.asarray(counts, dtype=float)
    cell_count((k, k), f"cells in the merge table of a depth with {k} stages")
    param_gain = (levels - 1) * math.log(n_rows)
    pooled = np.ascontiguousarray(counts.T, dtype=float)  # one column per stage
    ids = np.arange(k)
    closed = np.zeros(k)  # inf once a stage has merged away
    delta = np.empty((k, k))
    block = max(1, MERGE_BLOCK_CELLS // (levels * k))
    with np.errstate(invalid="ignore", divide="ignore"):
        ll = _stage_loglik(pooled, smoothing)
        for start in range(0, k, block):
            rows = ids[start:start + block, None]
            pair_ll = _stage_loglik(pooled[:, rows] + pooled[:, None, :], smoothing)
            # The log-likelihood of the lower id is subtracted first, as a
            # merge subtracts that of the stage it just formed; the bits of
            # a pair's delta depend on that order.
            lower = rows < ids
            first = np.where(lower, ll[rows], ll)
            second = np.where(lower, ll, ll[rows])
            delta[start:start + block] = -2.0 * (pair_ll - first - second) - param_gain
        np.fill_diagonal(delta, np.inf)
        partner = delta.argmin(axis=1)
        best = delta.min(axis=1)

        while True:
            i = int(best.argmin())
            j = int(partner[i])
            if best[i] >= -MERGE_TOLERANCE:
                break
            if trace is not None:
                trace.append(float(best[i]))
            parent[j] = i
            pooled[:, i] += pooled[:, j]
            pooled[:, j] = 0.0  # so column j of the merged row is stage i alone
            closed[j] = np.inf
            delta[j] = delta[:, j] = np.inf
            best[j] = np.inf
            partner[j] = -1  # never stale, never a tie winner

            merged_ll = _stage_loglik(pooled[:, i, None] + pooled, smoothing)
            ll[i] = merged_ll[j]
            row = -2.0 * (merged_ll - ll[i] - ll) - param_gain + closed
            row[i] = np.inf
            delta[i] = delta[:, i] = row

            stale = ((partner == i) | (partner == j)).nonzero()[0]
            better = (row < best) | ((row == best) & (partner > i))
            partner[better] = i
            best[better] = row[better]
            rescan = delta[stale]
            partner[stale] = rescan.argmin(axis=1)
            best[stale] = rescan.min(axis=1)
    while True:  # a merged-away stage points at a lower id: resolve to roots
        root = parent[parent]
        if (root == parent).all():
            break
        parent = root
    is_root = parent == ids
    return (np.cumsum(is_root) - 1)[parent], pooled.T[is_root]


def _bhc_scores(counts: np.ndarray, n_rows: int, smoothing: float) -> np.ndarray:
    """``depth_bic`` of the greedy merge of each of B start tables of one
    shape, ``counts`` being (B, k, levels); returns B floats.

    The problems merge in lockstep on a (B, k, k) delta table: each step
    takes one row-minimum merge per problem, and a problem drops out once no
    merge improves it. Every element sees the arithmetic of ``_bhc_merge``
    (subtraction order, summation rule and tie rule), so each problem takes
    the merges ``_bhc_merge`` would, and its roots' pooled counts are scored
    as ``depth_bic`` scores them. ``_bhc_merge`` stays for ``_stage_depth``,
    which needs the staging and merges one problem at a time, where this
    loop is slower than it (about 1.6 to 2 times, on the depths of 10 binary
    variables). The caller keeps B k^2 within MAX_CONTEXTS.
    """
    n_problems, k, levels = counts.shape
    cell_count((k, k), f"cells in the merge table of a depth with {k} stages")
    pooled = np.ascontiguousarray(counts.transpose(2, 0, 1), dtype=float)  # (levels, B, k)
    closed = np.zeros((n_problems, k))  # inf once a stage has merged away
    with np.errstate(invalid="ignore", divide="ignore"):
        if k >= 2:
            _merge_lockstep(pooled, closed, n_rows, smoothing)
        is_root = closed == 0
        n_stages = is_root.sum(axis=1)
        root_ll = _stage_loglik(pooled.transpose(1, 2, 0)[is_root].T, smoothing)
    # Each problem's roots are a contiguous run of root_ll; runs of one
    # length are summed as rows, which numpy sums as it sums a 1-d run.
    first = np.cumsum(n_stages) - n_stages
    loglik = np.empty(n_problems)
    for size in np.unique(n_stages):
        rows = (n_stages == size).nonzero()[0]
        loglik[rows] = root_ll[first[rows, None] + np.arange(size)].sum(axis=1)
    return -2.0 * loglik + n_stages * (levels - 1) * math.log(n_rows)


def _merge_lockstep(pooled: np.ndarray, closed: np.ndarray, n_rows: int, smoothing: float) -> None:
    """The merges of ``_bhc_scores``, in place: ``pooled`` (levels, B, k)
    ends holding each stage's pooled counts and ``closed`` (B, k) is inf at
    every stage merged away. The statements follow ``_bhc_merge`` one for
    one, each applied to the still active problems at once."""
    levels, n_problems, k = pooled.shape
    param_gain = (levels - 1) * math.log(n_rows)
    ids = np.arange(k)
    ll = _stage_loglik(pooled, smoothing)
    delta = np.empty((n_problems, k, k))
    flat = delta.reshape(n_problems * k, k)
    block = max(1, MERGE_BLOCK_CELLS // (levels * k))
    for start in range(0, n_problems * k, block):
        problem, row = np.divmod(np.arange(start, min(start + block, n_problems * k)), k)
        pair_ll = _stage_loglik(pooled[:, problem, row, None] + pooled[:, problem], smoothing)
        own = ll[problem, row, None]
        lower = row[:, None] < ids
        first = np.where(lower, own, ll[problem])
        second = np.where(lower, ll[problem], own)
        flat[start:start + len(row)] = -2.0 * (pair_ll - first - second) - param_gain
    delta[:, ids, ids] = np.inf
    partner = delta.argmin(axis=2)
    best = delta.min(axis=2)

    active = np.arange(n_problems)
    while True:
        i = best[active].argmin(axis=1)
        go = ~(best[active, i] >= -MERGE_TOLERANCE)
        active, i = active[go], i[go]
        if not active.size:
            return
        at = np.arange(active.size)
        j = partner[active, i]
        pooled[:, active, i] += pooled[:, active, j]
        pooled[:, active, j] = 0.0
        closed[active, j] = np.inf
        delta[active, j] = np.inf
        delta[active, :, j] = np.inf
        best[active, j] = np.inf
        partner[active, j] = -1

        merged_ll = _stage_loglik(pooled[:, active, i, None] + pooled[:, active], smoothing)
        ll[active, i] = merged_ll[at, j]
        row = -2.0 * (merged_ll - ll[active, i, None] - ll[active]) - param_gain + closed[active]
        row[at, i] = np.inf
        delta[active, i] = row
        delta[active, :, i] = row

        rows_partner = partner[active]
        rows_best = best[active]
        stale = ((rows_partner == i[:, None]) | (rows_partner == j[:, None])).nonzero()
        better = (row < rows_best) | ((row == rows_best) & (rows_partner > i[:, None]))
        rows_partner = np.where(better, i[:, None], rows_partner)
        rows_best = np.where(better, row, rows_best)
        rescan = delta[active[stale[0]], stale[1]]
        rows_partner[stale] = rescan.argmin(axis=1)
        rows_best[stale] = rescan.min(axis=1)
        partner[active] = rows_partner
        best[active] = rows_best


def _start_table(
    d: Dataset, order, depth: int, counts: np.ndarray, k: int | None
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Start partition of greedy merging at one depth, from its context counts.

    Merging starts from singleton contexts, except for kparents (``k`` given)
    above depth k, where it starts from the projection onto up to k parents
    chosen by conditional mutual information; merging only coarsens that
    partition. Returns the start class of every context, the pooled counts of
    the start classes and the parent set (all predecessors unless CMI chose
    fewer). Only ``order[:depth + 1]`` is read.
    """
    parents = tuple(sorted(order[:depth]))
    if k is None or depth <= k:
        return np.arange(counts.shape[0]), counts, parents
    parents = _greedy_parents(d, order[depth], order[:depth], k)
    start = _projection_staging(d.schema, order, depth, parents)
    return start, pool_counts(counts, start, int(start.max()) + 1), parents


def _stage_depth(
    d: Dataset, order: Ordering, depth: int, k: int | None, smoothing: float
) -> tuple[StageAssignment, np.ndarray, tuple[int, ...]]:
    """Stage one depth from a single tally of its context counts, merging
    greedily from the start partition of ``_start_table``. Returns the
    staging, its pooled counts and the parent set.

    The merge numbers stages by their lowest start class, and the first
    context of each start class comes in ascending class id, so its stage
    ids are already the canonical ones, ordered by first context.
    """
    start, counts, parents = _start_table(d, order, depth, context_counts(d, order, depth), k)
    stage_of, pooled = _bhc_merge(counts, d.n, smoothing)
    return StageAssignment(depth, stage_of[start], pooled.shape[0]), pooled, parents


def _learn(d: Dataset, order, k: int | None, smoothing: float):
    """Stage every depth with ``_stage_depth`` and estimate its probabilities
    from the pooled counts it returns; returns the fitted tree and the parent
    set of every depth."""
    if not smoothing >= 0:
        raise ModelError("smoothing must be non-negative")
    order = validate_order(d.schema, order)
    depths = [_stage_depth(d, order, depth, k, smoothing) for depth in range(len(order))]
    tree = StagedTree(
        d.schema,
        order,
        tuple(staging for staging, _, _ in depths),
        tuple(probabilities_from_counts(counts, smoothing) for _, counts, _ in depths),
    )
    return tree, tuple(parents for _, _, parents in depths)


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
    counts = d.schema.level_counts
    table = d.counts(conditioning + (i, s)).reshape(-1, counts[i], counts[s]).astype(float)

    n_c = table.sum(axis=(1, 2), keepdims=True)
    n_ca = table.sum(axis=2, keepdims=True)
    n_cb = table.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = table * n_c / (n_ca * n_cb)
        terms = np.where(table > 0, table * np.log(ratio), 0.0)
    value = float(terms.sum()) / d.n
    return max(value, 0.0)


def _greedy_parents(d: Dataset, var: int, candidates: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Forward selection of k parents by conditional mutual information.

    Ties in the argmax go to the smallest variable index.
    """
    selected: list[int] = []
    pool = list(candidates)
    for _ in range(min(k, len(pool))):
        best_var = None
        best_value = -math.inf
        for cand in sorted(set(pool) - set(selected)):
            value = cmi(d, var, cand, tuple(selected))
            if value > best_value:
                best_value = value
                best_var = cand
        selected.append(best_var)
    return tuple(sorted(selected))


def _projection_staging(schema: Schema, order: Ordering, depth: int, parents: tuple[int, ...]) -> np.ndarray:
    """Initial stage id of every depth-j context: contexts that agree on the
    selected parent coordinates start in the same stage."""
    shape = context_shape(schema, order, depth)
    total = n_contexts(schema, order, depth)
    parent_pos = [i for i in range(depth) if order[i] in parents]
    if not parent_pos:
        return np.zeros(total, dtype=np.int64)
    coords = np.unravel_index(np.arange(total), shape)
    par_shape = tuple(shape[i] for i in parent_pos)
    return np.ravel_multi_index([coords[i] for i in parent_pos], dims=par_shape).astype(np.int64)


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
    ``len(predecessors)`` of the ordering predecessors (sorted), var, rest.
    """
    predecessors = tuple(sorted(int(v) for v in predecessors))
    key = (var, predecessors)
    if cache is not None and key in cache:
        return cache[key]
    rest = tuple(v for v in range(d.p) if v != var and v not in predecessors)
    order = predecessors + (int(var),) + rest
    _, counts, _ = _stage_depth(d, order, len(predecessors), cfg.k, cfg.smoothing)
    score = depth_bic(counts, d.n, cfg.smoothing)
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


def _score_subsets(d: Dataset, variables, cfg: LearnConfig, cache: dict) -> None:
    """Put ``variable_score`` of every variable of ``variables`` given every
    subset of the others into ``cache``, from one tally of their joint counts.

    A subset's counts are the joint's sums over the absent variables (int64,
    so bit-equal to a tally of their own), made one layer of subsets at a
    time from the layer above. The pairs of one predecessor-set size are
    grouped by start-table shape, and each group is scored by
    ``_bhc_scores`` in chunks whose delta tables stay within MAX_CONTEXTS.
    """
    levels = d.schema.level_counts
    joint = tuple(sorted(int(v) for v in variables))
    layer = {joint: d.counts(joint)}
    for size in range(len(joint), 0, -1):
        groups: dict[tuple[int, ...], tuple[list, list]] = {}
        for subset, table in layer.items():
            for axis, var in enumerate(subset):
                predecessors = subset[:axis] + subset[axis + 1:]
                if (var, predecessors) in cache:
                    continue
                others = tuple(a for a in range(size) if a != axis)
                counts = table.transpose(others + (axis,)).reshape(-1, levels[var])
                _, start, _ = _start_table(d, predecessors + (var,), size - 1, counts, cfg.k)
                keys, tables = groups.setdefault(start.shape, ([], []))
                keys.append((var, predecessors))
                tables.append(start)
        for (k, _), (keys, tables) in groups.items():
            chunk = max(1, dataset.MAX_CONTEXTS // (k * k))
            for at in range(0, len(keys), chunk):
                scores = _bhc_scores(np.stack(tables[at:at + chunk]), d.n, cfg.smoothing)
                cache.update(zip(keys[at:at + chunk], scores.tolist()))
        below: dict[tuple[int, ...], np.ndarray] = {}
        for subset, table in layer.items():
            for axis in range(size):
                smaller = subset[:axis] + subset[axis + 1:]
                if smaller not in below:
                    below[smaller] = table.sum(axis=axis)
        layer = below


def _subset_dp(d: Dataset, variables: list[int], cfg: LearnConfig, cache: dict) -> Ordering:
    """Minimum-score arrangement of ``variables`` by dynamic programming over
    their subsets, scored on the full data.

    The per-variable score is order-invariant within a predecessor set, so the
    best arrangement of each subset extends optimal arrangements of its
    one-smaller subsets. Ties resolve to the lexicographically smallest
    arrangement of the (sorted) variable list. Every score is computed
    before the recursion (``_score_subsets``), which then reads ``cache``.
    """
    m = len(variables)
    if m > MAX_DP_VARIABLES:
        raise ModelError(
            f"{m} variables exceed the dynamic-programming guard ({MAX_DP_VARIABLES}); "
            "use grouped order search instead"
        )
    _score_subsets(d, variables, cfg, cache)
    full = (1 << m) - 1
    # rem_terms[mask] holds the per-depth scores of the best arrangement of
    # the variables outside ``mask``; candidates are compared through
    # math.fsum so ties between equal term multisets are exact.
    rem_terms: list[tuple[float, ...]] = [()] * (1 << m)
    best_next = np.full(1 << m, -1, dtype=np.int64)

    masks_by_size: list[list[int]] = [[] for _ in range(m + 1)]
    for mask in range(1 << m):
        masks_by_size[bin(mask).count("1")].append(mask)

    for size in range(m - 1, -1, -1):
        for mask in masks_by_size[size]:
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


def order_search_dp(d: Dataset, cfg: LearnConfig, fixed_last: int | None = None) -> tuple[Ordering, float]:
    """Exact minimum-score ordering by dynamic programming over subsets.

    Ties resolve to the lexicographically smallest permutation. Optionally one
    response variable is pinned to the last position and the search runs over
    the rest.
    """
    p = len(d.schema)
    if fixed_last is not None and not 0 <= fixed_last < p:
        raise ModelError(f"fixed_last={fixed_last} out of range")
    cache: dict = {}
    order = _subset_dp(d, [v for v in range(p) if v != fixed_last], cfg, cache)
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
