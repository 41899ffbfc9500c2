"""Staging oracles. The exhaustive staging search finds the globally
BIC-optimal staging of one depth by enumerating every set partition of its
contexts; greedy merging is checked against it on small depths. The reference
greedy merge is the plain global-argmin form of backward hill climbing that
the learner's merge must reproduce bit for bit. The reference stage depth is
the relabel-and-repool path the learner's one-depth staging replaced. The
dataset start table is the path the learner's start tables replaced: CMI
parents from a tally per candidate, projection start classes from the
context coordinates, and their counts pooled by scatter-add. The reference
consensus staging is scipy's clustering, which the in-package
nearest-neighbour chain of consensus_staging replaced. The lockstep merge
steps are the batched row-minimum merge as it was before it rescanned only
the rows whose minimum got worse and mirrored its row-range start table;
the learner's merge must leave the same parents, pooled counts and deltas."""

import math

import numpy as np

from stagedtree import Dataset, ModelError, StageAssignment, cmi
from stagedtree.learning import MERGE_BLOCK_CELLS, MERGE_TOLERANCE, _stage_loglik
from stagedtree.tree import (
    canonical_stage_assignment,
    context_counts,
    context_shape,
    n_contexts,
    pool_counts,
    validate_order,
)

# Bell(9) partitions would be too many to enumerate.
MAX_ORACLE_CONTEXTS = 8


def set_partitions(n: int):
    """All set partitions of range(n) as restricted-growth strings."""
    code = [0] * n

    def rec(i: int, maximum: int):
        if i == n:
            yield tuple(code)
            return
        for value in range(maximum + 2):
            code[i] = value
            yield from rec(i + 1, max(maximum, value))

    yield from rec(1, 0) if n > 1 else iter([tuple(code)])


def exhaustive_stage(d: Dataset, order, depth: int, smoothing: float = 0.0) -> StageAssignment:
    """Globally BIC-optimal staging of one depth by enumerating all partitions.

    The context count is capped at MAX_ORACLE_CONTEXTS.
    """
    order = validate_order(d.schema, order)
    total = n_contexts(d.schema, order, depth)
    if total > MAX_ORACLE_CONTEXTS:
        raise ModelError(
            f"exhaustive staging supports at most {MAX_ORACLE_CONTEXTS} contexts, got {total}"
        )
    base = context_counts(d, order, depth)
    best_code = None
    best_score = math.inf
    for code in set_partitions(total):
        score = depth_bic(pool_counts(base, np.asarray(code), max(code) + 1), d.n, smoothing)
        if score < best_score:
            best_score = score
            best_code = code
    return canonical_stage_assignment(depth, np.asarray(best_code))


def depth_bic(counts: np.ndarray, n_rows: int, smoothing: float) -> float:
    """BIC contribution of one depth given pooled per-stage counts, its
    stage log-likelihoods summed as one 1-d run: the score the batched merge
    must give each of its problems."""
    levels = counts.shape[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        loglik = float(_stage_loglik(np.asarray(counts, dtype=float).T, smoothing).sum())
    return -2.0 * loglik + counts.shape[0] * (levels - 1) * math.log(n_rows)


def reference_stage_loglik(counts: np.ndarray, smoothing: float) -> np.ndarray:
    """Multinomial log-likelihood of each row of pooled counts at its own MLE
    (or smoothed estimate)."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim == 1:
        counts = counts[None, :]
    levels = counts.shape[1]
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = (counts + smoothing) / (totals + smoothing * levels)
        terms = np.where(counts > 0, counts * np.log(probs), 0.0)
    return terms.sum(axis=1)


def reference_bhc_merge(counts: np.ndarray, n_rows: int, smoothing: float, trace=None) -> np.ndarray:
    """Greedy agglomeration of the rows of a pooled count matrix.

    Starts from the given rows as stages and repeatedly applies the merge with
    the best (most negative) BIC delta, found by a global argmin over the
    upper triangle of a k x k delta matrix, until no merge improves the score
    by more than MERGE_TOLERANCE. Among bit-equal deltas the pair with the
    lowest (i, j) ids wins, where ids index the initial rows and a merged pair
    keeps the lower id. Returns the final stage id of every initial row;
    ``trace``, if given, collects the accepted BIC deltas in order.
    """
    k = counts.shape[0]
    assign = np.arange(k)
    if k < 2:
        return assign
    levels = counts.shape[1]
    param_gain = (levels - 1) * math.log(n_rows)

    pooled = np.asarray(counts, dtype=float).copy()
    ll = reference_stage_loglik(pooled, smoothing)
    active = np.ones(k, dtype=bool)

    delta = np.full((k, k), np.inf)
    for i in range(k - 1):
        merged_ll = reference_stage_loglik(pooled[i] + pooled[i + 1:], smoothing)
        delta[i, i + 1:] = -2.0 * (merged_ll - ll[i] - ll[i + 1:]) - param_gain

    while True:
        flat = int(np.argmin(delta))
        i, j = divmod(flat, k)
        if delta[i, j] >= -MERGE_TOLERANCE:
            break
        if trace is not None:
            trace.append(float(delta[i, j]))
        pooled[i] += pooled[j]
        ll[i] = float(reference_stage_loglik(pooled[i], smoothing)[0])
        active[j] = False
        delta[j, :] = np.inf
        delta[:, j] = np.inf
        assign[assign == j] = i
        others = np.flatnonzero(active)
        others = others[others != i]
        if others.size:
            merged_ll = reference_stage_loglik(pooled[i] + pooled[others], smoothing)
            pair_delta = -2.0 * (merged_ll - ll[i] - ll[others]) - param_gain
            lo = np.minimum(others, i)
            hi = np.maximum(others, i)
            delta[lo, hi] = pair_delta
    return assign


def lockstep_merge_steps(out: np.ndarray, parent: np.ndarray, n_rows: int, smoothing: float, deltas) -> None:
    """The merges of the learner's lockstep merge, in place, as
    ``learning._merge_steps`` took them: ``out`` (levels, B, k) ends holding
    each stage's pooled counts (0 once merged away), ``parent`` (B, k) the
    stage each merged-away stage joined, and ``deltas``, if not None, each
    problem's accepted BIC deltas. Every row whose cached partner merges is
    rescanned in full, and the start table is built whole."""
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
        lower = ids[row, None] < ids
        own, other = ll[problems, row, None], ll[problems, None]
        first = np.where(lower, own, other)
        second = np.where(lower, other, own)
        delta[problems, row] = -2.0 * (pair_ll - first - second) - param_gain
    delta[:, ids, ids] = np.inf
    partner = delta.argmin(axis=2)
    best = delta.min(axis=2)

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
        pooled[:, at, j] = 0.0
        ll[at, j] = np.inf
        delta[live, :, j] = np.inf
        best[at, j] = np.inf
        partner[at, j] = -1

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


def dataset_greedy_parents(d: Dataset, var: int, candidates, k: int, values=None) -> tuple[int, ...]:
    """Forward selection of k parents by ``cmi``, one tally of the dataset
    per candidate; ties go to the smallest variable index. ``values``, if
    given, collects every CMI value in the order it was computed."""
    selected = []
    for _ in range(min(k, len(candidates))):
        best_var, best_value = None, -math.inf
        for cand in sorted(set(candidates) - set(selected)):
            value = cmi(d, var, cand, tuple(selected))
            if values is not None:
                values.append(value)
            if value > best_value:
                best_var, best_value = cand, value
        selected.append(best_var)
    return tuple(sorted(selected))


def projection_staging(schema, order, depth: int, parents) -> np.ndarray:
    """Start class of every depth-j context: contexts that agree on the
    parent coordinates start together, numbered by those coordinates."""
    shape = context_shape(schema, order, depth)
    total = n_contexts(schema, order, depth)
    parent_pos = [i for i in range(depth) if order[i] in parents]
    if not parent_pos:
        return np.zeros(total, dtype=np.int64)
    coords = np.unravel_index(np.arange(total), shape)
    par_shape = tuple(shape[i] for i in parent_pos)
    return np.ravel_multi_index([coords[i] for i in parent_pos], dims=par_shape).astype(np.int64)


def dataset_start_table(d: Dataset, order, depth: int, k, values=None):
    """Start classes, their pooled counts and the parent set of one depth,
    from the dataset: singleton contexts, or for kparents above depth k the
    projection onto the parents ``dataset_greedy_parents`` chooses."""
    counts = context_counts(d, order, depth)
    parents = tuple(sorted(order[:depth]))
    if k is None or depth <= k:
        return np.arange(counts.shape[0]), counts, parents
    parents = dataset_greedy_parents(d, order[depth], order[:depth], k, values)
    start = projection_staging(d.schema, order, depth, parents)
    return start, pool_counts(counts, start, int(start.max()) + 1), parents


def reference_stage_depth(d: Dataset, order, depth: int, k, smoothing: float):
    """Stage one depth as ``_stage_depth`` did before the merge handed back
    its stages: merge to root ids, relabel them by first context, then pool
    the context counts again under the relabelled staging. Returns the
    staging, its int64 pooled counts and the parent set."""
    counts = context_counts(d, order, depth)
    start, table, parents = dataset_start_table(d, order, depth, k)
    roots = reference_bhc_merge(table, d.n, smoothing)
    staging = canonical_stage_assignment(depth, roots[start])
    return staging, pool_counts(counts, staging.stage_of, staging.n_stages), parents


def reference_consensus_staging(d_matrix: np.ndarray, cut: float, depth: int, linkage: str = "average") -> StageAssignment:
    """consensus_staging as scipy computed it: ``linkage`` of the condensed
    matrix, cut by ``fcluster`` at distance ``cut``."""
    k = d_matrix.shape[0]
    if k == 1:
        return StageAssignment(depth, np.zeros(1, dtype=np.int64), 1)
    # Imported here so that the tests that never call it do not load scipy.
    from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
    from scipy.spatial.distance import squareform

    merges = scipy_linkage(squareform(d_matrix, checks=False), method=linkage)
    labels = fcluster(merges, t=cut, criterion="distance")
    return canonical_stage_assignment(depth, labels)
