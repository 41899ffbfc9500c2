"""Exact queries on a fitted staged tree.

Conditioning on evidence works on the tree's chain-event-graph positions,
compiled once per tree: a backward pass applies the findings and a forward
pass gives every marginal. Queries without evidence (marginals, mutual
information, the joint table and the what-if sweep) read ``_tables``, whose
forward pass gathers stage probabilities through stage ids into (part of) the
joint outcome table, capped at desk scale. Queries never mutate the tree and
may run concurrently.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .dataset import MAX_CONTEXTS
from .errors import ConvergenceError, ModelError
from .tree import StagedTree, context_shape

__all__ = [
    "EvidenceSpec",
    "QueryResult",
    "SweepRow",
    "joint_table",
    "joint_level_iter",
    "marginal",
    "condition_hard",
    "condition_soft",
    "condition_virtual",
    "run_query",
    "mutual_information",
    "whatif_sweep",
]


@dataclass(frozen=True)
class EvidenceSpec:
    """Hard findings (observed levels) and soft findings (asserted marginals)."""

    hard: dict[str, str] = field(default_factory=dict)
    soft: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        overlap = set(self.hard) & set(self.soft)
        if overlap:
            raise ModelError(f"variables {sorted(overlap)} appear as both hard and soft evidence")
        for name, target in self.soft.items():
            arr = np.asarray(target, dtype=float)
            if not _is_distribution(arr):
                raise ModelError(f"soft target for {name!r} is not a probability distribution")


@dataclass(frozen=True)
class QueryResult:
    """Posterior marginals plus, where applicable, the evidence probability
    and the soft-update convergence diagnostics."""

    marginals: dict[str, np.ndarray]
    evidence_probability: float | None = None
    iterations: int | None = None
    max_deviation: float | None = None


def _forward(tree: StagedTree, last_depth: int | None = None):
    """Forward pass over the depths up to ``last_depth`` (default: all),
    yielding the joint after each depth, axes in ordering position.

    Stage rows are gathered through the stage ids, so no array exceeds the
    joint, whose outcome space is refused past MAX_CONTEXTS cells.
    """
    depths = range(tree.p if last_depth is None else last_depth + 1)
    cells = math.prod(tree.schema.level_counts[tree.order[depth]] for depth in depths)
    if cells > MAX_CONTEXTS:
        raise ModelError(
            f"outcome space of {cells} cells exceeds {MAX_CONTEXTS}; exact enumeration refused"
        )
    probs = tree.require_fitted()
    joint = np.ones(())
    for depth in depths:
        ids = tree.stagings[depth].stage_of.reshape(context_shape(tree.schema, tree.order, depth))
        joint = joint[..., None] * probs[depth][ids]
        yield joint


def _tables(tree: StagedTree, groups) -> list[np.ndarray]:
    """The joint distribution of each group of variables (indices), one axis
    each in the group's order. One forward pass to the deepest variable of
    any group serves every group: its table is the joint after its own
    deepest variable with every other axis summed out. Every query without
    evidence reads from it.
    """
    groups = [[tree.depth_of(v) for v in group] for group in groups]
    ends = [max(depths) for depths in groups]
    tables = [None] * len(groups)
    for depth, joint in enumerate(_forward(tree, max(ends, default=-1))):
        for i, depths in enumerate(groups):
            if ends[i] == depth:
                kept = sorted(depths)
                other = tuple(d for d in range(depth + 1) if d not in kept)
                table = joint.sum(axis=other) if other else joint
                tables[i] = table.transpose([kept.index(d) for d in depths])
    return tables


def joint_table(tree: StagedTree) -> np.ndarray:
    """Full outcome table, axes in schema variable order.

    The returned array maps every full level-index assignment to its atom
    probability: ``table[i1, ..., ip]``.
    """
    return np.ascontiguousarray(_tables(tree, [range(tree.p)])[0])


def joint_level_iter(tree: StagedTree):
    """Yield (level labels, probability) per atom, in lexicographic order of
    the schema's level indices."""
    table = joint_table(tree)
    variables = tree.schema.variables
    for idx in np.ndindex(*tree.schema.level_counts):
        labels = tuple(variables[j].levels[idx[j]] for j in range(tree.p))
        yield labels, float(table[idx])


def marginal(tree: StagedTree, var) -> np.ndarray:
    """Marginal distribution of one variable via a forward pass over the
    ordering prefix that ends at it."""
    return _tables(tree, [[tree.schema.index(var)]])[0]


def _by_index(tree: StagedTree, findings: dict) -> dict:
    """Key findings by variable index; a variable given twice is an error."""
    out = {}
    for name, value in findings.items():
        var = tree.schema.index(name)
        if var in out:
            raise ModelError(f"variable {tree.schema.names[var]!r} is given twice")
        out[var] = value
    return out


def _coerce_hard(tree: StagedTree, evidence: dict) -> dict[int, int]:
    return {var: tree.schema.level_index(var, label) for var, label in _by_index(tree, evidence).items()}


def _is_distribution(arr: np.ndarray) -> bool:
    """Finite, non-negative and summing to one within 1e-9."""
    return bool(np.isfinite(arr).all() and (arr >= 0).all() and abs(float(arr.sum()) - 1.0) <= 1e-9)


def _coerce_soft(tree: StagedTree, soft: dict) -> dict[int, np.ndarray]:
    out = {}
    for var, target in _by_index(tree, soft).items():
        arr = np.asarray(target, dtype=float)
        if arr.shape != (tree.schema.level_counts[var],):
            raise ModelError(f"soft target for {tree.schema.names[var]!r} has wrong length")
        if not _is_distribution(arr):
            raise ModelError(f"soft target for {tree.schema.names[var]!r} is not a distribution")
        out[var] = arr
    return out


def _coerce_virtual(tree: StagedTree, weights: dict) -> dict[int, np.ndarray]:
    out = {}
    for var, factor in _by_index(tree, weights).items():
        arr = np.asarray(factor, dtype=float)
        if arr.shape != (tree.schema.level_counts[var],) or not (np.isfinite(arr).all() and (arr >= 0).all()):
            raise ModelError(f"virtual-evidence weights for {tree.schema.names[var]!r} are invalid")
        out[var] = arr
    return out


@dataclass(frozen=True, eq=False)
class _Positions:
    """The chain-event-graph positions of a fitted tree (Smith & Anderson):
    the contexts whose futures, probabilities included, are identical.

    ``rows[d]`` holds the stage probabilities of each depth-d position and
    ``child[d]`` the depth-(d+1) position each of its levels leads to. Past
    the last depth there is one terminal position, 0.
    """

    rows: tuple[np.ndarray, ...]
    child: tuple[np.ndarray, ...]


# Trees are frozen and their arrays read-only, so a tree's positions never
# go stale; the entry goes when the tree does.
_POSITIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _positions(tree: StagedTree) -> _Positions:
    """The tree's positions, compiled on first use."""
    found = _POSITIONS.get(tree)
    if found is None:
        found = _POSITIONS[tree] = _compile(tree)
    return found


def _compile(tree: StagedTree) -> _Positions:
    """One backward pass. At the last depth a position is a stage; at each
    shallower depth it is a distinct (stage id, child positions) row, coded
    as one int64 a child column at a time and re-ranked before a column
    could overflow the code.
    """
    probs = tree.require_fitted()
    last = tree.p - 1
    rows = [probs[last]]
    child = [np.zeros(probs[last].shape, dtype=np.int64)]
    position_of = tree.stagings[last].stage_of
    n_next = tree.stagings[last].n_stages
    for depth in range(last - 1, -1, -1):
        staging = tree.stagings[depth]
        children = position_of.reshape(staging.stage_of.size, -1)
        code, bound = staging.stage_of, staging.n_stages
        for column in children.T:
            if bound * n_next > 2**62:
                ranks, code = np.unique(code, return_inverse=True)
                bound = ranks.size
            code = code * n_next + column
            bound *= n_next
        _, first, position_of = np.unique(code, return_index=True, return_inverse=True)
        rows.append(probs[depth][staging.stage_of[first]])
        child.append(children[first])
        n_next = first.size
    return _Positions(tuple(reversed(rows)), tuple(reversed(child)))


def _reweigh(positions: _Positions, rows, factors: dict[int, np.ndarray], deepest: int):
    """Backward pass (Thwaites, Smith & Cowell): multiply the rows of each
    depth in ``factors`` by its factor, then, from ``deepest`` up to the
    root, renormalize every position's rows into its conditional
    probabilities given the findings below it. No factor may lie deeper
    than ``deepest``, whose deeper rows must already sum to one. Returns the
    new rows and the mass the factors leave.
    """
    rows = list(rows)
    below = None
    for depth in range(deepest, -1, -1):
        weighted = rows[depth] * factors[depth] if depth in factors else rows[depth]
        if below is not None:
            weighted = weighted * below[positions.child[depth]]
        below = weighted.sum(axis=1)
        rows[depth] = weighted / np.where(below > 0, below, 1.0)[:, None]
    return rows, float(below[0])


def _marginals(positions: _Positions, rows) -> list[np.ndarray]:
    """Forward pass: each depth's marginal, from the probability of reaching
    each position, which the next depth's positions gather by bincount."""
    sums = []
    reach = np.ones(1)
    for depth, conditional in enumerate(rows):
        sums.append(reach @ conditional)
        if depth + 1 < len(rows):
            reach = np.bincount(
                positions.child[depth].ravel(),
                (reach[:, None] * conditional).ravel(),
                minlength=rows[depth + 1].shape[0],
            )
    return sums


def _one_hot(tree: StagedTree, var: int, level: int) -> np.ndarray:
    return (np.arange(tree.schema.level_counts[var]) == level).astype(float)


def _condition(
    tree: StagedTree,
    hard: dict[int, int],
    soft: dict[int, np.ndarray],
    weights: dict[int, np.ndarray],
    tol: float = 1e-9,
    max_iter: int = 1000,
) -> QueryResult:
    """The one conditioning core, on coerced findings keyed by variable index.

    Every finding is a factor on its variable's depth in passes over the
    tree's positions: a hard finding is one-hot, virtual weights are
    themselves. The backward pass that applies them leaves the positions'
    conditional probabilities given the evidence, and the evidence
    probability is the mass it leaves (soft findings alone have none). Soft
    targets are then matched by IPF, which visits them in ascending schema
    index; each step is one pass that rescales the target's depth. No array
    of the passes outgrows the tree's contexts, which ``StagedTree`` guards,
    so no outcome space is refused here.
    """
    names = tree.schema.names
    if not 0 < tol < 1:
        raise ModelError(f"tol must lie strictly between 0 and 1, got {tol}")
    if max_iter < 1:
        raise ModelError(f"max_iter must be at least 1, got {max_iter}")
    if len(set(hard) | set(soft) | set(weights)) < len(hard) + len(soft) + len(weights):
        raise ModelError("a variable may carry only one kind of evidence")
    positions = _positions(tree)
    factors = {tree.depth_of(var): _one_hot(tree, var, level) for var, level in hard.items()}
    factors.update((tree.depth_of(var), factor) for var, factor in weights.items())
    rows, prob = _reweigh(positions, positions.rows, factors, tree.p - 1)
    if prob == 0.0:
        findings = {names[v]: tree.schema.variables[v].levels[level] for v, level in hard.items()}
        findings.update((names[v], "virtual") for v in weights)
        raise ModelError(f"evidence has probability zero (removed all probability mass): {findings}")
    sums = _marginals(positions, rows)
    iterations = dev = None
    if soft:
        targets = [(var, tree.depth_of(var), soft[var]) for var in sorted(soft)]

        def deviation() -> float:
            return max(float(np.abs(sums[depth] - target).max()) for _, depth, target in targets)

        iterations, dev = 0, deviation()
        while not dev < tol:  # a NaN deviation is no convergence
            if iterations == max_iter:
                raise ConvergenceError(
                    f"soft-evidence update failed to converge after {max_iter} cycles "
                    f"(deviation {dev:.3e}, tolerance {tol:.3e})",
                    dev,
                )
            iterations += 1
            for i, (var, depth, target) in enumerate(targets):
                if i:
                    sums = _marginals(positions, rows)
                current = sums[depth]
                impossible = (current == 0) & (target > 0)
                if impossible.any():
                    levels = [tree.schema.variables[var].levels[level] for level in np.flatnonzero(impossible)]
                    raise ModelError(
                        f"soft target for {names[var]!r} puts mass on levels {levels} "
                        f"the model assigns probability zero"
                    )
                with np.errstate(invalid="ignore", divide="ignore"):
                    step = np.where(current > 0, target / current, 0.0)
                rows, _ = _reweigh(positions, rows, {depth: step}, depth)
            sums = _marginals(positions, rows)
            dev = deviation()
    marginals = {names[var]: sums[tree.depth_of(var)] for var in range(tree.p)}
    for var, level in hard.items():
        marginals[names[var]] = _one_hot(tree, var, level)
    return QueryResult(
        marginals,
        evidence_probability=prob if hard or weights else None,
        iterations=iterations,
        max_deviation=dev,
    )


def condition_hard(tree: StagedTree, evidence: dict) -> QueryResult:
    """Exact conditioning on observed levels.

    Each finding is a one-hot factor in passes over the tree's positions,
    so memory scales with the positions, not the outcome space.
    """
    ev = _coerce_hard(tree, evidence)
    if not ev:
        raise ModelError("hard conditioning needs at least one finding")
    return _condition(tree, ev, {}, {})


def condition_soft(
    tree: StagedTree, soft: dict, tol: float = 1e-9, max_iter: int = 1000
) -> QueryResult:
    """Update the joint so the given variables take asserted marginals.

    With one finding this is an exact single-pass update that preserves the
    conditionals given the evidence variable; with several findings the
    rescaling cycles until all targets agree within tolerance.
    """
    targets = _coerce_soft(tree, soft)
    if not targets:
        raise ModelError("soft conditioning needs at least one target")
    return _condition(tree, {}, targets, {}, tol, max_iter)


def condition_virtual(tree: StagedTree, weights: dict, evidence: dict | None = None) -> QueryResult:
    """Likelihood (virtual) evidence: reweight the joint by per-level factors
    and renormalize, instead of pinning posterior marginals.

    Offered as the alternative reading of a soft finding; the factors need not
    sum to one. Hard findings in ``evidence`` (observed levels) apply
    together with them, as in ``condition_hard``.
    """
    factors = _coerce_virtual(tree, weights)
    hard = _coerce_hard(tree, evidence or {})
    if not (factors or hard):
        raise ModelError("virtual conditioning needs at least one weight vector or finding")
    return _condition(tree, hard, {}, factors)


def run_query(
    tree: StagedTree, spec: EvidenceSpec, tol: float = 1e-9, max_iter: int = 1000
) -> QueryResult:
    """Apply hard findings first, then soft findings on the conditioned joint."""
    if not (spec.hard or spec.soft):
        raise ModelError("the evidence specification is empty")
    return _condition(
        tree, _coerce_hard(tree, spec.hard), _coerce_soft(tree, spec.soft), {}, tol, max_iter
    )


def mutual_information(tree: StagedTree, a, b) -> float:
    """Mutual information (nats) between two variables under the model."""
    a, b = tree.schema.index(a), tree.schema.index(b)
    if a == b:
        raise ModelError("mutual information needs two distinct variables")
    return _mutual_information(_tables(tree, [[a, b]])[0])


def _mutual_information(pair: np.ndarray) -> float:
    """Mutual information (nats) between the two axes of a joint table."""
    pa = pair.sum(axis=1)
    pb = pair.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = pair / (pa[:, None] * pb[None, :])
        terms = np.where(pair > 0, pair * np.log(ratio), 0.0)
    value = float(terms.sum())
    if value < -1e-12:
        raise ModelError(f"mutual information computed as {value}; joint table is inconsistent")
    return max(value, 0.0)


# Sweep responses that differ by at most this much count as equal.
SWEEP_TIE = 1e-12


@dataclass(frozen=True)
class SweepRow:
    """Largest response of one target level to fixing one predictor."""

    predictor: str
    target_level: str
    max_change: float
    direction: str
    mutual_information: float


def whatif_sweep(tree: StagedTree, target, predictors=None) -> list[SweepRow]:
    """Fix every level of every predictor in turn and summarize the movement
    of the target's marginal.

    The responses and each row's ``mutual_information`` (that of the
    predictor and the target) are read from the table P(predictor, target).
    One forward pass serves the tables of every predictor, so the
    ``MAX_CONTEXTS`` guard refuses the sweep exactly when it refuses
    ``mutual_information(tree, predictor, target)`` for some predictor.

    ``direction`` tracks the target-level probability along the predictor's
    level order: increase, decrease, mixed, or flat. Differences up to
    ``SWEEP_TIE`` count as ties, so a predictor the model makes irrelevant
    to the target is flat. Predictor levels the model gives zero probability
    are skipped with a warning.
    """
    target = tree.schema.index(target)
    if predictors is None:
        predictors = [v for v in range(tree.p) if v != target]
    else:
        predictors = [tree.schema.index(v) for v in predictors]
    if target in predictors:
        raise ModelError("the target cannot be one of the predictors")

    target_levels = tree.schema.variables[target].levels
    rows: list[SweepRow] = []
    for pred, pair in zip(predictors, _tables(tree, [[pred, target] for pred in predictors])):
        pred_name = tree.schema.names[pred]
        pred_levels = tree.schema.variables[pred].levels
        level_probs = pair.sum(axis=1)
        for level in np.flatnonzero(level_probs == 0.0):
            warnings.warn(f"skipping zero-probability level {pred_name}={pred_levels[level]}", stacklevel=2)
        live = level_probs > 0.0
        if live.sum() < 2:
            continue
        stacked = pair[live] / level_probs[live, None]
        mi = _mutual_information(pair)
        for t, level_name in enumerate(target_levels):
            series = stacked[:, t]
            max_change = float(series.max() - series.min())
            diffs = np.diff(series)
            if max_change <= SWEEP_TIE:
                direction = "flat"
            elif (diffs >= -SWEEP_TIE).all():
                direction = "increase"
            elif (diffs <= SWEEP_TIE).all():
                direction = "decrease"
            else:
                direction = "mixed"
            rows.append(SweepRow(pred_name, level_name, max_change, direction, mi))
    return rows
