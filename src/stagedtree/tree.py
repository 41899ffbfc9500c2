"""The staged tree model: staging, probabilities, fitting, and scoring.

A staged tree over an ordering of categorical variables stores, for every
depth j, a partition of the depth-j contexts (assignments to the first j
variables of the ordering) into stages, and one conditional probability
vector per stage. Contexts at depth j are always enumerated in lexicographic
order of their level-index tuples, with the first variable of the ordering
most significant; every array in this module follows that enumeration.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, Schema, Variable, cell_count
from .errors import DataError, ModelError

__all__ = [
    "Ordering",
    "StageAssignment",
    "StagedTree",
    "FitConfig",
    "fit",
    "log_likelihood",
    "log_likelihood_by_depth",
    "n_parameters",
    "bic",
    "atom_probability",
    "encode_bn",
    "tree_to_json",
    "tree_from_json",
    "context_shape",
    "n_contexts",
    "context_tuples",
    "context_label",
]

Ordering = tuple[int, ...]

MODEL_FORMAT_VERSION = 1


def validate_order(schema: Schema, order) -> Ordering:
    order = tuple(int(v) for v in order)
    if sorted(order) != list(range(len(schema))):
        raise ModelError(f"order {order} is not a permutation of 0..{len(schema) - 1}")
    return order


def context_shape(schema: Schema, order: Ordering, depth: int) -> tuple[int, ...]:
    """Level counts of the variables preceding the depth-j variable."""
    counts = schema.level_counts
    return tuple(counts[order[i]] for i in range(depth))


def n_contexts(schema: Schema, order: Ordering, depth: int) -> int:
    return cell_count(context_shape(schema, order, depth), f"contexts at depth {depth}")


def context_tuples(schema: Schema, order: Ordering, depth: int):
    """All depth-j contexts in enumeration (lexicographic) order."""
    shape = context_shape(schema, order, depth)
    return itertools.product(*(range(size) for size in shape))


def context_label(schema: Schema, order: Ordering, context: tuple[int, ...]) -> str:
    """Human-readable name of a context, e.g. ``Country=EE,Length=Low``."""
    if not context:
        return "root"
    parts = []
    for i, level in enumerate(context):
        var = schema.variables[order[i]]
        parts.append(f"{var.name}={var.levels[level]}")
    return ",".join(parts)


@dataclass(frozen=True, eq=False)
class StageAssignment:
    """Partition of the depth-j contexts into stages.

    ``stage_of[c]`` is the stage id of the c-th context in enumeration order.
    Ids are contiguous from 0 and never shared across depths.
    """

    depth: int
    stage_of: np.ndarray = field(repr=False)
    n_stages: int

    def __post_init__(self):
        arr = np.ascontiguousarray(self.stage_of, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ModelError("stage_of must be a non-empty 1-d array")
        if arr.min() < 0 or arr.max() >= self.n_stages or not np.bincount(arr, minlength=self.n_stages).all():
            raise ModelError(f"stage ids at depth {self.depth} must be contiguous from 0")
        arr.flags.writeable = False
        object.__setattr__(self, "stage_of", arr)


def canonical_stage_assignment(depth: int, raw_ids: np.ndarray) -> StageAssignment:
    """Relabel arbitrary stage ids to contiguous ids ordered by first context."""
    raw_ids = np.asarray(raw_ids)
    _, first_pos, inverse = np.unique(raw_ids, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first_pos, kind="stable"), kind="stable")
    return StageAssignment(depth, rank[inverse], int(first_pos.size))


@dataclass(frozen=True)
class FitConfig:
    """Additive smoothing used when estimating stage probabilities."""

    smoothing: float = 0.0

    def __post_init__(self):
        if not self.smoothing >= 0:
            raise ModelError("smoothing must be non-negative")


@dataclass(frozen=True, eq=False)
class StagedTree:
    """A staged tree: ordering, per-depth staging, per-stage probabilities.

    ``probs`` is None for an unfitted tree; once fitted it holds one
    (n_stages, n_levels) matrix per depth whose rows sum to one.
    """

    schema: Schema
    order: Ordering
    stagings: tuple[StageAssignment, ...]
    probs: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        order = validate_order(self.schema, self.order)
        object.__setattr__(self, "order", order)
        p = len(self.schema)
        if len(self.stagings) != p:
            raise ModelError(f"expected {p} stagings, got {len(self.stagings)}")
        for depth, staging in enumerate(self.stagings):
            if staging.depth != depth:
                raise ModelError(f"staging at position {depth} claims depth {staging.depth}")
            expected = n_contexts(self.schema, order, depth)
            if staging.stage_of.size != expected:
                raise ModelError(
                    f"depth {depth} needs {expected} contexts, staging has {staging.stage_of.size}"
                )
        if self.probs is not None:
            frozen = []
            for depth, mat in enumerate(self.probs):
                mat = np.ascontiguousarray(mat, dtype=float)
                levels = self.schema.level_counts[order[depth]]
                if mat.shape != (self.stagings[depth].n_stages, levels):
                    raise ModelError(f"probability matrix at depth {depth} has shape {mat.shape}")
                if (mat < 0).any():
                    raise ModelError(f"negative probability at depth {depth}")
                if not np.allclose(mat.sum(axis=1), 1.0, rtol=0, atol=1e-12):
                    raise ModelError(f"stage probabilities at depth {depth} do not sum to 1")
                mat.flags.writeable = False
                frozen.append(mat)
            object.__setattr__(self, "probs", tuple(frozen))

    @property
    def p(self) -> int:
        return len(self.schema)

    def variable_at(self, depth: int) -> Variable:
        return self.schema.variables[self.order[depth]]

    def depth_of(self, var: int) -> int:
        return self.order.index(var)

    def require_fitted(self) -> tuple[np.ndarray, ...]:
        if self.probs is None:
            raise ModelError("tree is not fitted; call fit() first")
        return self.probs


def context_counts(d: Dataset, order: Ordering, depth: int) -> np.ndarray:
    """Level counts of the depth-j variable in every depth-j context:
    shape (n_contexts, n_levels), contexts in enumeration order."""
    return d.counts(order[:depth + 1]).reshape(-1, d.schema.level_counts[order[depth]])


def pool_counts(counts: np.ndarray, stage_of: np.ndarray, n_stages: int) -> np.ndarray:
    """Sum the rows of a per-context count table by stage: (n_stages, n_levels)."""
    pooled = np.zeros((n_stages, counts.shape[1]), dtype=np.int64)
    np.add.at(pooled, stage_of, counts)
    return pooled


def stage_counts(d: Dataset, order: Ordering, depth: int, stage_of: np.ndarray, n_stages: int) -> np.ndarray:
    """Pooled level counts per stage at one depth: shape (n_stages, n_levels)."""
    return pool_counts(context_counts(d, order, depth), stage_of, n_stages)


def probabilities_from_counts(counts: np.ndarray, smoothing: float) -> np.ndarray:
    """Additively smoothed conditional probabilities; empty stages go uniform."""
    counts = np.asarray(counts, dtype=float)
    levels = counts.shape[1]
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = (counts + smoothing) / (totals + smoothing * levels)
    empty = (totals[:, 0] + smoothing * levels) == 0
    probs[empty] = 1.0 / levels
    return probs


def fit(tree: StagedTree, d: Dataset, cfg: FitConfig = FitConfig()) -> StagedTree:
    """Estimate per-stage probabilities from pooled context counts."""
    if d.schema != tree.schema:
        raise ModelError("dataset schema does not match the tree schema")
    probs = []
    for depth, staging in enumerate(tree.stagings):
        counts = stage_counts(d, tree.order, depth, staging.stage_of, staging.n_stages)
        probs.append(probabilities_from_counts(counts, cfg.smoothing))
    return StagedTree(tree.schema, tree.order, tree.stagings, tuple(probs))


def log_likelihood_by_depth(tree: StagedTree, d: Dataset) -> list[float]:
    """Per-depth log-likelihood terms; their sum is the full log-likelihood."""
    probs = tree.require_fitted()
    if d.schema != tree.schema:
        raise ModelError("dataset schema does not match the tree schema")
    terms = []
    for depth, staging in enumerate(tree.stagings):
        counts = context_counts(d, tree.order, depth)
        context, level = np.nonzero(counts)
        observed = probs[depth][staging.stage_of[context], level]
        with np.errstate(divide="ignore"):
            terms.append(float((counts[context, level] * np.log(observed)).sum()))
    return terms


def log_likelihood(tree: StagedTree, d: Dataset) -> float:
    """Sum over rows of the log path probability, taken as count * log p over
    the observed cells; -inf if an observed cell has probability zero."""
    return float(sum(log_likelihood_by_depth(tree, d)))


def n_parameters(tree: StagedTree) -> int:
    """Free parameters: each stage contributes (levels - 1)."""
    total = 0
    for depth, staging in enumerate(tree.stagings):
        levels = tree.schema.level_counts[tree.order[depth]]
        total += staging.n_stages * (levels - 1)
    return total


def bic(tree: StagedTree, d: Dataset) -> float:
    """-2 log-likelihood + parameters * log N; lower is better."""
    return -2.0 * log_likelihood(tree, d) + n_parameters(tree) * math.log(d.n)


def _as_index_tuple(tree: StagedTree, x) -> tuple[int, ...]:
    schema = tree.schema
    if isinstance(x, dict):
        missing = set(schema.names) - set(x)
        if missing:
            raise ModelError(f"assignment is missing variables {sorted(missing)}")
        labels = [x[name] for name in schema.names]
    else:
        labels = list(x)
        if len(labels) != len(schema):
            raise ModelError(f"assignment has {len(labels)} values, expected {len(schema)}")
    return tuple(schema.level_index(j, lbl) for j, lbl in enumerate(labels))


def atom_probability(tree: StagedTree, x) -> float:
    """Probability of one full assignment: product of stage probabilities
    along its root-to-leaf path.

    ``x`` is either a mapping variable name -> level label or a sequence of
    level labels in schema order.
    """
    probs = tree.require_fitted()
    idx = _as_index_tuple(tree, x)
    value = 1.0
    code = 0
    for depth in range(tree.p):
        var = tree.order[depth]
        stage = int(tree.stagings[depth].stage_of[code])
        value *= float(probs[depth][stage, idx[var]])
        if depth + 1 < tree.p:
            radix = tree.schema.level_counts[var]
            code = code * radix + idx[var]
    return value


def encode_bn(
    schema: Schema,
    parents: dict[str, list[str]],
    cpts: dict[str, np.ndarray],
    order=None,
) -> StagedTree:
    """Represent a discrete Bayesian network as a fitted staged tree.

    ``parents[v]`` lists the parent variable names of v; ``cpts[v]`` has one
    axis per parent (in that listed order) plus a final axis over v's levels.
    Contexts that agree on the parent values share a stage, and stages whose
    probability rows are bit-equal are merged, so every equality present in
    the tables becomes part of the staging. The resulting tree reproduces the
    network's joint distribution exactly.
    """
    names = schema.names
    parent_idx: dict[int, tuple[int, ...]] = {}
    for j, name in enumerate(names):
        plist = parents.get(name, [])
        parent_idx[j] = tuple(schema.index(pn) for pn in plist)

    if order is None:
        order = _topological_order(len(schema), parent_idx)
    else:
        if all(isinstance(v, str) for v in order):
            order = [schema.index(v) for v in order]
        order = validate_order(schema, order)
        position = {v: i for i, v in enumerate(order)}
        for j, pars in parent_idx.items():
            for q in pars:
                if position[q] >= position[j]:
                    raise ModelError(
                        f"order is inconsistent with the DAG: {names[q]} is a parent of {names[j]}"
                    )

    counts = schema.level_counts
    cpt_arrays: dict[int, np.ndarray] = {}
    for j, name in enumerate(names):
        if name not in cpts:
            raise ModelError(f"missing CPT for variable {name!r}")
        arr = np.ascontiguousarray(cpts[name], dtype=float)
        expected = tuple(counts[q] for q in parent_idx[j]) + (counts[j],)
        if arr.shape != expected:
            raise ModelError(f"CPT for {name!r} has shape {arr.shape}, expected {expected}")
        if (arr < 0).any() or not np.allclose(arr.sum(axis=-1), 1.0, rtol=0, atol=1e-9):
            raise ModelError(f"CPT rows for {name!r} must be distributions")
        cpt_arrays[j] = arr

    stagings = []
    probs = []
    for depth in range(len(schema)):
        var = order[depth]
        n_contexts(schema, order, depth)  # the MAX_CONTEXTS guard
        # One CPT row per parent configuration; bit-equal rows share a label.
        rows = cpt_arrays[var].reshape(-1, counts[var])
        row_bytes = np.dtype((np.void, rows.itemsize * rows.shape[1]))
        _, first, row_label = np.unique(
            rows.view(row_bytes).ravel(), return_index=True, return_inverse=True
        )
        # Each context's parent configuration, by broadcasting over the
        # context axes that hold a parent (parents in their listed order).
        config = np.zeros((1,) * depth, dtype=np.int64)
        for q in parent_idx[var]:
            axis = [1] * depth
            axis[order.index(q)] = counts[q]
            config = config * counts[q] + np.arange(counts[q]).reshape(axis)
        label = row_label[np.broadcast_to(config, context_shape(schema, order, depth)).ravel()]
        staging = canonical_stage_assignment(depth, label)
        stage_row = np.empty(staging.n_stages, dtype=np.int64)
        stage_row[staging.stage_of] = label
        stagings.append(staging)
        probs.append(rows[first[stage_row]])
    return StagedTree(schema, tuple(order), tuple(stagings), tuple(probs))


def _topological_order(p: int, parent_idx: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Smallest-index-first topological order; rejects cyclic parent maps."""
    remaining = set(range(p))
    placed: list[int] = []
    placed_set: set[int] = set()
    while remaining:
        ready = sorted(v for v in remaining if all(q in placed_set for q in parent_idx[v]))
        if not ready:
            raise ModelError("parent map is cyclic; cannot order the variables")
        v = ready[0]
        placed.append(v)
        placed_set.add(v)
        remaining.remove(v)
    return tuple(placed)


def tree_to_json(tree: StagedTree) -> str:
    """Serialize a tree (fitted or not) to the model JSON format."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "schema": {
            "variables": [
                {"name": v.name, "levels": list(v.levels)} for v in tree.schema.variables
            ]
        },
        "order": [tree.schema.names[v] for v in tree.order],
        "stagings": [
            {"depth": s.depth, "n_stages": s.n_stages, "stages": s.stage_of.tolist()}
            for s in tree.stagings
        ],
        "probabilities": None
        if tree.probs is None
        else [mat.tolist() for mat in tree.probs],
    }
    return json.dumps(payload, indent=2)


def tree_from_json(text: str) -> StagedTree:
    payload = json.loads(text)
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version!r}")
    variables = tuple(
        Variable(v["name"], tuple(v["levels"])) for v in payload["schema"]["variables"]
    )
    schema = Schema(variables)
    order = tuple(schema.index(name) for name in payload["order"])
    stagings = tuple(
        StageAssignment(s["depth"], np.asarray(s["stages"], dtype=np.int64), s["n_stages"])
        for s in payload["stagings"]
    )
    raw_probs = payload["probabilities"]
    probs = None if raw_probs is None else tuple(np.asarray(m, dtype=float) for m in raw_probs)
    return StagedTree(schema, order, stagings, probs)
