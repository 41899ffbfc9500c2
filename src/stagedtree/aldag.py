"""Compression of a staged tree into a labeled DAG of minimal parent sets.

For each variable, predecessors whose value never changes the stage (for any
fixed configuration of the other predecessors) are dropped jointly; dropping
them together is safe because any two configurations that agree on the kept
coordinates are connected by a chain of single-coordinate moves through
invariant coordinates. Each surviving edge is labeled by the kind of equality
pattern the staging imposes between the child's conditional distributions:

- ``context_specific``: in some configuration of the other parents, every
  value of this parent shares one stage;
- ``partial``: in some configuration, a proper subset of two or more values
  shares a stage;
- ``local``: call two parent configurations linked when they share a stage
  and differ in one coordinate. The edge is local iff some stage's members
  lie in two or more components of that link graph and take two or more
  values of this parent;
- ``symmetric``: none of the above. Precedence is local, partial,
  context-specific, symmetric.

``compress`` labels every edge of a depth in one vectorised pass over that
depth's stage grid; the bootstrap consensus labels the grids of a depth of
all its replicates in one such pass.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import learning
from .errors import ModelError
from .tree import StagedTree, context_shape

__all__ = [
    "SYMMETRIC",
    "CONTEXT_SPECIFIC",
    "PARTIAL",
    "LOCAL",
    "LABELS",
    "LABEL_COLORS",
    "AldagEdge",
    "Aldag",
    "DependenceSubtree",
    "compress",
    "dependence_subtree",
    "to_dot",
    "aldag_to_json",
]

SYMMETRIC = "symmetric"
CONTEXT_SPECIFIC = "context_specific"
PARTIAL = "partial"
LOCAL = "local"
LABELS = (SYMMETRIC, CONTEXT_SPECIFIC, PARTIAL, LOCAL)

LABEL_COLORS = {
    SYMMETRIC: "black",
    CONTEXT_SPECIFIC: "red",
    PARTIAL: "blue",
    LOCAL: "green",
}


@dataclass(frozen=True)
class AldagEdge:
    parent: int
    child: int
    label: str
    detected: tuple[str, ...] = ()


@dataclass(frozen=True)
class Aldag:
    """Directed acyclic graph over the tree's variables with labeled edges.

    Edges always point from earlier to later variables in the tree ordering,
    so acyclicity holds by construction.
    """

    schema: object
    order: tuple[int, ...]
    edges: tuple[AldagEdge, ...]

    def parents_of(self, child: int) -> tuple[int, ...]:
        position = {v: i for i, v in enumerate(self.order)}
        pars = [e.parent for e in self.edges if e.child == child]
        return tuple(sorted(pars, key=lambda v: position[v]))


def _label_axes(grids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which axes of each of R stage grids the stage varies with, and the
    blocks each axis shows, in one pass. ``grids`` stacks the grids on a
    leading replicate axis, which neither links configurations nor gets a
    label. Returns ``kept``, (R, axes), and ``seen``, (R, axes, 3): whether
    the axis shows a full block, a proper block and the local pattern.

    Each axis is sorted within every configuration of the other axes once.
    A sorted row whose first and last values agree is a full block
    (context-specific); adjacent equal values in any other row form a proper
    block (partial). An axis is kept unless every row along it is full. The
    same sorted rows link the same-stage configurations that differ in that
    one coordinate; the components of those links over all axes decide
    ``local``: an axis is local iff some stage's members lie in two or more
    components and take two or more values on that axis (a cross-component
    pair that differs on the axis exists iff they do).

    A removable axis only repeats the rows of the other axes and links each
    copy of a configuration to the next, so every full or proper block and
    every component maps one to one onto the grid restricted to the kept
    axes: the kept axes of a whole grid get the labels of its reduced grid.
    """
    replicates, shape = grids.shape[0], grids.shape[1:]
    cells = math.prod(shape)
    flat_index = np.arange(grids.size).reshape(grids.shape)
    sources, targets, kept, blocks = [], [], [], []
    for axis in range(1, grids.ndim):
        values = np.moveaxis(grids, axis, -1).reshape(replicates, -1, grids.shape[axis])
        indices = np.moveaxis(flat_index, axis, -1).reshape(replicates, -1, grids.shape[axis])
        order = np.argsort(values, axis=-1)
        values = np.take_along_axis(values, order, axis=-1)
        indices = np.take_along_axis(indices, order, axis=-1)
        same = values[..., 1:] == values[..., :-1]
        sources.append(indices[..., :-1][same])
        targets.append(indices[..., 1:][same])
        full = values[..., 0] == values[..., -1]
        kept.append(~full.all(axis=1))
        blocks += [full.any(axis=1), (same.any(axis=-1) & ~full).any(axis=1)]

    # Components by min-label propagation: every configuration starts with
    # its own index, each link lowers both ends to the smaller label, and
    # pointer jumping (comp[comp]) shortens the chains. A label always names
    # a member of the same component, so once every link agrees, the labels
    # are the components.
    sources, targets = np.concatenate(sources), np.concatenate(targets)
    comp = np.arange(grids.size)
    while not np.array_equal(comp[sources], comp[targets]):
        low = np.minimum(comp[sources], comp[targets])
        np.minimum.at(comp, sources, low)
        np.minimum.at(comp, targets, low)
        comp = comp[comp]
    # Per stage of each replicate: does it span two or more components
    # (column 0), and two or more values of each axis (the other columns)?
    width = int(grids.max()) + 1
    key = (grids.reshape(replicates, cells) + width * np.arange(replicates)[:, None]).reshape(-1)
    by_stage = np.argsort(key)
    stage = key[by_stage]
    starts = np.flatnonzero(np.r_[True, stage[1:] != stage[:-1]])
    coords = np.vstack([comp, np.tile(np.indices(shape).reshape(len(shape), -1), replicates)]).T[by_stage]
    spread = np.minimum.reduceat(coords, starts) != np.maximum.reduceat(coords, starts)
    owner = stage[starts] // width
    local = np.logical_or.reduceat(spread[:, 1:] & spread[:, :1], np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]]))
    seen = np.stack([np.column_stack(blocks[0::2]), np.column_stack(blocks[1::2]), local], axis=-1)
    return np.column_stack(kept), seen


def _edge_labels(stage_of: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray]:
    """``_label_axes`` of the depth of context shape ``shape`` of M
    replicates, ``stage_of`` holding each replicate's stage ids, (M,
    contexts). The replicates are labelled in chunks whose grids hold at
    most MERGE_BATCH_CELLS cells times the depth, or one replicate."""
    size = max(1, learning.MERGE_BATCH_CELLS // (stage_of.shape[1] * len(shape)))
    parts = [_label_axes(stage_of[at:at + size].reshape(-1, *shape)) for at in range(0, len(stage_of), size)]
    return np.concatenate([kept for kept, _ in parts]), np.concatenate([seen for _, seen in parts])


def _label_kinds(seen: np.ndarray) -> np.ndarray:
    """The index in LABELS of each axis's label, from ``_label_axes``'s
    ``seen`` (..., 3): LABELS lists the kinds in rising precedence, and an
    edge carries the last it shows."""
    return (seen * np.arange(1, 4)).max(axis=-1)


def _edge_label(seen) -> tuple[str, tuple[str, ...]]:
    """``(label, detected)`` of one axis from its row of ``seen``."""
    detected = tuple(kind for kind, shown in zip(LABELS[1:], seen.tolist()) if shown)
    return LABELS[int(_label_kinds(seen))], detected


def _reduced_grid(tree: StagedTree, depth: int) -> tuple[np.ndarray, list[int]]:
    """Stage grid of one depth restricted to its non-removable predecessors.

    Returns the reduced grid and the kept predecessor positions.
    """
    shape = context_shape(tree.schema, tree.order, depth)
    grid = tree.stagings[depth].stage_of.reshape(shape) if depth else np.zeros((), dtype=np.int64)
    kept: list[int] = []
    for axis in range(depth):
        reference = np.take(grid, [0], axis=axis)
        if not bool((grid == reference).all()):
            kept.append(axis)
    slicer = tuple(slice(None) if axis in kept else 0 for axis in range(depth))
    return np.asarray(grid[slicer]), kept


def compress(tree: StagedTree) -> Aldag:
    """Minimal labeled DAG representation of the tree's staging: the
    labels of ``_edge_labels`` of a batch of one."""
    edges: list[AldagEdge] = []
    for depth in range(1, tree.p):
        stage_of = tree.stagings[depth].stage_of[None]
        kept, seen = _edge_labels(stage_of, context_shape(tree.schema, tree.order, depth))
        for pred_pos in np.flatnonzero(kept[0]).tolist():
            edges.append(AldagEdge(tree.order[pred_pos], tree.order[depth], *_edge_label(seen[0, pred_pos])))
    return Aldag(tree.schema, tree.order, tuple(edges))


@dataclass(frozen=True, eq=False)
class DependenceSubtree:
    """One variable's staging shown over its ALDAG parents only."""

    child: int
    parents: tuple[int, ...]
    stage_grid: np.ndarray = field(repr=False)
    probs: dict[int, np.ndarray] = field(repr=False)
    schema: object = None

    def items(self):
        for combo in itertools.product(*(range(n) for n in self.stage_grid.shape)):
            sid = int(self.stage_grid[combo])
            yield combo, sid, self.probs[sid]


def dependence_subtree(tree: StagedTree, aldag: Aldag, child: int) -> DependenceSubtree:
    """Project one variable's staging onto its parents; well-defined because
    the staging is invariant in every dropped predecessor."""
    depth = tree.depth_of(child)
    reduced, kept = _reduced_grid(tree, depth)
    parents = tuple(tree.order[pos] for pos in kept)
    if parents != aldag.parents_of(child):
        raise ModelError("the ALDAG does not match the tree's staging")
    prob_matrix = tree.require_fitted()[depth]
    probs = {int(s): prob_matrix[int(s)] for s in np.unique(reduced)}
    return DependenceSubtree(child, parents, reduced, probs, tree.schema)


# Vertex fill colors cycle through this palette, per depth, by stage id.
_PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
    "#9a6324", "#fffac8", "#800000", "#aaffc3", "#808000", "#ffd8b1",
)


def _aldag_dot(aldag: Aldag, highlight=frozenset(), annotations=None) -> str:
    annotations = annotations or {}
    names = aldag.schema.names
    lines = ["digraph aldag {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for v in range(len(names)):
        attrs = []
        label = names[v]
        if names[v] in annotations:
            label += "\\n" + annotations[names[v]]
        attrs.append(f'label="{label}"')
        if names[v] in highlight:
            attrs.append('style=filled fillcolor=gray80')
        lines.append(f'  "{names[v]}" [{" ".join(attrs)}];')
    for e in sorted(aldag.edges, key=lambda e: (e.parent, e.child)):
        color = LABEL_COLORS[e.label]
        lines.append(
            f'  "{names[e.parent]}" -> "{names[e.child]}" [color={color} label="{e.label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tree_dot(tree: StagedTree) -> str:
    names = tree.schema.names
    probs = tree.probs
    lines = ["digraph staged_tree {", "  rankdir=LR;", '  node [shape=circle label=""];']
    for depth in range(tree.p):
        staging = tree.stagings[depth]
        var = tree.variable_at(depth)
        for code in range(staging.stage_of.size):
            stage = int(staging.stage_of[code])
            color = _PALETTE[stage % len(_PALETTE)]
            lines.append(
                f'  "d{depth}_c{code}" [fillcolor="{color}" style=filled '
                f'tooltip="{names[tree.order[depth]]} stage {stage}"];'
            )
            for level, level_name in enumerate(var.levels):
                child_code = code * len(var.levels) + level
                target = (
                    f'"d{depth + 1}_c{child_code}"' if depth + 1 < tree.p else f'"leaf_{child_code}"'
                )
                label = level_name
                if probs is not None:
                    label += f" {probs[depth][stage, level]:.6g}"
                lines.append(f'  "d{depth}_c{code}" -> {target} [label="{label}"];')
    n_leaves = tree.stagings[-1].stage_of.size * len(tree.variable_at(tree.p - 1).levels)
    for leaf in range(n_leaves):
        lines.append(f'  "leaf_{leaf}" [shape=point];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _subtree_dot(sub: DependenceSubtree) -> str:
    names = sub.schema.names
    child_levels = sub.schema.variables[sub.child].levels
    lines = [f'digraph dependence_subtree_{names[sub.child]} {{', "  rankdir=LR;"]
    lines.append('  "root" [shape=point];')
    seen: set[str] = set()
    for combo, sid, vec in sub.items():
        path = "root"
        for i, level in enumerate(combo):
            var = sub.schema.variables[sub.parents[i]]
            node = f"p{i}_" + "_".join(str(c) for c in combo[: i + 1])
            if node not in seen:
                seen.add(node)
                lines.append(f'  "{node}" [shape=circle label=""];')
                lines.append(f'  "{path}" -> "{node}" [label="{var.name}={var.levels[level]}"];')
            path = node
        color = _PALETTE[sid % len(_PALETTE)]
        dist = ", ".join(f"{child_levels[i]}={vec[i]:.4g}" for i in range(len(child_levels)))
        stage_node = "stage_" + "_".join(str(c) for c in combo) if combo else "stage_root"
        lines.append(
            f'  "{stage_node}" [shape=box style=filled fillcolor="{color}" '
            f'label="stage {sid}\\n{dist}"];'
        )
        lines.append(f'  "{path}" -> "{stage_node}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(obj, path: str, highlight=frozenset(), annotations=None) -> None:
    """Write deterministic DOT text for an ALDAG, staged tree, or dependence
    subtree; ``highlight`` and ``annotations`` apply to an ALDAG only."""
    if isinstance(obj, Aldag):
        text = _aldag_dot(obj, highlight=highlight, annotations=annotations)
    elif isinstance(obj, StagedTree):
        text = _tree_dot(obj)
    elif isinstance(obj, DependenceSubtree):
        text = _subtree_dot(obj)
    else:
        raise ModelError(f"cannot render {type(obj).__name__} as DOT")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def aldag_to_json(aldag: Aldag) -> str:
    names = aldag.schema.names
    payload = {
        "format_version": 1,
        "variables": list(names),
        "order": [names[v] for v in aldag.order],
        "edges": [
            {
                "from": names[e.parent],
                "to": names[e.child],
                "label": e.label,
                "detected_types": list(e.detected),
            }
            for e in sorted(aldag.edges, key=lambda e: (e.parent, e.child))
        ],
    }
    return json.dumps(payload, indent=2)
