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
depth's stage grid.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

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


def _label_axes(grid: np.ndarray) -> list[tuple[str, tuple[str, ...]]]:
    """``(label, detected)`` for every axis of a stage grid, in one pass.

    Each axis is sorted within every configuration of the other axes once.
    A sorted row whose first and last values agree is a full block
    (context-specific); adjacent equal values in any other row form a proper
    block (partial). The same sorted rows link the same-stage configurations
    that differ in that one coordinate; the components of those links over
    all axes decide ``local``: an axis is local iff some stage's members lie
    in two or more components and take two or more values on that axis (a
    cross-component pair that differs on the axis exists iff they do).
    """
    size = grid.size
    flat_index = np.arange(size).reshape(grid.shape)
    sources, targets, blocks = [], [], []
    for axis in range(grid.ndim):
        values = np.moveaxis(grid, axis, -1).reshape(-1, grid.shape[axis])
        indices = np.moveaxis(flat_index, axis, -1).reshape(-1, grid.shape[axis])
        order = np.argsort(values, axis=1)
        values = np.take_along_axis(values, order, axis=1)
        indices = np.take_along_axis(indices, order, axis=1)
        same = values[:, 1:] == values[:, :-1]
        sources.append(indices[:, :-1][same])
        targets.append(indices[:, 1:][same])
        full = values[:, 0] == values[:, -1]
        blocks.append((bool(full.any()), bool((same.any(axis=1) & ~full).any())))

    # Components by min-label propagation: every configuration starts with
    # its own index, each link lowers both ends to the smaller label, and
    # pointer jumping (comp[comp]) shortens the chains. A label always names
    # a member of the same component, so once every link agrees, the labels
    # are the components.
    sources, targets = np.concatenate(sources), np.concatenate(targets)
    comp = np.arange(size)
    while not np.array_equal(comp[sources], comp[targets]):
        low = np.minimum(comp[sources], comp[targets])
        np.minimum.at(comp, sources, low)
        np.minimum.at(comp, targets, low)
        comp = comp[comp]
    # Per stage: does it span two or more components (column 0), and two or
    # more values of each axis (the other columns)?
    by_stage = np.argsort(grid, axis=None)
    stage = grid.reshape(-1)[by_stage]
    starts = np.flatnonzero(np.r_[True, stage[1:] != stage[:-1]])
    coords = np.vstack([comp, np.indices(grid.shape).reshape(grid.ndim, -1)]).T[by_stage]
    spread = np.minimum.reduceat(coords, starts) != np.maximum.reduceat(coords, starts)
    local = (spread[:, 1:] & spread[:, :1]).any(axis=0)

    # The kinds are listed in rising precedence; an edge carries the last.
    out = []
    for (has_full, has_proper), has_local in zip(blocks, local):
        kinds = zip((CONTEXT_SPECIFIC, PARTIAL, LOCAL), (has_full, has_proper, has_local))
        detected = tuple(kind for kind, seen in kinds if seen)
        out.append((detected[-1] if detected else SYMMETRIC, detected))
    return out


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
    """Minimal labeled DAG representation of the tree's staging."""
    edges: list[AldagEdge] = []
    for depth in range(1, tree.p):
        reduced, kept = _reduced_grid(tree, depth)
        if kept:
            for pred_pos, (label, detected) in zip(kept, _label_axes(reduced)):
                edges.append(AldagEdge(tree.order[pred_pos], tree.order[depth], label, detected))
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
