import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagedtree import (
    CONTEXT_SPECIFIC,
    LOCAL,
    PARTIAL,
    SYMMETRIC,
    ModelError,
    Schema,
    StagedTree,
    Variable,
    aldag_to_json,
    compress,
    condition_hard,
    dependence_subtree,
    encode_bn,
    to_dot,
)

from stagedtree import aldag, learning
from stagedtree.aldag import _edge_label, _edge_labels, _label_axes, _reduced_grid
from stagedtree.tree import context_shape, n_contexts

from conftest import (
    local_variant_tree,
    max_in_degree,
    random_dataset,
    random_schema,
    saturated_tree,
    staging_from_ids,
)


# Reference labeller: the per-axis classification that compress used before
# every axis of a depth was labelled in one vectorised pass. It builds the
# components with a Python union-find and finds local evidence by comparing
# every cross-component pair of same-stage configurations.


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _same_stage_components(grid: np.ndarray) -> np.ndarray:
    """Connected components of the graph on parent configurations linking
    same-stage configurations that differ in exactly one coordinate."""
    size = grid.size
    uf = _UnionFind(size)
    flat_index = np.arange(size).reshape(grid.shape)
    for axis in range(grid.ndim):
        values = np.moveaxis(grid, axis, 0).reshape(grid.shape[axis], -1)
        indices = np.moveaxis(flat_index, axis, 0).reshape(grid.shape[axis], -1)
        for u in range(grid.shape[axis]):
            for v in range(u + 1, grid.shape[axis]):
                match = values[u] == values[v]
                for a, b in zip(indices[u][match], indices[v][match]):
                    uf.union(int(a), int(b))
    comp = np.empty(size, dtype=np.int64)
    for x in range(size):
        comp[x] = uf.find(x)
    return comp


def _local_evidence_axes(grid: np.ndarray) -> set[int]:
    """Axes touched by same-stage equalities that the single-coordinate graph
    cannot explain (pairs in different connected components)."""
    comp = _same_stage_components(grid)
    flat_stage = grid.reshape(-1)
    coords = np.column_stack(np.unravel_index(np.arange(grid.size), grid.shape))
    evidence: set[int] = set()
    for stage in np.unique(flat_stage):
        members = np.flatnonzero(flat_stage == stage)
        if members.size < 2:
            continue
        groups: dict[int, list[int]] = {}
        for m in members:
            groups.setdefault(int(comp[m]), []).append(int(m))
        if len(groups) < 2:
            continue
        reps = list(groups.values())
        for gi in range(len(reps)):
            for gj in range(gi + 1, len(reps)):
                for a in reps[gi]:
                    for b in reps[gj]:
                        differ = np.flatnonzero(coords[a] != coords[b])
                        evidence.update(int(ax) for ax in differ)
    return evidence


def _slice_blocks(grid: np.ndarray, axis: int):
    """For every configuration of the other axes, the partition of the axis
    values induced by stage equality, as a list of block-size lists."""
    rows = np.moveaxis(grid, axis, -1).reshape(-1, grid.shape[axis])
    out = []
    for row in rows:
        _, counts = np.unique(row, return_counts=True)
        out.append(sorted(int(c) for c in counts))
    return out


def reference_classify_edge(grid: np.ndarray, axis: int) -> tuple[str, tuple[str, ...]]:
    if grid.ndim == 0 or axis >= grid.ndim:
        raise ModelError("axis out of range for the parent grid")
    reference = np.take(grid, [0], axis=axis)
    if bool((grid == reference).all()):
        raise ModelError(f"axis {axis} is removable; it cannot carry an edge label")

    level_count = grid.shape[axis]
    blocks = _slice_blocks(grid, axis)
    has_proper = any(any(1 < size < level_count for size in sizes) for sizes in blocks)
    has_full = any(sizes == [level_count] for sizes in blocks)

    detected = []
    if has_full:
        detected.append(CONTEXT_SPECIFIC)
    if has_proper:
        detected.append(PARTIAL)
    if axis in _local_evidence_axes(grid):
        detected.append(LOCAL)

    if LOCAL in detected:
        label = LOCAL
    elif PARTIAL in detected:
        label = PARTIAL
    elif CONTEXT_SPECIFIC in detected:
        label = CONTEXT_SPECIFIC
    else:
        label = SYMMETRIC
    return label, tuple(detected)


def classify_edge(grid: np.ndarray, axis: int) -> tuple[str, tuple[str, ...]]:
    """Label the dependence of the child on the parent at the given axis by
    the one-pass labelling; ``grid`` holds the stage id for every
    configuration of the child's parents. Raises if the axis is removable
    (the stage never varies with it), since such an axis must not be an edge
    at all."""
    if grid.ndim == 0 or axis >= grid.ndim:
        raise ModelError("axis out of range for the parent grid")
    reference = np.take(grid, [0], axis=axis)
    if bool((grid == reference).all()):
        raise ModelError(f"axis {axis} is removable; it cannot carry an edge label")
    return labels_of(grid)[axis]


def labels_of(grid: np.ndarray) -> list[tuple[str, tuple[str, ...]]]:
    """``(label, detected)`` of every axis of one grid, removable or not,
    from the stacked labelling of a batch of one."""
    _, seen = _label_axes(grid[None])
    return [_edge_label(row) for row in seen[0]]


def reference_compress_edges(tree):
    edges = []
    for depth in range(1, tree.p):
        reduced, kept = _reduced_grid(tree, depth)
        for axis_pos, pred_pos in enumerate(kept):
            label, detected = reference_classify_edge(reduced, axis_pos)
            edges.append((tree.order[pred_pos], tree.order[depth], label, detected))
    return edges


def edge_map(aldag):
    names = aldag.schema.names
    return {(names[e.parent], names[e.child]): e.label for e in aldag.edges}


class TestReferenceCompression:
    def test_exact_edges_and_labels(self, table_model):
        got = edge_map(compress(table_model))
        assert got == {
            ("Country", "Length"): PARTIAL,
            ("Country", "Income"): PARTIAL,
            ("Length", "Satisfaction"): SYMMETRIC,
            ("Income", "Satisfaction"): CONTEXT_SPECIFIC,
        }

    def test_local_variant_labels(self):
        got = edge_map(compress(local_variant_tree()))
        assert got[("Length", "Satisfaction")] == LOCAL
        assert got[("Income", "Satisfaction")] == LOCAL

    def test_full_independence_has_no_edges(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        stagings = (staging_from_ids(0, [0]), staging_from_ids(1, [0, 0]))
        tree = StagedTree(schema, (0, 1), stagings)
        assert compress(tree).edges == ()

    def test_saturated_tree_is_complete_and_symmetric(self):
        rng = np.random.default_rng(1)
        d = random_dataset(rng, p=3, n=400)
        # fitting is irrelevant for compression; the skeleton suffices
        skeleton = saturated_tree(d.schema, (2, 0, 1))
        graph = compress(skeleton)
        expected_pairs = {(2, 0), (2, 1), (0, 1)}
        assert {(e.parent, e.child) for e in graph.edges} == expected_pairs
        assert all(e.label == SYMMETRIC for e in graph.edges)

    def test_bn_with_distinct_rows_round_trips(self):
        rng = np.random.default_rng(5)
        schema = Schema(
            (Variable("A", ("a", "b")), Variable("B", ("x", "y")), Variable("C", ("u", "v")))
        )
        # rows chosen distinct so no accidental stage pooling occurs
        cpts = {
            "A": np.array([0.3, 0.7]),
            "B": np.array([[0.2, 0.8], [0.6, 0.4]]),
            "C": np.array([[[0.1, 0.9], [0.4, 0.6]], [[0.55, 0.45], [0.8, 0.2]]]),
        }
        parents = {"A": [], "B": ["A"], "C": ["A", "B"]}
        tree = encode_bn(schema, parents, cpts)
        graph = compress(tree)
        assert {(e.parent, e.child) for e in graph.edges} == {(0, 1), (0, 2), (1, 2)}
        assert all(e.label == SYMMETRIC for e in graph.edges)

    def test_edges_point_forward_in_the_ordering(self):
        from conftest import random_fitted_tree

        rng = np.random.default_rng(19)
        for _ in range(10):
            tree = random_fitted_tree(rng)
            position = {v: i for i, v in enumerate(tree.order)}
            for e in compress(tree).edges:
                assert position[e.parent] < position[e.child]

    def test_minimality_removable_predecessor_dropped(self):
        # staging of depth 2 ignores the first variable entirely
        schema = Schema(
            (Variable("A", ("a", "b")), Variable("B", ("x", "y")), Variable("C", ("u", "v")))
        )
        stagings = (
            staging_from_ids(0, [0]),
            staging_from_ids(1, [0, 1]),
            staging_from_ids(2, [0, 1, 0, 1]),  # contexts (A,B): depends on B only
        )
        tree = StagedTree(schema, (0, 1, 2), stagings)
        graph = compress(tree)
        assert graph.parents_of(2) == (1,)


class TestClassifyEdge:
    def test_partial_blocks(self):
        # four parent values staged {0,2} and {1,3}: proper two-element blocks
        grid = np.array([0, 1, 0, 1])
        label, detected = classify_edge(grid, 0)
        assert label == PARTIAL and detected == (PARTIAL,)

    def test_context_specific_full_block(self):
        # in context 0 the parent is irrelevant; in context 1 it matters
        grid = np.array([[0, 0], [1, 2]])
        label, detected = classify_edge(grid, 1)
        assert label == CONTEXT_SPECIFIC and detected == (CONTEXT_SPECIFIC,)

    def test_symmetric_all_singletons(self):
        grid = np.array([[0, 1], [2, 3]])
        assert classify_edge(grid, 0)[0] == SYMMETRIC
        assert classify_edge(grid, 1)[0] == SYMMETRIC

    def test_local_cross_component_equality(self):
        # stages equal only across a two-coordinate change
        grid = np.array([[0, 1], [2, 0]])
        assert classify_edge(grid, 0)[0] == LOCAL
        assert classify_edge(grid, 1)[0] == LOCAL

    def test_removable_axis_rejected(self):
        grid = np.array([[0, 1], [0, 1]])
        with pytest.raises(ModelError, match="removable"):
            classify_edge(grid, 0)

    def test_precedence_partial_beats_context_specific(self):
        # context 0: full block; context 1: proper pair among three values
        grid = np.array([[0, 0, 0], [1, 1, 2]])
        label, detected = classify_edge(grid, 1)
        assert label == PARTIAL
        assert set(detected) == {PARTIAL, CONTEXT_SPECIFIC}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_invariant_under_stage_relabeling(self, data):
        shape = data.draw(
            st.tuples(st.integers(2, 3), st.integers(2, 3)), label="shape"
        )
        cells = data.draw(
            st.lists(
                st.integers(0, 4), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
            )
        )
        grid = np.array(cells).reshape(shape)
        axis = data.draw(st.integers(0, 1))
        reference = np.take(grid, [0], axis=axis)
        if bool((grid == reference).all()):
            return
        perm = data.draw(st.permutations(list(range(5))))
        relabeled = np.array(perm)[grid]
        assert classify_edge(grid, axis) == classify_edge(relabeled, axis)


@st.composite
def stage_grids(draw):
    """Grids of 1-5 axes with 2-4 levels and 1-6 stage ids, some with planted
    equal values along one axis (whole rows, or pairs within a row)."""
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=5), label="shape"))
    n_ids = draw(st.integers(1, 6), label="ids")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, n_ids, size=shape)
    for _ in range(draw(st.integers(0, 4), label="plants")):
        axis = int(rng.integers(len(shape)))
        row = [int(rng.integers(n)) for n in shape]
        row[axis] = slice(None)
        levels = rng.permutation(shape[axis])
        if rng.random() < 0.5:
            grid[tuple(row)] = grid[tuple(row)][levels[0]]
        else:
            values = grid[tuple(row)]
            values[levels[1]] = values[levels[0]]
    return grid


class TestLabelAxes:
    @settings(max_examples=300, deadline=None)
    @given(grid=stage_grids())
    def test_matches_per_axis_reference(self, grid):
        labels = labels_of(grid)
        kept, _ = _label_axes(grid[None])
        assert len(labels) == grid.ndim and kept.shape == (1, grid.ndim)
        for axis in range(grid.ndim):
            removable = bool((grid == np.take(grid, [0], axis=axis)).all())
            assert bool(kept[0, axis]) is not removable
            if removable:
                with pytest.raises(ModelError, match="removable"):
                    classify_edge(grid, axis)
                continue
            expected = reference_classify_edge(grid, axis)
            assert labels[axis] == expected
            assert classify_edge(grid, axis) == expected

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_ids=st.integers(1, 4))
    def test_compress_matches_reference(self, seed, n_ids):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 6))
        schema = random_schema(rng, p)
        order = tuple(int(v) for v in rng.permutation(p))
        stagings = tuple(
            staging_from_ids(depth, rng.integers(0, n_ids, size=n_contexts(schema, order, depth)))
            for depth in range(p)
        )
        tree = StagedTree(schema, order, stagings)
        got = [(e.parent, e.child, e.label, e.detected) for e in compress(tree).edges]
        assert got == reference_compress_edges(tree)


def tree_with_removable_axes(rng, schema, order, n_ids):
    """Unfitted tree whose stage grids ignore a random subset of their axes:
    ids drawn on the kept axes only, then repeated along the others."""
    stagings = []
    for depth in range(len(order)):
        shape = context_shape(schema, order, depth)
        kept = [size if rng.random() < 0.5 else 1 for size in shape]
        ids = np.broadcast_to(rng.integers(0, n_ids, size=kept), shape).ravel()
        stagings.append(staging_from_ids(depth, ids))
    return StagedTree(schema, order, tuple(stagings))


class TestStackedLabels:
    """The grids of one depth of many trees labelled in one stacked pass, on
    the whole grids and in chunks, against the per-tree reference on the
    reduced grids."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        trees=st.integers(1, 6),
        n_ids=st.integers(1, 4),
        cap=st.sampled_from([None, 1, 24, 200]),
    )
    def test_equal_to_reference_per_tree(self, seed, trees, n_ids, cap):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 6))
        schema = random_schema(rng, p)
        order = tuple(int(v) for v in rng.permutation(p))
        stack = [tree_with_removable_axes(rng, schema, order, n_ids) for _ in range(trees)]
        got = [[] for _ in stack]
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(learning, "MERGE_BATCH_CELLS", cap)
            for depth in range(1, p):
                stage_of = np.stack([tree.stagings[depth].stage_of for tree in stack])
                kept, seen = _edge_labels(stage_of, context_shape(schema, order, depth))
                assert kept.shape == seen.shape[:2] == (trees, depth)
                for edges, kept_row, seen_row in zip(got, kept, seen):
                    for axis in np.flatnonzero(kept_row).tolist():
                        edges.append((order[axis], order[depth], *_edge_label(seen_row[axis])))
        for tree, edges in zip(stack, got):
            assert edges == reference_compress_edges(tree)
            assert edges == [(e.parent, e.child, e.label, e.detected) for e in compress(tree).edges]

    def test_chunks_hold_at_most_the_cap(self, monkeypatch):
        # Depth 3 of 2 x 3 x 2 contexts: 36 cells a replicate at depth 3,
        # so a cap of 80 labels five replicates in chunks of 2, 2 and 1.
        rng = np.random.default_rng(4)
        stage_of = rng.integers(0, 3, size=(5, 12))
        want = _edge_labels(stage_of, (2, 3, 2))
        sizes = []
        real = aldag._label_axes
        monkeypatch.setattr(aldag, "_label_axes", lambda grids: sizes.append(len(grids)) or real(grids))
        monkeypatch.setattr(learning, "MERGE_BATCH_CELLS", 80)
        got = _edge_labels(stage_of, (2, 3, 2))
        assert sizes == [2, 2, 1]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestDependenceSubtree:
    def test_reference_satisfaction_projection(self, table_model):
        graph = compress(table_model)
        sub = dependence_subtree(table_model, graph, child=3)
        assert sub.parents == (1, 2)  # Length, Income in ordering positions
        stages = {int(sub.stage_grid[l, i]) for l in range(2) for i in range(2)}
        assert len(stages) == 3
        # (Low, High) and (Low, Low) pooled
        assert sub.stage_grid[1, 0] == sub.stage_grid[1, 1]

    def test_parentless_variable(self, table_model):
        graph = compress(table_model)
        sub = dependence_subtree(table_model, graph, child=0)
        assert sub.parents == ()
        vec = sub.probs[int(sub.stage_grid[()])]
        assert vec.tolist() == [0.35, 0.25, 0.15, 0.25]

    def test_subtree_matches_full_tree_conditionals(self, table_model):
        graph = compress(table_model)
        sub = dependence_subtree(table_model, graph, child=3)
        schema = table_model.schema
        for l in range(2):
            for i in range(2):
                vec = sub.probs[int(sub.stage_grid[l, i])]
                evidence = {
                    "Length": schema.variables[1].levels[l],
                    "Income": schema.variables[2].levels[i],
                }
                posterior = condition_hard(table_model, evidence).marginals["Satisfaction"]
                assert np.allclose(vec, posterior, atol=1e-12)

    def test_mismatched_aldag_rejected(self, table_model):
        # a saturated tree's graph gives Satisfaction three parents, not two
        other = compress(saturated_tree(table_model.schema, table_model.order))
        with pytest.raises(ModelError, match="does not match"):
            dependence_subtree(table_model, other, child=3)


def render_dot(obj, tmp_path, name="out.dot", **kwargs) -> str:
    """The DOT text ``to_dot`` writes for ``obj``."""
    path = tmp_path / name
    to_dot(obj, str(path), **kwargs)
    return path.read_text(encoding="utf-8")


class TestRendering:
    def test_aldag_dot_deterministic(self, table_model, tmp_path):
        graph = compress(table_model)
        assert render_dot(graph, tmp_path, "a.dot") == render_dot(graph, tmp_path, "b.dot")

    def test_empty_edge_set_renders_nodes_only(self, tmp_path):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        stagings = (staging_from_ids(0, [0]), staging_from_ids(1, [0, 0]))
        text = render_dot(compress(StagedTree(schema, (0, 1), stagings)), tmp_path)
        assert '"u"' in text and '"v"' in text and "->" not in text

    def test_reference_aldag_colors(self, table_model, tmp_path):
        text = render_dot(compress(table_model), tmp_path)
        assert "color=blue" in text  # partial
        assert "color=red" in text  # context-specific
        assert "color=black" in text  # symmetric

    def test_evidence_highlight_and_annotations(self, table_model, tmp_path):
        graph = compress(table_model)
        text = render_dot(graph, tmp_path, highlight={"Length"}, annotations={"Length": "p=0.4"})
        assert "gray80" in text and "p=0.4" in text

    def test_tree_and_subtree_render(self, table_model, tmp_path):
        tree_text = render_dot(table_model, tmp_path, "tree.dot")
        assert tree_text.startswith("digraph staged_tree")
        sub = dependence_subtree(table_model, compress(table_model), child=3)
        sub_text = render_dot(sub, tmp_path, "sub.dot")
        assert "stage" in sub_text

    def test_other_objects_rejected(self, tmp_path):
        with pytest.raises(ModelError, match="cannot render dict"):
            to_dot({}, str(tmp_path / "x.dot"))
        assert not (tmp_path / "x.dot").exists()

    def test_json_export(self, table_model):
        import json

        payload = json.loads(aldag_to_json(compress(table_model)))
        assert payload["format_version"] == 1
        labels = {(e["from"], e["to"]): e["label"] for e in payload["edges"]}
        assert labels[("Income", "Satisfaction")] == CONTEXT_SPECIFIC


class TestKParentsCompression:
    def test_in_degree_respects_budget(self):
        from stagedtree import kparents_learn

        rng = np.random.default_rng(77)
        schema = Schema(tuple(Variable(f"X{i}", ("a", "b")) for i in range(5)))
        rows = rng.integers(0, 2, size=(250, 5))
        from stagedtree import Dataset

        d = Dataset(schema, rows)
        for k in (1, 2):
            tree, _ = kparents_learn(d, tuple(range(5)), k=k)
            assert max_in_degree(compress(tree)) <= k
