import gc
import math
import pickle
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagedtree import (
    ConvergenceError,
    DataError,
    EvidenceSpec,
    ModelError,
    Schema,
    StagedTree,
    Variable,
    condition_hard,
    condition_soft,
    condition_virtual,
    joint_table,
    marginal,
    mutual_information,
    run_query,
    whatif_sweep,
)
from stagedtree import inference
from stagedtree.dataset import MAX_CONTEXTS
from stagedtree.inference import SWEEP_TIE, joint_level_iter
from stagedtree.tree import context_shape

from conftest import random_fitted_tree, reference_tree, staging_from_ids


def independent_tree(p_u=(0.3, 0.7), p_v=(0.6, 0.4)):
    schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
    stagings = (staging_from_ids(0, [0]), staging_from_ids(1, [0, 0]))
    probs = (np.array([list(p_u)]), np.array([list(p_v)]))
    return StagedTree(schema, (0, 1), stagings, probs)


def condition_by_hand(table, schema, evidence):
    """Oracle: condition the joint table directly and marginalize."""
    index = tuple(evidence.get(j, slice(None)) for j in range(len(schema)))
    sliced = table[index]
    prob = sliced.sum()
    kept = [j for j in range(len(schema)) if j not in evidence]
    out = {}
    for pos, var in enumerate(kept):
        other = tuple(a for a in range(len(kept)) if a != pos)
        out[var] = sliced.sum(axis=other) / prob
    return prob, out


def reference_forward(tree, hard, last_depth=None):
    """Oracle: the forward pass as it was before it gathered through stage
    ids. Each depth's whole tensor of stage rows (every context) is built,
    then sliced at the hard findings ``hard`` (variable index to level
    index). Returns the joint over the kept variables after ``last_depth``
    (default: all), axes in ordering position, and the kept variables in
    that order. The joints of the pass must stay bit-equal to it."""
    probs = tree.require_fitted()
    depths = range(tree.p if last_depth is None else last_depth + 1)
    kept = [tree.order[depth] for depth in depths if tree.order[depth] not in hard]
    cells = math.prod(tree.schema.level_counts[var] for var in kept)
    if cells > MAX_CONTEXTS:
        raise ModelError(f"outcome space of {cells} cells exceeds {MAX_CONTEXTS}")
    joint = np.ones(())
    for depth in depths:
        var = tree.order[depth]
        shape = context_shape(tree.schema, tree.order, depth) + (tree.schema.level_counts[var],)
        tensor = probs[depth][tree.stagings[depth].stage_of].reshape(shape)
        if hard:
            tensor = tensor[tuple(hard.get(v, slice(None)) for v in tree.order[:depth])]
        if var in hard:
            joint = joint * tensor[..., hard[var]]
        else:
            joint = joint[..., None] * tensor
    return joint, kept


def reference_condition_hard(tree, ev):
    """Oracle: hard conditioning on the reference forward pass, the way
    condition_hard computed it before all conditioning shared one core.
    ``ev`` maps variable index to level index. Hard-only results of the core
    must stay bit-equal to this."""
    joint, kept_vars = reference_forward(tree, ev)
    prob = float(joint.sum())
    marginals = {}
    for axis, var in enumerate(kept_vars):
        other = tuple(a for a in range(len(kept_vars)) if a != axis)
        marginals[tree.schema.names[var]] = joint.sum(axis=other) / prob
    for var, level in ev.items():
        one_hot = np.zeros(tree.schema.level_counts[var])
        one_hot[level] = 1.0
        marginals[tree.schema.names[var]] = one_hot
    return marginals, prob


def reference_ipf(joint, targets, tol, max_iter, labels):
    """Oracle: cyclically rescale the joint until every target marginal is
    matched. ``targets`` holds (axis of ``joint``, target marginal, variable
    index) triples, visited in the given order; ``labels`` maps each
    variable index to its (name, level labels) for the error message.
    Returns (joint, iterations, deviation)."""

    def deviation():
        worst = 0.0
        for axis, target, _ in targets:
            other = tuple(a for a in range(joint.ndim) if a != axis)
            worst = max(worst, float(np.abs(joint.sum(axis=other) - target).max()))
        return worst

    dev = deviation()
    if dev < tol:
        return joint, 0, dev
    for iteration in range(1, max_iter + 1):
        for axis, target, var in targets:
            other = tuple(a for a in range(joint.ndim) if a != axis)
            current = joint.sum(axis=other)
            impossible = (current == 0) & (target > 0)
            if impossible.any():
                name, level_labels = labels[var]
                levels = [level_labels[level] for level in np.flatnonzero(impossible)]
                raise ModelError(
                    f"soft target for {name!r} puts mass on levels {levels} "
                    f"the model assigns probability zero"
                )
            with np.errstate(invalid="ignore", divide="ignore"):
                scale = np.where(current > 0, target / current, 0.0)
            shape = [1] * joint.ndim
            shape[axis] = scale.size
            joint = joint * scale.reshape(shape)
        dev = deviation()
        if dev < tol:
            return joint, iteration, dev
    raise ConvergenceError(
        f"soft-evidence update failed to converge after {max_iter} cycles "
        f"(deviation {dev:.3e}, tolerance {tol:.3e})",
        dev,
    )


def reference_condition(tree, hard, soft, weights, tol=1e-9, max_iter=1000):
    """Oracle: conditioning on the joint over the non-evidence variables,
    the way the core computed it before it worked on positions. Hard
    findings fix their axes in the reference forward pass, virtual weights
    rescale the joint, and IPF matches the soft targets in ascending schema
    index. Findings are keyed by variable index, as ``inference._condition``
    takes them."""
    names = tree.schema.names
    if not 0 < tol < 1:
        raise ModelError(f"tol must lie strictly between 0 and 1, got {tol}")
    if max_iter < 1:
        raise ModelError(f"max_iter must be at least 1, got {max_iter}")
    if len(set(hard) | set(soft) | set(weights)) < len(hard) + len(soft) + len(weights):
        raise ModelError("a variable may carry only one kind of evidence")
    joint, kept = reference_forward(tree, hard)
    for var, factor in weights.items():
        shape = [1] * joint.ndim
        shape[kept.index(var)] = factor.size
        joint = joint * factor.reshape(shape)
    prob = float(joint.sum())
    if prob == 0.0:
        findings = {names[v]: tree.schema.variables[v].levels[level] for v, level in hard.items()}
        findings.update((names[v], "virtual") for v in weights)
        raise ModelError(f"evidence has probability zero (removed all probability mass): {findings}")
    has_probability = bool(hard or weights)
    scale = prob
    iterations = dev = None
    if soft or weights:
        if has_probability:
            joint = joint / prob
        if soft:
            targets = [(kept.index(var), soft[var], var) for var in sorted(soft)]
            labels = {var: (names[var], tree.schema.variables[var].levels) for var in soft}
            joint, iterations, dev = reference_ipf(joint, targets, tol, max_iter, labels)
        scale = 1.0
    marginals = {}
    for axis, var in enumerate(kept):
        other = tuple(a for a in range(len(kept)) if a != axis)
        marginals[names[var]] = joint.sum(axis=other) / scale
    for var, level in hard.items():
        marginals[names[var]] = np.eye(tree.schema.level_counts[var])[level]
    return marginals, (prob if has_probability else None), iterations


def reference_position_counts(tree):
    """Oracle: the number of positions at each depth, by naming every
    context's future as (stage id, names of its children's futures), one
    context at a time from the last depth up."""
    counts = []
    below = None
    for depth in reversed(range(tree.p)):
        stage_of = tree.stagings[depth].stage_of
        levels = tree.schema.level_counts[tree.order[depth]]
        futures = [
            (int(stage),) if below is None else (int(stage),) + tuple(below[c * levels : (c + 1) * levels])
            for c, stage in enumerate(stage_of)
        ]
        names = {future: i for i, future in enumerate(sorted(set(futures)))}
        below = [names[future] for future in futures]
        counts.append(len(names))
    return counts[::-1]


def former_marginal(tree, var):
    """Oracle: marginal as its own prefix pass, before every query without
    evidence read from one prefix table. Must stay bit-equal."""
    depth = tree.depth_of(tree.schema.index(var))
    joint, _ = reference_forward(tree, {}, depth)
    return joint.sum(axis=tuple(range(depth)))


def former_mutual_information(tree, a, b):
    """Oracle: mutual information from its own prefix pass, as computed
    before the prefix table. Must stay bit-equal."""
    a, b = tree.schema.index(a), tree.schema.index(b)
    pos_a, pos_b = tree.depth_of(a), tree.depth_of(b)
    last = max(pos_a, pos_b)
    joint, _ = reference_forward(tree, {}, last)
    keep = sorted((pos_a, pos_b))
    other = tuple(i for i in range(last + 1) if i not in keep)
    pair = joint.sum(axis=other)
    if keep[0] == pos_b:
        pair = pair.T
    pa = pair.sum(axis=1)
    pb = pair.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = pair / (pa[:, None] * pb[None, :])
        terms = np.where(pair > 0, pair * np.log(ratio), 0.0)
    return max(float(terms.sum()), 0.0)


def former_joint_table(tree):
    """Oracle: the full forward pass with its axes put in schema order."""
    joint, kept = reference_forward(tree, {})
    return np.ascontiguousarray(joint.transpose(np.argsort(kept)))


def reference_prefix_table(tree, variables):
    """Oracle: the joint of ``variables`` (indices), one axis each in the
    given order, from its own reference pass over the ordering prefix that
    ends at the deepest of them."""
    depths = [tree.depth_of(v) for v in variables]
    kept = sorted(depths)
    joint, _ = reference_forward(tree, {}, kept[-1])
    other = tuple(depth for depth in range(kept[-1] + 1) if depth not in kept)
    table = joint.sum(axis=other) if other else joint
    return table.transpose([kept.index(depth) for depth in depths])


def reference_whatif_sweep(tree, target, predictors=None):
    """Oracle: the sweep by conditioning, one condition_hard per predictor
    level, with the tie rule of whatif_sweep. Returns (predictor, target
    level, max change, direction) tuples."""
    target = tree.schema.index(target)
    if predictors is None:
        predictors = [v for v in range(tree.p) if v != target]
    target_name = tree.schema.names[target]
    rows = []
    for pred in (tree.schema.index(v) for v in predictors):
        pred_name = tree.schema.names[pred]
        level_probs = marginal(tree, pred)
        responses = []
        for level, level_name in enumerate(tree.schema.variables[pred].levels):
            if level_probs[level] == 0.0:
                warnings.warn(f"skipping zero-probability level {pred_name}={level_name}")
                continue
            responses.append(condition_hard(tree, {pred_name: level_name}).marginals[target_name])
        if len(responses) < 2:
            continue
        stacked = np.vstack(responses)
        for t, level_name in enumerate(tree.schema.variables[target].levels):
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
            rows.append((pred_name, level_name, max_change, direction))
    return rows


def with_zero_levels(rng, tree):
    """The tree with a random level zeroed in some stage rows of some depths,
    so that variables get zero-probability levels."""
    probs = []
    for mat in tree.probs:
        mat = mat.copy()
        if rng.random() < 0.5:
            rows = rng.random(mat.shape[0]) < 0.7
            mat[rows, int(rng.integers(mat.shape[1]))] = 0.0
            mat /= mat.sum(axis=1, keepdims=True)
        probs.append(mat)
    return StagedTree(tree.schema, tree.order, tree.stagings, tuple(probs))


def recorded(call):
    """Run ``call``; return its result and the (category, message) of every
    warning it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


def table_oracle(tree, hard, soft, weights):
    """Oracle for any mix of evidence: slice the joint table at the hard
    findings, multiply in the virtual weights, normalize, then rescale to the
    soft targets until they hold to 1e-13. Returns (marginals, mass)."""
    table = joint_table(tree)
    kept = [v for v in range(tree.p) if v not in hard]
    joint = table[tuple(hard.get(v, slice(None)) for v in range(tree.p))]

    def along(var):
        shape = [1] * len(kept)
        shape[kept.index(var)] = tree.schema.level_counts[var]
        return shape

    def margin(var):
        return joint.sum(axis=tuple(a for a in range(len(kept)) if a != kept.index(var)))

    for var, w in weights.items():
        joint = joint * w.reshape(along(var))
    mass = float(joint.sum())
    joint = joint / mass
    for _ in range(10000):
        if all(np.abs(margin(v) - t).max() < 1e-13 for v, t in soft.items()):
            break
        for var in sorted(soft):
            joint = joint * (soft[var] / margin(var)).reshape(along(var))
    marginals = {tree.schema.names[v]: margin(v) for v in kept}
    for var, level in hard.items():
        marginals[tree.schema.names[var]] = np.eye(tree.schema.level_counts[var])[level]
    return marginals, mass


class TestConditioningCore:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_evidence_mix_matches_oracles(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_fitted_tree(rng, max_p=4)
        hard, soft, weights = {}, {}, {}
        for var, kind in enumerate(rng.integers(0, 4, size=tree.p)):
            levels = tree.schema.level_counts[var]
            if kind == 1:
                hard[var] = int(rng.integers(0, levels))
            elif kind == 2:
                soft[var] = rng.dirichlet(np.ones(levels))
            elif kind == 3:
                weights[var] = rng.random(levels)
        if not (hard or soft or weights):
            return
        result = inference._condition(tree, hard, soft, weights)
        expected, mass = table_oracle(tree, hard, soft, weights)
        for name in tree.schema.names:
            assert np.allclose(result.marginals[name], expected[name], rtol=0, atol=1e-7)
        if hard or weights:
            assert result.evidence_probability == pytest.approx(mass, rel=1e-12)
        else:
            assert result.evidence_probability is None
        assert (result.iterations is None) == (not soft)
        if hard:
            hard_only = inference._condition(tree, hard, {}, {})
            marginals, prob = reference_condition_hard(tree, hard)
            assert hard_only.evidence_probability == pytest.approx(prob, rel=1e-12)
            for name in tree.schema.names:
                assert np.allclose(hard_only.marginals[name], marginals[name], rtol=0, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_positions_match_the_joint_table_core(self, seed):
        rng = np.random.default_rng(seed)
        tree = with_zero_levels(rng, random_fitted_tree(rng, max_p=5))
        hard, soft, weights = {}, {}, {}
        for var, kind in enumerate(rng.integers(0, 4, size=tree.p)):
            levels = tree.schema.level_counts[var]
            if kind == 1:
                hard[var] = int(rng.integers(0, levels))
            elif kind == 2:
                soft[var] = rng.dirichlet(np.ones(levels))
            elif kind == 3:
                weights[var] = rng.random(levels)
        assert [rows.shape[0] for rows in inference._positions(tree).rows] == reference_position_counts(tree)
        try:
            marginals, prob, iterations = reference_condition(tree, hard, soft, weights)
        except ModelError as expected:
            with pytest.raises(type(expected)) as got:
                inference._condition(tree, hard, soft, weights)
            assert str(got.value) == str(expected)
            return
        result = inference._condition(tree, hard, soft, weights)
        assert result.iterations == iterations
        if prob is None:
            assert result.evidence_probability is None
        else:
            assert result.evidence_probability == pytest.approx(prob, rel=1e-12)
        assert list(result.marginals) == list(tree.schema.names)
        for name in tree.schema.names:
            assert np.allclose(result.marginals[name], marginals[name], rtol=0, atol=1e-12)

    def test_one_kind_of_evidence_per_variable(self, table_model):
        with pytest.raises(ModelError, match="one kind of evidence"):
            run_query(table_model, EvidenceSpec(hard={"Country": "SE"}, soft={0: (0.25,) * 4}))

    def test_variable_given_twice_rejected(self, table_model):
        with pytest.raises(ModelError, match="given twice"):
            condition_hard(table_model, {"Length": "Low", 1: "High"})
        with pytest.raises(ModelError, match="given twice"):
            condition_virtual(table_model, {"Length": (1.0, 0.5), 1: (0.5, 1.0)})

    def test_empty_findings_rejected(self, table_model):
        for query in (condition_hard, condition_soft, condition_virtual):
            with pytest.raises(ModelError, match="at least one"):
                query(table_model, {})

    def test_hard_conditioning_needs_no_outcome_space(self):
        big = tuple(str(i) for i in range(5000))
        schema = Schema((Variable("a", ("x", "y")), Variable("b", big), Variable("c", big)))
        stagings = (
            staging_from_ids(0, [0]),
            staging_from_ids(1, [0, 0]),
            staging_from_ids(2, np.zeros(2 * 5000, dtype=np.int64)),
        )
        uniform = np.full((1, 5000), 1 / 5000)
        tree = StagedTree(schema, (0, 1, 2), stagings, (np.array([[0.5, 0.5]]), uniform, uniform))
        assert 5000 * 5000 > MAX_CONTEXTS
        # The passes hold arrays bounded by the tree's contexts, so neither
        # the 5000 x 5000 outcome space over b and c nor the 2 x 5000 x 5000
        # tensor of depth c is ever built.
        for evidence in ({"a": "x"}, {"a": "x", "b": "7"}):
            tracemalloc.start()
            try:
                result = condition_hard(tree, evidence)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.marginals["c"][0] == pytest.approx(1 / 5000)
            assert peak < 1 << 20


class TestPositions:
    def planted_tree(self):
        # u=a and u=b share a stage and their futures; u=c shares the stage
        # too, but its children's stages are swapped, so it is a position of
        # its own.
        schema = Schema((Variable("u", ("a", "b", "c")), Variable("v", ("x", "y")), Variable("w", ("lo", "hi"))))
        stagings = (staging_from_ids(0, [0]), staging_from_ids(1, [0, 0, 0]), staging_from_ids(2, [0, 1, 0, 1, 1, 0]))
        probs = (np.array([[0.2, 0.3, 0.5]]), np.array([[0.4, 0.6]]), np.array([[0.1, 0.9], [0.7, 0.3]]))
        return StagedTree(schema, (0, 1, 2), stagings, probs)

    def test_identical_futures_collapse(self):
        tree = self.planted_tree()
        positions = inference._positions(tree)
        assert [rows.shape[0] for rows in positions.rows] == [1, 2, 2] == reference_position_counts(tree)
        # the root reaches one position along a and b, the other along c
        assert positions.child[0].tolist() == [[0, 0, 1]]
        assert sorted(positions.child[1].tolist()) == [[0, 1], [1, 0]]
        for hard in ({0: 2}, {1: 0}, {2: 1}, {0: 0, 2: 0}):
            result = inference._condition(tree, hard, {}, {})
            marginals, prob, _ = reference_condition(tree, hard, {}, {})
            assert result.evidence_probability == pytest.approx(prob, rel=1e-12)
            for name in tree.schema.names:
                assert np.allclose(result.marginals[name], marginals[name], rtol=0, atol=1e-12)

    def test_codes_past_int64_are_reranked(self):
        # Depth 1 has 10 stages and 100 child positions along each of 10
        # levels: 10 * 100**10 codes do not fit an int64, so the code is
        # re-ranked part way. Contexts a and a + 10 share their futures.
        rng = np.random.default_rng(5)
        schema = Schema(
            (Variable("a", tuple(f"a{i:02d}" for i in range(20))), Variable("b", tuple("bcdefghijk")), Variable("c", ("x", "y")))
        )
        a, b = np.divmod(np.arange(200), 10)
        stagings = (staging_from_ids(0, [0]), staging_from_ids(1, np.arange(20) % 10), staging_from_ids(2, (a % 10) * 10 + b))
        probs = (rng.dirichlet(np.ones(20))[None], rng.dirichlet(np.ones(10), size=10), rng.dirichlet(np.ones(2), size=100))
        tree = StagedTree(schema, (0, 1, 2), stagings, probs)
        assert 10 * 100**10 > 2**63
        counts = [rows.shape[0] for rows in inference._positions(tree).rows]
        assert counts == [1, 10, 100] == reference_position_counts(tree)
        for hard, weights in (({1: 3}, {}), ({2: 0}, {0: rng.random(20)}), ({}, {1: rng.random(10), 2: rng.random(2)})):
            result = inference._condition(tree, hard, {}, weights)
            marginals, prob, _ = reference_condition(tree, hard, {}, weights)
            assert result.evidence_probability == pytest.approx(prob, rel=1e-12)
            for name in tree.schema.names:
                assert np.allclose(result.marginals[name], marginals[name], rtol=0, atol=1e-12)

    def test_compiled_once_per_tree_object(self, table_model, monkeypatch):
        compiled = []
        compile_positions = inference._compile

        def counted(tree):
            compiled.append(tree)
            return compile_positions(tree)

        monkeypatch.setattr(inference, "_compile", counted)
        condition_hard(table_model, {"Length": "Low"})
        condition_soft(table_model, {"Length": (0.5, 0.5)})
        condition_virtual(table_model, {"Income": (0.2, 1.0)}, {"Country": "SE"})
        run_query(table_model, EvidenceSpec(hard={"Country": "SE"}, soft={"Length": (0.5, 0.5)}))
        # queries without evidence read the prefix table, not the positions
        marginal(table_model, "Length")
        whatif_sweep(table_model, "Satisfaction")
        assert compiled == [table_model]
        other = reference_tree()
        condition_hard(other, {"Length": "Low"})
        assert compiled == [table_model, other]
        # the cache holds no tree alive
        compiled.clear()
        gone = weakref.ref(other)
        del other
        gc.collect()
        assert gone() is None


class TestForwardPass:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_every_joint_bit_equal_to_the_reference_pass(self, seed):
        rng = np.random.default_rng(seed)
        tree = with_zero_levels(rng, random_fitted_tree(rng, max_p=5))
        depth = -1
        for depth, joint in enumerate(inference._forward(tree)):
            want, _ = reference_forward(tree, {}, depth)
            assert type(joint) is type(want) and np.shape(joint) == np.shape(want)
            assert np.asarray(joint).tobytes() == np.asarray(want).tobytes()
        assert depth == tree.p - 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_tables_bit_equal_to_one_reference_prefix_per_group(self, seed):
        rng = np.random.default_rng(seed)
        tree = with_zero_levels(rng, random_fitted_tree(rng, max_p=5))
        target = int(rng.integers(tree.p))
        # the sweep's groups (predictors before and after the target, with
        # repeated end depths) plus random groups in random order
        groups = [[pred, target] for pred in range(tree.p) if pred != target]
        for _ in range(int(rng.integers(4))):
            groups.append([int(v) for v in rng.permutation(tree.p)[: int(rng.integers(1, tree.p + 1))]])
        groups = [groups[i] for i in rng.permutation(len(groups))]
        tables = inference._tables(tree, groups)
        assert len(tables) == len(groups)
        for group, got in zip(groups, tables):
            want = reference_prefix_table(tree, group)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_no_groups_no_tables(self, table_model):
        assert inference._tables(table_model, []) == []


class TestVariableIndices:
    def test_integer_and_numpy_indices_accepted(self, table_model):
        by_name = condition_hard(table_model, {"Length": "Low"})
        by_index = condition_hard(table_model, {np.int64(1): 1})
        for name in table_model.schema.names:
            assert np.array_equal(by_name.marginals[name], by_index.marginals[name])
        assert np.array_equal(marginal(table_model, 3), marginal(table_model, "Satisfaction"))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_index_rejected(self, table_model, bad):
        with pytest.raises(DataError, match="unknown variable"):
            condition_hard(table_model, {bad: 0})
        with pytest.raises(DataError, match="unknown variable"):
            whatif_sweep(table_model, bad)
        with pytest.raises(DataError, match="unknown variable"):
            marginal(table_model, bad)
        with pytest.raises(DataError, match="unknown variable"):
            mutual_information(table_model, 0, bad)

    def test_out_of_range_level_rejected(self, table_model):
        with pytest.raises(DataError, match="unknown level"):
            condition_hard(table_model, {"Length": 2})


class TestJointTable:
    def test_reference_atoms(self, table_model):
        table = joint_table(table_model)
        assert table.size == 48
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        # (SE, Low, High, High) with schema level indices (2, 1, 0, 0)
        assert table[2, 1, 0, 0] == 0.009

    def test_independent_tree_factorizes(self):
        tree = independent_tree()
        table = joint_table(tree)
        for a in range(2):
            for b in range(2):
                assert table[a, b] == pytest.approx(
                    tree.probs[0][0][a] * tree.probs[1][0][b], abs=1e-15
                )

    def test_level_iter_order_and_sum(self, table_model):
        rows = list(joint_level_iter(table_model))
        assert len(rows) == 48
        assert rows[0][0] == ("EE", "High", "High", "High")
        assert sum(p for _, p in rows) == pytest.approx(1.0, abs=1e-12)


class TestMarginal:
    def test_root_variable_is_stage_row(self, table_model):
        assert marginal(table_model, "Country").tolist() == [0.35, 0.25, 0.15, 0.25]

    def test_last_variable_matches_atom_sum(self, table_model):
        table = joint_table(table_model)
        expected = table.sum(axis=(0, 1, 2))
        assert np.allclose(marginal(table_model, "Satisfaction"), expected, atol=1e-12)

    def test_all_marginals_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tree = random_fitted_tree(rng)
            for name in tree.schema.names:
                assert marginal(tree, name).sum() == pytest.approx(1.0, abs=1e-9)


class TestConditionHard:
    def test_reference_value(self, table_model):
        result = condition_hard(table_model, {"Length": "Low", "Income": "High"})
        sat = result.marginals["Satisfaction"]
        assert abs(sat[0] - 0.2) < 1e-12  # High
        assert abs(sat[1] - 0.5) < 1e-12  # Low

    def test_full_evidence_gives_point_masses(self, table_model):
        evidence = {"Country": "SE", "Length": "Low", "Income": "High", "Satisfaction": "High"}
        result = condition_hard(table_model, evidence)
        for name, vec in result.marginals.items():
            assert sorted(vec.tolist())[-1] == 1.0
        assert result.evidence_probability == 0.009

    def test_matches_joint_table_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            tree = random_fitted_tree(rng)
            table = joint_table(tree)
            var = int(rng.integers(0, tree.p))
            level = int(rng.integers(0, tree.schema.level_counts[var]))
            if table.sum(axis=tuple(a for a in range(tree.p) if a != var))[level] == 0:
                continue
            name = tree.schema.names[var]
            label = tree.schema.variables[var].levels[level]
            result = condition_hard(tree, {name: label})
            prob, expected = condition_by_hand(table, tree.schema, {var: level})
            assert abs(result.evidence_probability - prob) < 1e-12
            for v, vec in expected.items():
                assert np.allclose(result.marginals[tree.schema.names[v]], vec, atol=1e-12)

    def test_impossible_evidence_named(self):
        tree = independent_tree(p_u=(1.0, 0.0))
        with pytest.raises(ModelError, match="probability zero.*'b'"):
            condition_hard(tree, {"u": "b"})

    def test_certain_evidence_changes_nothing(self):
        tree = independent_tree(p_u=(1.0, 0.0))
        result = condition_hard(tree, {"u": "a"})
        assert np.allclose(result.marginals["v"], marginal(tree, "v"), atol=1e-15)

    def test_posteriors_sum_to_one(self, table_model):
        result = condition_hard(table_model, {"Country": "WE"})
        for vec in result.marginals.values():
            assert vec.sum() == pytest.approx(1.0, abs=1e-9)


class TestConditionSoft:
    def test_fixed_point_converges_immediately(self, table_model):
        current = marginal(table_model, "Length")
        result = condition_soft(table_model, {"Length": current})
        assert result.iterations == 0
        assert result.max_deviation < 1e-9
        for name in table_model.schema.names:
            assert np.allclose(result.marginals[name], marginal(table_model, name), atol=1e-12)

    def test_single_finding_matches_jeffrey(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            tree = random_fitted_tree(rng)
            var = int(rng.integers(0, tree.p))
            name = tree.schema.names[var]
            current = marginal(tree, name)
            if (current == 0).any():
                continue
            target = rng.dirichlet(np.ones(current.size))
            result = condition_soft(tree, {name: target})
            # closed-form Jeffrey update on the joint table
            table = joint_table(tree)
            shape = [1] * tree.p
            shape[var] = current.size
            jeffrey = table * (target / current).reshape(shape)
            for v, vname in enumerate(tree.schema.names):
                other = tuple(a for a in range(tree.p) if a != v)
                assert np.allclose(result.marginals[vname], jeffrey.sum(axis=other), atol=1e-12)

    def test_two_independent_targets_factorize(self):
        tree = independent_tree()
        targets = {"u": np.array([0.5, 0.5]), "v": np.array([0.25, 0.75])}
        result = condition_soft(tree, targets)
        assert np.allclose(result.marginals["u"], [0.5, 0.5], atol=1e-12)
        assert np.allclose(result.marginals["v"], [0.25, 0.75], atol=1e-12)

    def test_conditionals_preserved(self, table_model):
        target = np.array([0.5, 0.5])
        result = condition_soft(table_model, {"Length": target})
        # P'(x_rest | Length=l) must equal P(x_rest | Length=l): check one slice
        before = condition_hard(table_model, {"Length": "Low"}).marginals["Satisfaction"]
        table = joint_table(table_model)
        current = marginal(table_model, "Length")
        shape = [1, 2, 1, 1]
        updated = table * (target / current).reshape(shape)
        slice_low = updated[:, 1, :, :]
        after = slice_low.sum(axis=(0, 1)) / slice_low.sum()
        assert np.allclose(before, after, atol=1e-9)

    def test_zero_mass_target_rejected(self):
        tree = independent_tree(p_u=(1.0, 0.0))
        with pytest.raises(ModelError, match=r"soft target for 'u' puts mass on levels \['b'\] .*probability zero"):
            condition_soft(tree, {"u": np.array([0.5, 0.5])})

    def test_nonconvergence_reports_deviation(self, table_model):
        targets = {"Length": np.array([0.9, 0.1]), "Satisfaction": np.array([0.1, 0.1, 0.8])}
        with pytest.raises(ConvergenceError) as exc:
            condition_soft(table_model, targets, max_iter=1)
        assert exc.value.deviation > 0

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"tol": math.inf}, "tol must lie strictly between 0 and 1, got inf"),
            ({"tol": 5.0}, "tol must lie strictly between 0 and 1, got 5.0"),
            ({"tol": 1.0}, "tol must lie strictly between 0 and 1"),
            ({"tol": 0.0}, "tol must lie strictly between 0 and 1"),
            ({"tol": -1.0}, "tol must lie strictly between 0 and 1"),
            ({"tol": math.nan}, "tol must lie strictly between 0 and 1, got nan"),
            ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
            ({"max_iter": -3}, "max_iter must be at least 1, got -3"),
        ],
    )
    def test_bad_tolerance_or_cycle_limit_rejected(self, table_model, kwargs, match):
        target = {"Length": np.array([0.3, 0.7])}
        with pytest.raises(ModelError, match=match):
            condition_soft(table_model, target, **kwargs)
        with pytest.raises(ModelError, match=match):
            run_query(table_model, EvidenceSpec(hard={"Country": "SE"}, soft=target), **kwargs)

    def test_convergence_error_survives_pickle(self):
        error = ConvergenceError("IPF did not converge", 0.25)
        error.add_note("in bootstrap replicate 3 (seed 7)")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is ConvergenceError
        assert str(copy) == "IPF did not converge"
        assert copy.deviation == 0.25
        assert copy.__notes__ == ["in bootstrap replicate 3 (seed 7)"]

    def test_bad_target_rejected(self, table_model):
        with pytest.raises(ModelError, match="not a distribution"):
            condition_soft(table_model, {"Length": np.array([0.9, 0.3])})


class TestConditionVirtual:
    def test_one_hot_weights_match_hard_conditioning(self, table_model):
        weights = {"Length": np.array([0.0, 1.0])}  # observe Length=Low
        virtual = condition_virtual(table_model, weights)
        hard = condition_hard(table_model, {"Length": "Low"})
        assert abs(virtual.evidence_probability - hard.evidence_probability) < 1e-12
        for name in table_model.schema.names:
            assert np.allclose(virtual.marginals[name], hard.marginals[name], atol=1e-12)

    def test_hard_findings_fix_their_axes(self, table_model):
        virtual = condition_virtual(table_model, {}, {"Satisfaction": "Low"})
        hard = condition_hard(table_model, {"Satisfaction": "Low"})
        assert virtual.evidence_probability == hard.evidence_probability
        for name in table_model.schema.names:
            assert np.array_equal(virtual.marginals[name], hard.marginals[name])

    def test_differs_from_jeffrey_in_general(self, table_model):
        target = np.array([0.5, 0.5])
        jeffrey = condition_soft(table_model, {"Length": target})
        virtual = condition_virtual(table_model, {"Length": target})
        # Jeffrey pins the marginal; likelihood weighting does not
        assert np.allclose(jeffrey.marginals["Length"], target, atol=1e-9)
        assert not np.allclose(virtual.marginals["Length"], target, atol=1e-6)

    def test_all_mass_removed_rejected(self):
        tree = independent_tree(p_u=(1.0, 0.0))
        with pytest.raises(ModelError, match="removed all"):
            condition_virtual(tree, {"u": np.array([0.0, 1.0])})


class TestRunQuery:
    def test_hard_then_soft(self, table_model):
        spec = EvidenceSpec(
            hard={"Country": "SE"},
            soft={"Length": (0.5, 0.5)},
        )
        result = run_query(table_model, spec)
        assert result.evidence_probability == pytest.approx(0.15, abs=1e-12)
        assert np.allclose(result.marginals["Length"], [0.5, 0.5], atol=1e-9)
        assert result.marginals["Country"].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_overlapping_spec_rejected(self):
        with pytest.raises(ModelError, match="both hard and soft"):
            EvidenceSpec(hard={"u": "a"}, soft={"u": (0.5, 0.5)})

    def test_empty_spec_rejected(self, table_model):
        with pytest.raises(ModelError, match="empty"):
            run_query(table_model, EvidenceSpec())


NON_FINITE = [(math.nan, math.nan), (math.nan, 1.0), (math.inf, 0.0), (1.0, -math.inf)]


class TestNonFiniteFindings:
    """NaN passes every comparison, so each check refuses non-finite values
    outright, before any conditioning pass or IPF cycle."""

    @pytest.fixture
    def no_conditioning(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a non-finite finding reached conditioning")

        monkeypatch.setattr(inference, "_condition", refuse)

    @pytest.mark.parametrize("values", NON_FINITE)
    def test_soft_target_rejected(self, table_model, no_conditioning, values):
        with pytest.raises(ModelError, match="'Length' is not a probability distribution"):
            EvidenceSpec(soft={"Length": values})
        with pytest.raises(ModelError, match="'Length' is not a distribution"):
            condition_soft(table_model, {"Length": np.array(values)})

    @pytest.mark.parametrize("values", NON_FINITE + [(math.inf, 1.0)])
    def test_virtual_weights_rejected(self, table_model, no_conditioning, values):
        with pytest.raises(ModelError, match="weights for 'Length' are invalid"):
            condition_virtual(table_model, {"Length": np.array(values)})


class TestMutualInformation:
    def test_independent_variables_zero(self):
        assert mutual_information(independent_tree(), "u", "v") <= 1e-12

    def test_duplicate_variable_entropy(self):
        # v deterministically copies u
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        stagings = (staging_from_ids(0, [0]), staging_from_ids(1, [0, 1]))
        probs = (np.array([[0.3, 0.7]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        tree = StagedTree(schema, (0, 1), stagings, probs)
        entropy = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
        assert mutual_information(tree, "u", "v") == pytest.approx(entropy, rel=1e-12)

    def test_reference_pair_matches_joint_oracle(self, table_model):
        table = joint_table(table_model)
        pair = table.sum(axis=(1, 2))  # joint of (Country, Satisfaction)
        pa = pair.sum(axis=1)
        pb = pair.sum(axis=0)
        expected = sum(
            pair[i, j] * math.log(pair[i, j] / (pa[i] * pb[j]))
            for i in range(pair.shape[0])
            for j in range(pair.shape[1])
            if pair[i, j] > 0
        )
        assert mutual_information(table_model, "Country", "Satisfaction") == pytest.approx(
            expected, abs=1e-12
        )

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            tree = random_fitted_tree(rng)
            a, b = rng.choice(tree.p, size=2, replace=False)
            forward = mutual_information(tree, int(a), int(b))
            backward = mutual_information(tree, int(b), int(a))
            assert abs(forward - backward) < 1e-12
            assert forward >= 0.0


class TestPrefixTable:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_queries_without_evidence_bit_equal_to_former_paths(self, seed):
        rng = np.random.default_rng(seed)
        tree = with_zero_levels(rng, random_fitted_tree(rng, max_p=5))
        for var in range(tree.p):
            got, want = marginal(tree, var), former_marginal(tree, var)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for other in range(tree.p):
                if other != var:
                    assert mutual_information(tree, var, other) == former_mutual_information(tree, var, other)
        got, want = joint_table(tree), former_joint_table(tree)
        assert got.flags.c_contiguous and got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variables", [[0], [2, 0], [1, 3], [3, 1, 0], [0, 1, 2, 3]])
    def test_table_axes_follow_the_given_order(self, table_model, variables):
        table = joint_table(table_model)
        rest = tuple(v for v in range(4) if v not in variables)
        want = np.moveaxis(table.sum(axis=rest), range(len(variables)), np.argsort(np.argsort(variables)))
        assert np.allclose(inference._tables(table_model, [variables])[0], want, rtol=0, atol=1e-15)


class TestWhatifSweep:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_the_conditioning_sweep(self, seed):
        rng = np.random.default_rng(seed)
        tree = with_zero_levels(rng, random_fitted_tree(rng, max_p=5))
        target = int(rng.integers(tree.p))
        predictors = None
        if rng.random() < 0.5:
            others = [v for v in range(tree.p) if v != target]
            predictors = [int(v) for v in rng.permutation(others)[: int(rng.integers(len(others) + 1))]]
        rows, caught = recorded(lambda: whatif_sweep(tree, target, predictors))
        expected, expected_caught = recorded(lambda: reference_whatif_sweep(tree, target, predictors))
        assert caught == expected_caught
        assert [(r.predictor, r.target_level) for r in rows] == [e[:2] for e in expected]
        for row, (_, _, max_change, direction) in zip(rows, expected):
            assert abs(row.max_change - max_change) <= 1e-12
            assert row.direction == direction
            assert row.mutual_information == mutual_information(tree, row.predictor, target)

    def test_one_forward_pass_per_sweep(self, table_model, monkeypatch):
        passes, depths = [], []
        forward = inference._forward

        def counted(tree, last_depth=None):
            passes.append(last_depth)
            for depth, joint in enumerate(forward(tree, last_depth)):
                depths.append(depth)
                yield joint

        monkeypatch.setattr(inference, "_forward", counted)
        # Length sits at depth 1 of (Country, Length, Income, Satisfaction):
        # one predictor before it, two after it
        rows = whatif_sweep(table_model, "Length")
        assert passes == [3] and depths == [0, 1, 2, 3]
        assert {r.predictor for r in rows} == {"Country", "Income", "Satisfaction"}
        depths.clear()
        assert whatif_sweep(table_model, "Length", []) == []
        assert depths == []

    def test_irrelevant_predictor_is_flat(self):
        # v depends on w only; u is independent of both, so fixing u moves
        # P(v) by rounding noise alone.
        schema = Schema(
            (Variable("u", ("a", "b", "c")), Variable("w", ("x", "y")), Variable("v", ("lo", "hi")))
        )
        stagings = (staging_from_ids(0, [0]), staging_from_ids(1, [0, 0, 0]), staging_from_ids(2, [0, 1] * 3))
        probs = (np.array([[0.2, 0.3, 0.5]]), np.array([[0.3, 0.7]]), np.array([[0.1, 0.9], [0.6, 0.4]]))
        tree = StagedTree(schema, (0, 1, 2), stagings, probs)
        rows = whatif_sweep(tree, target="v")
        assert [r.direction for r in rows if r.predictor == "u"] == ["flat", "flat"]
        assert [r.direction for r in rows if r.predictor == "w"] == ["increase", "decrease"]

    def test_guard_refuses_exactly_what_mutual_information_refuses(self):
        big = tuple(str(i) for i in range(5000))
        schema = Schema((Variable("a", ("x", "y")), Variable("b", big), Variable("c", big)))
        stagings = (
            staging_from_ids(0, [0]),
            staging_from_ids(1, [0, 0]),
            staging_from_ids(2, np.zeros(2 * 5000, dtype=np.int64)),
        )
        uniform = np.full((1, 5000), 1 / 5000)
        tree = StagedTree(schema, (0, 1, 2), stagings, (np.array([[0.5, 0.5]]), uniform, uniform))
        assert 2 * 5000 * 5000 > MAX_CONTEXTS >= 2 * 5000
        # (target, predictor): both orders of a and b fit, every pair with c does not
        for target, pred in ((1, 0), (0, 1), (2, 0), (0, 2), (2, 1), (1, 2)):
            try:
                mutual_information(tree, pred, target)
            except ModelError:
                with pytest.raises(ModelError, match="exceeds"):
                    whatif_sweep(tree, target, [pred])
            else:
                rows = whatif_sweep(tree, target, [pred])
                assert {r.direction for r in rows} == {"flat"}

    def test_independent_predictor_has_zero_deltas(self):
        rows = whatif_sweep(independent_tree(), target="v")
        assert all(r.max_change <= 1e-12 for r in rows)

    def test_binary_predictor_delta(self, table_model):
        rows = whatif_sweep(table_model, target="Satisfaction", predictors=["Length"])
        high_low = condition_hard(table_model, {"Length": "Low"}).marginals["Satisfaction"]
        high_high = condition_hard(table_model, {"Length": "High"}).marginals["Satisfaction"]
        by_level = {r.target_level: r.max_change for r in rows}
        for t, level in enumerate(("High", "Low", "Medium")):
            assert by_level[level] == pytest.approx(abs(high_low[t] - high_high[t]), abs=1e-12)

    def test_reference_country_sweep_matches_oracle(self, table_model):
        rows = whatif_sweep(table_model, target="Satisfaction", predictors=["Country"])
        posteriors = np.vstack(
            [
                condition_hard(table_model, {"Country": c}).marginals["Satisfaction"]
                for c in ("EE", "NE", "SE", "WE")
            ]
        )
        by_level = {r.target_level: r for r in rows}
        for t, level in enumerate(("High", "Low", "Medium")):
            series = posteriors[:, t]
            assert by_level[level].max_change == pytest.approx(
                float(series.max() - series.min()), abs=1e-15
            )

    def test_target_in_predictors_rejected(self, table_model):
        with pytest.raises(ModelError):
            whatif_sweep(table_model, target="Country", predictors=["Country"])

    def test_zero_probability_level_skipped_with_warning(self):
        tree = independent_tree(p_u=(1.0, 0.0))
        with pytest.warns(UserWarning, match="zero-probability"):
            rows = whatif_sweep(tree, target="v", predictors=["u"])
        assert rows == []
