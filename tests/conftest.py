"""Shared builders: the four-variable reference network and random models."""

import numpy as np
import pytest

from stagedtree import Dataset, ModelError, Schema, StagedTree, Variable, consensus, encode_bn
from stagedtree.tree import StageAssignment, canonical_stage_assignment, n_contexts, validate_order


def reference_schema() -> Schema:
    return Schema(
        (
            Variable("Country", ("EE", "NE", "SE", "WE")),
            Variable("Length", ("High", "Low")),
            Variable("Income", ("High", "Low")),
            Variable("Satisfaction", ("High", "Low", "Medium")),
        )
    )


def reference_bn_inputs():
    """The travel-satisfaction network: Country -> {Length, Income} -> Satisfaction.

    CPT axes follow the schema's (sorted) level order.
    """
    schema = reference_schema()
    country = np.array([0.35, 0.25, 0.15, 0.25])  # EE, NE, SE, WE
    length = np.array(
        [
            [0.4, 0.6],  # EE: High, Low
            [0.7, 0.3],  # NE
            [0.4, 0.6],  # SE
            [0.7, 0.3],  # WE
        ]
    )
    income = np.array(
        [
            [0.3, 0.7],  # EE
            [0.8, 0.2],  # NE
            [0.5, 0.5],  # SE
            [0.8, 0.2],  # WE
        ]
    )
    satisfaction = np.array(
        [
            # Length=High
            [[0.5, 0.1, 0.4],  # Income=High: Sat High, Low, Medium
             [0.3, 0.3, 0.4]],  # Income=Low
            # Length=Low
            [[0.2, 0.5, 0.3],
             [0.2, 0.5, 0.3]],
        ]
    )
    parents = {
        "Country": [],
        "Length": ["Country"],
        "Income": ["Country"],
        "Satisfaction": ["Length", "Income"],
    }
    cpts = {
        "Country": country,
        "Length": length,
        "Income": income,
        "Satisfaction": satisfaction,
    }
    return schema, parents, cpts


def reference_tree() -> StagedTree:
    schema, parents, cpts = reference_bn_inputs()
    return encode_bn(schema, parents, cpts, order=["Country", "Length", "Income", "Satisfaction"])


def local_variant_tree() -> StagedTree:
    """Same network but with a Satisfaction table whose only equality crosses
    both parent coordinates: (High, High) row equals (Low, Low) row."""
    schema, parents, cpts = reference_bn_inputs()
    cpts = dict(cpts)
    cpts["Satisfaction"] = np.array(
        [
            [[0.2, 0.5, 0.3],
             [0.3, 0.3, 0.4]],
            [[0.1, 0.7, 0.2],
             [0.2, 0.5, 0.3]],
        ]
    )
    return encode_bn(schema, parents, cpts, order=["Country", "Length", "Income", "Satisfaction"])


@pytest.fixture
def table_model() -> StagedTree:
    return reference_tree()


def random_schema(rng, p: int, max_levels: int = 3, prefix: str = "X") -> Schema:
    variables = []
    for j in range(p):
        levels = int(rng.integers(2, max_levels + 1))
        variables.append(Variable(f"{prefix}{j + 1}", tuple(chr(ord("a") + i) for i in range(levels))))
    return Schema(tuple(variables))


def random_dataset(rng, p: int, n: int, max_levels: int = 3) -> Dataset:
    schema = random_schema(rng, p, max_levels)
    rows = np.column_stack(
        [rng.integers(0, len(v.levels), size=n) for v in schema.variables]
    )
    return Dataset(schema, rows)


def survey_data(rng, n: int, p: int) -> Dataset:
    """p binary items driven by one latent score, as ``wide_rows`` in
    stbench/inputs.py draws them: the data of the wide_consensus benchmark
    workload."""
    latent = rng.random(n)
    cols = []
    for _ in range(p):
        noise = rng.random(n)
        cols.append(((0.6 * latent + 0.4 * noise) > 0.5).astype(np.int64))
    schema = Schema(tuple(Variable(f"Q{j+1}", ("hi", "lo")) for j in range(p)))
    return Dataset(schema, np.column_stack(cols))


def random_fitted_tree(rng, max_p: int = 4, max_levels: int = 3) -> StagedTree:
    """Random schema, random ordering, random staging, Dirichlet stage rows."""
    p = int(rng.integers(2, max_p + 1))
    schema = random_schema(rng, p, max_levels)
    order = tuple(int(v) for v in rng.permutation(p))
    stagings = []
    probs = []
    for depth in range(p):
        total = n_contexts(schema, order, depth)
        raw = rng.integers(0, total, size=total)
        staging = canonical_stage_assignment(depth, raw)
        stagings.append(staging)
        levels = schema.level_counts[order[depth]]
        probs.append(rng.dirichlet(np.ones(levels), size=staging.n_stages))
    return StagedTree(schema, order, tuple(stagings), tuple(probs))


def staging_from_ids(depth: int, ids) -> StageAssignment:
    return canonical_stage_assignment(depth, np.asarray(ids))


def saturated_tree(schema: Schema, order) -> StagedTree:
    """Unfitted tree where every context is its own stage."""
    order = validate_order(schema, order)
    stagings = []
    for depth in range(len(schema)):
        count = n_contexts(schema, order, depth)
        stagings.append(StageAssignment(depth, np.arange(count), count))
    return StagedTree(schema, order, tuple(stagings))


def max_in_degree(graph) -> int:
    """Largest number of parents any variable has in a labeled DAG."""
    return max((sum(e.child == v for e in graph.edges) for v in range(len(graph.schema))), default=0)


def fail_replicate(monkeypatch, plan, index):
    """Make one replicate's draw raise; returns the note naming it."""
    bad_seed = plan.replicate_seed(index)
    real = consensus._bootstrap_rows

    def draw(n, seed):
        if seed == bad_seed:
            raise ModelError("injected failure")
        return real(n, seed)

    monkeypatch.setattr(consensus, "_bootstrap_rows", draw)
    return f"in bootstrap replicate {index} (seed {bad_seed})"
