"""The exhaustive staging search: the globally BIC-optimal staging of one
depth, by enumerating every set partition of its contexts. Greedy merging is
checked against it on small depths."""

import math

import numpy as np

from stagedtree import Dataset, ModelError, StageAssignment
from stagedtree.learning import depth_bic
from stagedtree.tree import (
    canonical_stage_assignment,
    context_counts,
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
