"""Seeded inputs of the three workloads.

Everything here is the benchmark's own code: it never imports stagedtree, so
the program under test receives only the generated files and query lists.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import csv
import json

import numpy as np

# survey_session: the synthetic survey of scripts/make_synthetic_survey.py
# (six service dimensions plus the response, all driven by one latent score).
SURVEY_DIMENSIONS = ("departure", "booking", "checkin", "cabin", "crew", "meal")
SURVEY = {
    "rows": 9720,
    "response": "overall",
    "replicates": 40,
    "cv_folds": 5,
    "cv_replicates": 8,
    "cv_algorithms": "bhc,kparents:2",
    # About 1.4 s of sensitivity tables per round (3-4 ms each): the
    # machine's speed changes from second to second, so a shorter block is
    # noisy.
    "sweep_repeats": 400,
}

# wide_consensus: survey_data of scripts/benchmark_consensus.py, ten binary
# items at a fixed ordering, so depth 9 has 512 contexts.
WIDE = {
    "rows": 10_000,
    "variables": 10,
    "replicates": 8,
    "sweep_repeats": 250,  # about 2 s of 6-9 ms tables per round
}

# whatif_queries: 8 binary, 5 ternary and 1 four-level variable, 248832 atoms.
WHATIF_LEVELS = (2, 3, 2, 2, 3, 2, 4, 2, 3, 2, 3, 2, 2, 3)
# The model is drawn from this fixed seed; --seed draws the queries. How
# strongly a model couples its variables decides how many IPF cycles the
# slowest soft queries take, so with a model drawn from --seed the query tail
# of one seed could not be compared with another's: over seeds 1-10 it ranged
# from 44 to 71 ms, and the same seeds came out low on every repeat.
WHATIF_MODEL_SEED = 0
# Queries per round, by kind; a round is these 49 queries in seeded order
# followed by one full sensitivity table of the response. No record of how
# the what-if layer is used exists (the repository's one scripted session,
# scripts/run_survey_pipeline.py, issues a single hard and a single soft
# query), so every kind gets the same weight. The mix is not taken from real
# usage; per-kind latencies are reported in the traced run so that a change in
# one kind is not hidden by the weights.
WHATIF_PER_KIND = 7
WHATIF_KINDS = ("hard1", "hardN", "soft1", "softN", "hard_soft", "virtual", "mi")
# Pairwise mutual information always involves one of the last four variables,
# so the forward pass covers most of the tree and costs milliseconds.
WHATIF_MI_DEEP = 4


def survey_rows(seed: int, rows: int) -> tuple[list[str], list[list[str]]]:
    """Rows of the synthetic survey, generated as make_synthetic_survey.py does."""
    rng = np.random.default_rng(seed)
    latent = rng.random(rows)
    columns = {}
    for i, name in enumerate(SURVEY_DIMENSIONS):
        weight = 0.5 + 0.05 * i
        noise = rng.random(rows)
        columns[name] = (weight * latent + (1 - weight) * noise) > 0.5
    overall_noise = rng.random(rows)
    columns["overall"] = (0.75 * latent + 0.25 * overall_noise) > 0.45
    header = list(SURVEY_DIMENSIONS) + ["overall"]
    body = [["high" if columns[name][r] else "low" for name in header] for r in range(rows)]
    return header, body


def wide_rows(seed: int, rows: int, variables: int) -> tuple[list[str], list[list[str]]]:
    """Rows of survey_data from benchmark_consensus.py, level 1 written as "low"."""
    rng = np.random.default_rng(seed)
    latent = rng.random(rows)
    cols = []
    for _ in range(variables):
        noise = rng.random(rows)
        cols.append(((0.6 * latent + 0.4 * noise) > 0.5).astype(np.int64))
    labels = ("high", "low")
    header = [f"Q{j + 1}" for j in range(variables)]
    body = [[labels[int(cols[j][r])] for j in range(variables)] for r in range(rows)]
    return header, body


def write_csv(path: str, header, body) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(body)


def whatif_spec(seed: int) -> dict:
    """A Bayesian network over WHATIF_LEVELS with seeded parents and CPTs.

    CPT rows are drawn from Dirichlet(3): nearly deterministic rows are rare,
    so the number of IPF cycles a query needs varies less from seed to seed.

    Every variable with parents gets one planted equality: along one parent
    axis, the rows of two parent levels are made bit-equal in a seeded subset
    of the other parents' configurations. encode_bn merges bit-equal rows, so
    the resulting staging is asymmetric (context-specific or partial).
    """
    rng = np.random.default_rng([seed, 7])
    p = len(WHATIF_LEVELS)
    names = [f"V{j + 1}" for j in range(p)]
    parents: dict[str, list[str]] = {}
    cpts: dict[str, list] = {}
    planted = []
    for j in range(p):
        k = min(j, int(rng.integers(1, 4)))
        par = sorted(int(q) for q in rng.choice(j, size=k, replace=False)) if k else []
        parents[names[j]] = [names[q] for q in par]
        par_shape = tuple(WHATIF_LEVELS[q] for q in par)
        cpt = rng.dirichlet(np.full(WHATIF_LEVELS[j], 3.0), size=par_shape)
        if par:
            axis = int(rng.integers(len(par)))
            l1, l2 = sorted(int(x) for x in rng.choice(par_shape[axis], size=2, replace=False))
            moved = np.moveaxis(cpt, axis, 0)
            others = moved.shape[1:-1]
            mask = np.asarray(rng.random(others) < 0.5)
            if not mask.any():
                mask.flat[0] = True
            moved[l2][mask] = moved[l1][mask]
            planted.append(
                {"child": names[j], "parent": names[par[axis]], "levels": [l1, l2],
                 "contexts": int(mask.sum()), "of": int(mask.size)}
            )
        cpts[names[j]] = cpt.tolist()
    return {
        "names": names,
        "levels": [[f"l{i}" for i in range(n)] for n in WHATIF_LEVELS],
        "parents": parents,
        "cpts": cpts,
        "response": names[-1],
        "planted": planted,
    }


def whatif_round_queries(spec: dict, seed: int, round_index: int) -> list[dict]:
    """The 49 queries of one round; every round draws fresh findings."""
    rng = np.random.default_rng([seed, 1000 + round_index])
    names = spec["names"]
    levels = spec["levels"]
    p = len(names)

    def pick(count):
        return [int(v) for v in rng.choice(p, size=count, replace=False)]

    def hard(vs):
        return {names[v]: levels[v][int(rng.integers(len(levels[v])))] for v in vs}

    def soft(vs):
        return {names[v]: rng.dirichlet(np.full(len(levels[v]), 4.0)).tolist() for v in vs}

    queries = []
    for kind in WHATIF_KINDS:
        for _ in range(WHATIF_PER_KIND):
            if kind == "hard1":
                q = {"hard": hard(pick(1))}
            elif kind == "hardN":
                q = {"hard": hard(pick(int(rng.integers(2, 4))))}
            elif kind == "soft1":
                q = {"soft": soft(pick(1))}
            elif kind == "softN":
                q = {"soft": soft(pick(int(rng.integers(2, 4))))}
            elif kind == "hard_soft":
                vs = pick(3)
                q = {"hard": hard(vs[:1]), "soft": soft(vs[1:])}
            elif kind == "virtual":
                vs = pick(int(rng.integers(1, 3)))
                q = {"weights": {names[v]: rng.uniform(0.05, 1.0, len(levels[v])).tolist() for v in vs}}
            else:
                b = p - 1 - int(rng.integers(WHATIF_MI_DEEP))
                a = int(rng.choice([v for v in range(p) if v != b]))
                q = {"pair": [names[a], names[b]]}
            q["kind"] = kind
            queries.append(q)
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
