#!/usr/bin/env python3
"""End-to-end survey analysis experiment.

Pipeline: bootstrap order votes with the response pinned last, consensus
ordering, bootstrap staging consensus at that ordering, compression into the
labeled DAG, dependence subtree of the response, and hard/soft what-if
queries against the averaged model. Artifacts land in --outdir.
"""

import argparse
import os
import sys

from stagedtree import (
    EvidenceSpec,
    LearnConfig,
    ResamplePlan,
    aldag_to_json,
    bootstrap_orders,
    compress,
    consensus_order,
    dependence_subtree,
    load_csv,
    marginal,
    mutual_information,
    run_bootstrap_consensus,
    run_query,
    to_dot,
    tree_to_json,
)
from stagedtree.consensus import context_labels_for_depth, staging_heatmap_export


def checked(convert, accept, requirement):
    """An argparse type: ``convert`` the text, then require ``accept`` of the value."""

    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


COUNT = checked(int, lambda v: v >= 1, "be at least 1")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", required=True, help="categorical CSV with header")
    parser.add_argument("--response", required=True, help="variable pinned last in the ordering")
    parser.add_argument("--algorithm", choices=["bhc", "kparents"], default="kparents")
    parser.add_argument("--k", type=COUNT, default=None, help="kparents parent budget (default 4)")
    parser.add_argument("--replicates", type=COUNT, default=200)
    parser.add_argument("--cut", type=checked(float, lambda v: 0 < v < 1, "lie strictly between 0 and 1"), default=0.5)
    parser.add_argument("--seed", type=checked(int, lambda v: 0 <= v < 2**64, "lie in [0, 2**64)"), default=0)
    parser.add_argument("--outdir", default="survey_out")
    args = parser.parse_args()
    if args.algorithm != "kparents" and args.k is not None:
        parser.error(f"--k applies only to --algorithm kparents, not to {args.algorithm}")

    cfg = LearnConfig(args.algorithm, k=(args.k or 4) if args.algorithm == "kparents" else None)
    d = load_csv(args.input)
    response = d.schema.index(args.response)
    plan = ResamplePlan(args.replicates, args.seed)
    os.makedirs(args.outdir, exist_ok=True)

    print(f"loaded {d.n} rows, {d.p} variables", file=sys.stderr)
    votes = bootstrap_orders(d, plan, cfg, fixed_last=response)
    decision = consensus_order(votes)
    order = decision.order
    names = [d.schema.names[v] for v in order]
    print("consensus order:", ", ".join(names))
    if decision.cyclic:
        print("note: pairwise votes were cyclic; Copeland linearization used", file=sys.stderr)

    result = run_bootstrap_consensus(d, order, plan, cfg, cut=args.cut)
    model = result.averaged
    with open(os.path.join(args.outdir, "model.json"), "w", encoding="utf-8") as fh:
        fh.write(tree_to_json(model))

    graph = compress(model)
    to_dot(graph, os.path.join(args.outdir, "aldag.dot"))
    with open(os.path.join(args.outdir, "aldag.json"), "w", encoding="utf-8") as fh:
        fh.write(aldag_to_json(graph))
    sub = dependence_subtree(model, graph, response)
    to_dot(sub, os.path.join(args.outdir, "response_subtree.dot"))
    for depth in range(1, d.p):
        labels = context_labels_for_depth(d.schema, order, depth)
        staging_heatmap_export(
            result.ensemble.dissimilarity[depth],
            labels,
            os.path.join(args.outdir, f"dissimilarity_depth_{depth}.csv"),
        )

    print("\nedge strengths (label fractions: sym/cs/partial/local):")
    for row in result.edge_table:
        fractions = "/".join(
            f"{row.label_fraction(label):.2f}"
            for label in ("symmetric", "context_specific", "partial", "local")
        )
        print(f"  {row.parent:>10} -> {row.child:<10} {row.strength:.2f} ({fractions})")

    response_name = d.schema.names[response]
    base = marginal(model, response_name)
    levels = d.schema.variables[response].levels
    print(f"\nmarginal {response_name}:", {lv: round(float(p), 3) for lv, p in zip(levels, base)})

    print("\nmutual information with the response:")
    for v in order[:-1]:
        name = d.schema.names[v]
        print(f"  {name:>10}: {mutual_information(model, name, response_name):.6f}")

    worst_dim = d.schema.names[order[0]]
    worst_level = d.schema.variables[order[0]].levels[0]
    hard = run_query(model, EvidenceSpec(hard={worst_dim: worst_level}))
    print(f"\nP({response_name} | {worst_dim}={worst_level}):",
          {lv: round(float(p), 3) for lv, p in zip(levels, hard.marginals[response_name])})

    soft = run_query(model, EvidenceSpec(soft={worst_dim: (0.3, 0.7)}))
    print(f"P({response_name} | soft {worst_dim}=(0.3, 0.7)):",
          {lv: round(float(p), 3) for lv, p in zip(levels, soft.marginals[response_name])})
    print(f"\nartifacts written to {args.outdir}")


if __name__ == "__main__":
    main()
